"""The abstract Transport protocol and the failure model it owns."""

from __future__ import annotations

import pytest

from repro.errors import TransportCapabilityError, TransportError
from repro.net import Envelope, MessageKind, SimTransport, TcpTransport, Transport
from repro.net.transport import NodeHandler
from repro.sim.clock import VirtualClock
from repro.sim.scheduler import Scheduler


def fresh_sim() -> SimTransport:
    return SimTransport(Scheduler(VirtualClock()))


def envelope(src: str, dst: str, payload: bytes = b"x") -> Envelope:
    return Envelope(src=src, dst=dst, kind=MessageKind.HEARTBEAT, payload=payload)


class MinimalTransport(Transport):
    """The smallest conforming backend: delivery, and no model of link speed."""

    def __init__(self) -> None:
        self._handlers: dict[str, NodeHandler] = {}
        super().__init__(Scheduler(VirtualClock()), self._handlers, trace_capacity=8)

    def register(self, name, handler):
        self._handlers[name] = handler

    def deregister(self, name):
        self._handlers.pop(name, None)

    def send(self, envelope, timeout=None):
        return self._handlers[envelope.dst](envelope)

    def post(self, envelope):
        self._handlers[envelope.dst](envelope)

    def _shape_link(self, key, bandwidth, latency):
        if bandwidth is not None or latency is not None:
            raise TransportCapabilityError("MinimalTransport models no link speed")


class TestProtocol:
    def test_sim_transport_is_a_transport(self):
        assert isinstance(fresh_sim(), Transport)

    def test_sim_capabilities_include_virtual_time_and_bandwidth(self):
        net = fresh_sim()
        net.register("a", lambda env: b"")
        net.register("b", lambda env: b"")
        net.set_link("a", "b", bandwidth=1000.0, latency=0.5)
        net.post(envelope("a", "b", b"x" * 500))
        assert net.scheduler.clock.now() == pytest.approx(0.5 + 500 / 1000.0)

    def test_minimal_backend_serves_rpc(self):
        transport = MinimalTransport()
        transport.register("a", lambda env: b"pong")
        result = transport.send(envelope("b", "a"))
        assert result == b"pong"

    def test_a_backend_gets_the_failure_model_from_the_base(self):
        transport = MinimalTransport()
        for name in ("a", "b", "c"):
            transport.register(name, lambda env: b"")
        transport.partition({"a"}, {"b"})
        assert not transport.can_reach("a", "b")
        assert not transport.can_reach("c", "a")  # unnamed: the mainland
        transport.heal_partition()
        transport.set_link("a", "b", up=False, symmetric=False)
        assert not transport.can_reach("a", "b") and transport.can_reach("b", "a")
        transport.set_node_down("c")
        assert not transport.is_up("c") and not transport.can_reach("b", "c")
        assert transport.nodes() == ["a", "b", "c"]

    @pytest.mark.tcp
    def test_unsupported_chaos_knob_raises_typed_error(self):
        """TCP models no bandwidth: it refuses the knob before cutting anything."""
        hub = TcpTransport()
        try:
            hub.add_peer("a", ("127.0.0.1", 1))
            hub.add_peer("b", ("127.0.0.1", 2))
            with pytest.raises(TransportCapabilityError):
                hub.set_link("a", "b", bandwidth=10.0, up=False)
            assert hub.can_reach("a", "b")
        finally:
            hub.close()

    def test_capability_error_is_a_transport_error(self):
        assert issubclass(TransportCapabilityError, TransportError)

    def test_send_timeout_param_is_accepted_by_simnet(self):
        net = fresh_sim()
        net.register("a", lambda env: b"ok")
        net.register("b", lambda env: b"ok")
        assert net.send(envelope("b", "a"), timeout=1.0) == b"ok"

    def test_reset_stats(self):
        net = fresh_sim()
        net.register("a", lambda env: b"ok")
        net.register("b", lambda env: b"ok")
        net.send(envelope("b", "a"))
        assert net.stats.messages > 0
        net.reset_stats()
        assert net.stats.messages == 0
