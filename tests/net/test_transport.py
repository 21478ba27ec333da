"""The abstract Transport protocol, capabilities, and group."""

from __future__ import annotations

import pytest

from repro.errors import TransportCapabilityError, TransportError
from repro.net import (
    CAP_BANDWIDTH,
    CAP_NODE_DOWN,
    CAP_VIRTUAL_TIME,
    Envelope,
    MessageKind,
    SimTransport,
    Transport,
    TransportGroup,
)
from repro.net.transport import LinkStats, NetworkStats, NodeHandler
from repro.sim.clock import VirtualClock
from repro.sim.scheduler import Scheduler


def fresh_sim() -> SimTransport:
    return SimTransport(Scheduler(VirtualClock()))


def envelope(src: str, dst: str, payload: bytes = b"x") -> Envelope:
    return Envelope(src=src, dst=dst, kind=MessageKind.HEARTBEAT, payload=payload)


class MinimalTransport(Transport):
    """The smallest conforming backend: no chaos capabilities at all."""

    def __init__(self) -> None:
        self.scheduler = Scheduler(VirtualClock())
        self.stats = NetworkStats()
        from repro.net.transport import TraceLog

        self.trace = TraceLog(8)
        self._handlers: dict[str, NodeHandler] = {}

    def register(self, name, handler):
        self._handlers[name] = handler

    def deregister(self, name):
        self._handlers.pop(name, None)

    def send(self, envelope, timeout=None):
        return self._handlers[envelope.dst](envelope)

    def post(self, envelope):
        self._handlers[envelope.dst](envelope)

    def nodes(self):
        return sorted(self._handlers)

    def is_up(self, name):
        return name in self._handlers

    def can_reach(self, src, dst):
        return src in self._handlers and dst in self._handlers

    def link_stats(self, src, dst):
        return LinkStats()


class TestProtocol:
    def test_sim_transport_is_a_transport(self):
        assert isinstance(fresh_sim(), Transport)

    def test_sim_capabilities_include_virtual_time_and_bandwidth(self):
        net = fresh_sim()
        assert net.supports(CAP_VIRTUAL_TIME)
        assert net.supports(CAP_BANDWIDTH)

    def test_minimal_backend_serves_rpc(self):
        transport = MinimalTransport()
        transport.register("a", lambda env: b"pong")
        result = transport.send(envelope("b", "a"))
        assert result == b"pong"

    def test_unsupported_chaos_knob_raises_typed_error(self):
        transport = MinimalTransport()
        with pytest.raises(TransportCapabilityError):
            transport.set_node_down("a")
        with pytest.raises(TransportCapabilityError):
            transport.set_link("a", "b", bandwidth=10.0)
        with pytest.raises(TransportCapabilityError):
            transport.partition({"a"}, {"b"})

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


class TestTransportGroup:
    def build(self):
        hub_ab = fresh_sim()
        hub_c = SimTransport(hub_ab.scheduler)
        hub_ab.register("a", lambda env: b"from-a")
        hub_ab.register("b", lambda env: b"from-b")
        hub_c.register("c", lambda env: b"from-c")
        group = TransportGroup({"a": hub_ab, "b": hub_ab, "c": hub_c})
        return hub_ab, hub_c, group

    def test_empty_group_is_rejected(self):
        with pytest.raises(TransportError):
            TransportGroup({})

    def test_nodes_union(self):
        _ab, _c, group = self.build()
        assert group.nodes() == ["a", "b", "c"]

    def test_transports_deduplicates(self):
        hub_ab, hub_c, group = self.build()
        members = group.transports()
        assert len(members) == 2
        assert members[0] is hub_ab
        assert members[1] is hub_c

    def test_send_routes_via_source_hub(self):
        _ab, _c, group = self.build()
        assert group.send(envelope("a", "b")) == b"from-b"

    def test_send_from_unknown_node_fails(self):
        _ab, _c, group = self.build()
        with pytest.raises(TransportError):
            group.send(envelope("zz", "a"))

    def test_register_on_group_is_rejected(self):
        _ab, _c, group = self.build()
        with pytest.raises(TransportError):
            group.register("d", lambda env: b"")

    def test_stats_aggregate(self):
        hub_ab, _c, group = self.build()
        group.send(envelope("a", "b", b"12345"))
        assert group.stats.messages == hub_ab.stats.messages
        assert group.stats.bytes >= 5

    def test_reset_stats_broadcasts(self):
        _ab, _c, group = self.build()
        group.send(envelope("a", "b"))
        group.reset_stats()
        assert group.stats.messages == 0

    def test_chaos_broadcasts_to_members(self):
        hub_ab, hub_c, group = self.build()
        group.set_node_down("a")
        assert not hub_ab.is_up("a")
        assert not hub_c.is_up("a") or "a" not in hub_c.nodes()
        assert not group.is_up("a")
        group.set_node_down("a", down=False)
        assert group.is_up("a")

    def test_capabilities_intersect(self):
        _ab, _c, group = self.build()
        assert group.capabilities() == SimTransport.CAPABILITIES
        group_mixed = TransportGroup({"m": MinimalTransport()})
        assert group_mixed.capabilities() == frozenset()

    def test_is_up_for_foreign_node(self):
        _ab, _c, group = self.build()
        assert not group.is_up("unknown")
