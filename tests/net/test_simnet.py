"""Tests for the simulated network: links, cost model, failures, accounting."""

import pytest

from repro.errors import (
    ConfigurationError,
    CoreDownError,
    CoreUnreachableError,
    DuplicateCoreError,
)
from repro.net.messages import Envelope, MessageKind
from repro.net.simnet import Link, SimTransport
from repro.sim.clock import VirtualClock
from repro.sim.scheduler import Scheduler


@pytest.fixture
def net():
    scheduler = Scheduler(VirtualClock())
    network = SimTransport(scheduler, default_bandwidth=1000.0, default_latency=0.1)
    return network


def _echo_node(network, name):
    received = []

    def handler(envelope):
        received.append(envelope)
        return b"reply:" + envelope.payload

    network.register(name, handler)
    return received


def _envelope(src, dst, payload=b"hello"):
    return Envelope(src=src, dst=dst, kind=MessageKind.ADMIN_QUERY, payload=payload)


class TestLink:
    def test_transfer_time(self):
        link = Link(bandwidth=1000.0, latency=0.5)
        assert link.transfer_time(1000) == pytest.approx(1.5)

    def test_zero_bytes_costs_latency(self):
        assert Link(bandwidth=100.0, latency=0.25).transfer_time(0) == 0.25

    def test_unlimited_bandwidth(self):
        from repro.net.transport import UNLIMITED

        assert Link(bandwidth=UNLIMITED, latency=0.1).transfer_time(10**9) == 0.1


class TestDelivery:
    def test_request_reply(self, net):
        received = _echo_node(net, "b")
        net.register("a", lambda e: b"")
        reply = net.send(_envelope("a", "b"))
        assert reply == b"reply:hello"
        assert len(received) == 1

    def test_time_charged_for_both_directions(self, net):
        _echo_node(net, "b")
        net.register("a", lambda e: b"")
        payload = b"x" * 1000
        net.send(_envelope("a", "b", payload))
        # request: 0.1 + 1000/1000 = 1.1 ; reply ~ 0.1 + 1006/1000
        assert net.scheduler.clock.now() == pytest.approx(2.206, abs=0.01)

    def test_post_charges_one_direction(self, net):
        _echo_node(net, "b")
        net.register("a", lambda e: b"")
        net.post(_envelope("a", "b", b""))
        assert net.scheduler.clock.now() == pytest.approx(0.1)

    def test_loopback_is_free(self, net):
        _echo_node(net, "a")
        net.send(_envelope("a", "a"))
        assert net.scheduler.clock.now() == 0.0

    def test_msg_ids_increase(self, net):
        _echo_node(net, "b")
        net.register("a", lambda e: b"")
        e1, e2 = _envelope("a", "b"), _envelope("a", "b")
        net.send(e1)
        net.send(e2)
        assert e2.msg_id > e1.msg_id


class TestTopologyMutation:
    def test_set_link_bandwidth_changes_cost(self, net):
        _echo_node(net, "b")
        net.register("a", lambda e: b"")
        net.set_link("a", "b", bandwidth=10.0, latency=0.0)
        net.send(_envelope("a", "b", b"x" * 100))
        assert net.scheduler.clock.now() >= 10.0

    def test_symmetric_by_default(self, net):
        net.set_link("a", "b", bandwidth=500.0)
        assert net.link("a", "b").bandwidth == 500.0
        assert net.link("b", "a").bandwidth == 500.0

    def test_asymmetric_configuration(self, net):
        net.set_link("a", "b", bandwidth=500.0, symmetric=False)
        assert net.link("a", "b").bandwidth == 500.0
        assert net.link("b", "a").bandwidth == 1000.0  # default

    def test_invalid_bandwidth_rejected(self, net):
        with pytest.raises(ConfigurationError):
            net.set_link("a", "b", bandwidth=0.0)

    def test_invalid_latency_rejected(self, net):
        with pytest.raises(ConfigurationError):
            net.set_link("a", "b", latency=-1.0)


class TestFailures:
    def test_unknown_node_unreachable(self, net):
        net.register("a", lambda e: b"")
        with pytest.raises(CoreUnreachableError):
            net.send(_envelope("a", "ghost"))

    def test_down_node_raises(self, net):
        _echo_node(net, "b")
        net.register("a", lambda e: b"")
        net.set_node_down("b")
        with pytest.raises(CoreDownError):
            net.send(_envelope("a", "b"))
        net.set_node_down("b", down=False)
        assert net.send(_envelope("a", "b")) == b"reply:hello"

    def test_link_down(self, net):
        _echo_node(net, "b")
        net.register("a", lambda e: b"")
        net.set_link("a", "b", up=False)
        with pytest.raises(CoreUnreachableError):
            net.send(_envelope("a", "b"))

    def test_partition_blocks_cross_traffic(self, net):
        _echo_node(net, "b")
        _echo_node(net, "c")
        net.register("a", lambda e: b"")
        net.partition({"a", "c"}, {"b"})
        with pytest.raises(CoreUnreachableError):
            net.send(_envelope("a", "b"))
        assert net.send(_envelope("a", "c")) == b"reply:hello"

    def test_heal_partition(self, net):
        _echo_node(net, "b")
        net.register("a", lambda e: b"")
        net.partition({"a"}, {"b"})
        net.heal_partition()
        assert net.send(_envelope("a", "b")) == b"reply:hello"

    def test_node_in_two_partitions_rejected(self, net):
        with pytest.raises(ConfigurationError):
            net.partition({"a"}, {"a", "b"})

    def test_duplicate_registration_rejected(self, net):
        net.register("a", lambda e: b"")
        with pytest.raises(DuplicateCoreError):
            net.register("a", lambda e: b"")

    def test_deregistered_node_gone(self, net):
        _echo_node(net, "b")
        net.register("a", lambda e: b"")
        net.deregister("b")
        with pytest.raises(CoreUnreachableError):
            net.send(_envelope("a", "b"))


class TestAccounting:
    def test_global_stats(self, net):
        _echo_node(net, "b")
        net.register("a", lambda e: b"")
        net.send(_envelope("a", "b", b"12345"))
        assert net.stats.messages == 2  # request + reply
        assert net.stats.bytes > 5
        assert net.stats.seconds > 0.2
        assert net.stats.by_kind[MessageKind.ADMIN_QUERY] == 2

    def test_per_link_stats(self, net):
        _echo_node(net, "b")
        net.register("a", lambda e: b"")
        net.send(_envelope("a", "b", b"12345"))
        assert net.link_stats("a", "b").messages == 1
        assert net.link_stats("b", "a").messages == 1

    def test_trace_records_descriptions(self, net):
        _echo_node(net, "b")
        net.register("a", lambda e: b"")
        net.send(_envelope("a", "b"))
        assert any("a -> b" in line for line in net.trace)

    def test_transfer_time_prediction(self, net):
        assert net.transfer_time("a", "b", 1000) == pytest.approx(1.1)
        assert net.transfer_time("x", "x", 10**6) == 0.0
