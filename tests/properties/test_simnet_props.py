"""Property-based tests for the simulated network's cost model."""

from hypothesis import given, settings, strategies as st

from repro.net.messages import Envelope, MessageKind
from repro.net.simnet import Link, SimTransport
from repro.sim.clock import VirtualClock
from repro.sim.scheduler import Scheduler

bandwidths = st.floats(min_value=1.0, max_value=1e9)
latencies = st.floats(min_value=0.0, max_value=10.0)
sizes = st.integers(min_value=0, max_value=10**7)


class TestCostModel:
    @settings(max_examples=80, deadline=None)
    @given(bandwidth=bandwidths, latency=latencies, size=sizes)
    def test_transfer_time_formula(self, bandwidth, latency, size):
        link = Link(bandwidth=bandwidth, latency=latency)
        assert link.transfer_time(size) == latency + size / bandwidth

    @settings(max_examples=80, deadline=None)
    @given(
        bandwidth=bandwidths,
        latency=latencies,
        small=sizes,
        extra=st.integers(min_value=1, max_value=10**6),
    )
    def test_monotone_in_size(self, bandwidth, latency, small, extra):
        link = Link(bandwidth=bandwidth, latency=latency)
        assert link.transfer_time(small + extra) > link.transfer_time(small)

    @settings(max_examples=80, deadline=None)
    @given(latency=latencies, size=sizes, factor=st.floats(min_value=2.0, max_value=100.0))
    def test_faster_link_never_slower(self, latency, size, factor):
        slow = Link(bandwidth=1000.0, latency=latency)
        fast = Link(bandwidth=1000.0 * factor, latency=latency)
        assert fast.transfer_time(size) <= slow.transfer_time(size)


class TestAccountingProperties:
    @settings(max_examples=40, deadline=None)
    @given(payloads=st.lists(st.binary(max_size=2_000), min_size=1, max_size=20))
    def test_bytes_accounting_is_exact(self, payloads):
        scheduler = Scheduler(VirtualClock())
        network = SimTransport(scheduler)
        network.register("a", lambda e: b"")
        network.register("b", lambda e: b"ok")
        for payload in payloads:
            network.send(
                Envelope(src="a", dst="b", kind=MessageKind.ADMIN_QUERY, payload=payload)
            )
        expected_request_bytes = sum(len(p) for p in payloads)
        assert network.link_stats("a", "b").bytes == expected_request_bytes
        assert network.link_stats("a", "b").messages == len(payloads)
        assert network.link_stats("b", "a").messages == len(payloads)

    @settings(max_examples=40, deadline=None)
    @given(payloads=st.lists(st.binary(max_size=2_000), min_size=1, max_size=20))
    def test_clock_advances_by_total_transfer_time(self, payloads):
        scheduler = Scheduler(VirtualClock())
        network = SimTransport(scheduler)
        network.register("a", lambda e: b"")
        network.register("b", lambda e: b"ok")
        for payload in payloads:
            network.send(
                Envelope(src="a", dst="b", kind=MessageKind.ADMIN_QUERY, payload=payload)
            )
        assert scheduler.clock.now() == network.stats.seconds

    @settings(max_examples=30, deadline=None)
    @given(count=st.integers(min_value=1, max_value=50))
    def test_trace_is_bounded(self, count):
        scheduler = Scheduler(VirtualClock())
        network = SimTransport(scheduler, trace_capacity=16)
        network.register("a", lambda e: b"")
        network.register("b", lambda e: b"")
        for _ in range(count):
            network.post(
                Envelope(src="a", dst="b", kind=MessageKind.EVENT_NOTIFY, payload=b"")
            )
        assert len(network.trace) == min(count, 16)
