"""Edge cases of the bandwidth/latency probes."""

import pytest

from repro.cluster.cluster import Cluster


class TestProbeEdges:
    def test_loopback_bandwidth_is_unbounded(self, cluster):
        """Probing yourself costs nothing and reports infinite bandwidth."""
        value = cluster["alpha"].profile_instant("bandwidth", peer="alpha")
        assert value == float("inf")

    def test_loopback_latency_is_zero(self, cluster):
        assert cluster["alpha"].profile_instant("latency", peer="alpha") == 0.0

    def test_probe_of_dead_peer_raises(self, cluster):
        from repro.errors import CoreDownError

        cluster.transport.set_node_down("beta")
        with pytest.raises(CoreDownError):
            cluster["alpha"].profile_instant("bandwidth", peer="beta")

    def test_extreme_asymmetry_measured_on_request_leg(self):
        """The probe measures the direction it sends the bulk data."""
        cluster = Cluster(["a", "b"])
        cluster.set_link("a", "b", bandwidth=50_000.0, symmetric=False)
        cluster.set_link("b", "a", bandwidth=10_000_000.0, symmetric=False)
        forward = cluster["a"].profile_instant("bandwidth", peer="b")
        backward = cluster["b"].profile_instant("bandwidth", peer="a")
        assert forward == pytest.approx(50_000.0, rel=0.1)
        assert backward == pytest.approx(10_000_000.0, rel=0.1)

    def test_probe_cost_is_bounded(self, cluster):
        """One probe pair costs at most ~2 round trips of the large probe."""
        from repro.monitor.services import PROBE_LARGE, PROBE_SMALL

        cluster.set_link("alpha", "beta", bandwidth=100_000.0, latency=0.01)
        t0 = cluster.now
        cluster["alpha"].profile_instant("bandwidth", peer="beta", use_cache=False)
        elapsed = cluster.now - t0
        upper_bound = 2 * (0.01 * 2 + (PROBE_SMALL + PROBE_LARGE + 100) / 100_000.0)
        assert elapsed <= upper_bound

    def test_cached_probe_costs_nothing(self, cluster):
        cluster["alpha"].profile_instant("bandwidth", peer="beta")
        t0 = cluster.now
        cluster["alpha"].profile_instant("bandwidth", peer="beta")
        assert cluster.now == t0
