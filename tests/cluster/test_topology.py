"""Tests for topology profiles."""

import pytest

from repro.errors import ConfigurationError
from repro.cluster.cluster import Cluster
from repro.cluster.topology import configure_star, configure_uniform, configure_wan


class TestUniform:
    def test_all_pairs_configured(self):
        cluster = Cluster(["a", "b", "c"])
        configure_uniform(cluster, bandwidth=123.0, latency=0.5)
        for src, dst in (("a", "b"), ("b", "c"), ("a", "c"), ("c", "a")):
            link = cluster.transport.link(src, dst)
            assert link.bandwidth == 123.0
            assert link.latency == 0.5


class TestStar:
    def test_hub_links_fast(self):
        cluster = Cluster(["hub", "s1", "s2"])
        configure_star(cluster, "hub", hub_bandwidth=1e7, spoke_bandwidth=1e5)
        assert cluster.transport.link("hub", "s1").bandwidth == 1e7
        assert cluster.transport.link("s1", "s2").bandwidth == 1e5

    def test_unknown_hub_rejected(self):
        cluster = Cluster(["a", "b"])
        with pytest.raises(ConfigurationError):
            configure_star(cluster, "nohub")


class TestWan:
    def _cluster(self):
        cluster = Cluster(["a1", "a2", "b1", "b2"])
        profile = configure_wan(
            cluster,
            {"site-a": ["a1", "a2"], "site-b": ["b1", "b2"]},
            lan_bandwidth=1e8,
            wan_bandwidth=1e5,
            lan_latency=0.001,
            wan_latency=0.1,
        )
        return cluster, profile

    def test_intra_site_fast(self):
        cluster, _profile = self._cluster()
        assert cluster.transport.link("a1", "a2").bandwidth == 1e8
        assert cluster.transport.link("b1", "b2").latency == 0.001

    def test_cross_site_slow(self):
        cluster, _profile = self._cluster()
        assert cluster.transport.link("a1", "b1").bandwidth == 1e5
        assert cluster.transport.link("a2", "b2").latency == 0.1

    def test_site_of(self):
        _cluster, profile = self._cluster()
        assert profile.site_of("a1") == "site-a"
        assert profile.site_of("b2") == "site-b"
        with pytest.raises(ConfigurationError):
            profile.site_of("zz")

    def test_core_in_two_sites_rejected(self):
        cluster = Cluster(["a", "b"])
        with pytest.raises(ConfigurationError):
            configure_wan(cluster, {"s1": ["a", "b"], "s2": ["b"]})

    def test_unassigned_core_rejected(self):
        cluster = Cluster(["a", "b", "c"])
        with pytest.raises(ConfigurationError):
            configure_wan(cluster, {"s1": ["a", "b"]})

    def test_wan_transfer_cost_asymmetry(self):
        cluster, _profile = self._cluster()
        lan = cluster.transport.transfer_time("a1", "a2", 100_000)
        wan = cluster.transport.transfer_time("a1", "b1", 100_000)
        assert wan > 100 * lan
