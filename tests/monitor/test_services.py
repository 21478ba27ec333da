"""Tests for the built-in profiling services."""

import pytest

from repro.errors import MonitoringError
from repro.cluster.workload import Client, DataSource, Echo, Server


class TestSystemServices:
    def test_complet_load(self, cluster):
        core = cluster["alpha"]
        assert core.profile_instant("completLoad") == 0.0
        Echo("a", _core=core)
        Echo("b", _core=core)
        assert core.profile_instant("completLoad", use_cache=False) == 2.0

    def test_tracker_load(self, cluster):
        core = cluster["alpha"]
        Echo("a", _core=core)
        assert core.profile_instant("trackerLoad") == 1.0

    def test_complet_size(self, cluster):
        core = cluster["alpha"]
        small = Echo("s", _core=core)
        big = DataSource(50_000, _core=core)
        small_size = core.profile_instant(
            "completSize", complet=str(small._fargo_target_id)
        )
        big_size = core.profile_instant(
            "completSize", complet=str(big._fargo_target_id), use_cache=False
        )
        assert big_size > small_size + 49_000

    def test_complet_size_unknown(self, cluster):
        with pytest.raises(MonitoringError):
            cluster["alpha"].profile_instant("completSize", complet="ghost")

    def test_core_memory_sums_closures(self, cluster):
        core = cluster["alpha"]
        assert core.profile_instant("coreMemory") == 0.0
        DataSource(10_000, _core=core)
        DataSource(10_000, _core=core)
        total = core.profile_instant("coreMemory", use_cache=False)
        assert total > 20_000

    def test_missing_param_rejected(self, cluster):
        with pytest.raises(MonitoringError):
            cluster["alpha"].profile_instant("completSize")


class TestProbes:
    def test_bandwidth_measures_configured_capacity(self, cluster):
        cluster.set_link("alpha", "beta", bandwidth=250_000.0, latency=0.05)
        measured = cluster["alpha"].profile_instant("bandwidth", peer="beta")
        assert measured == pytest.approx(250_000.0, rel=0.05)

    def test_latency_measured(self, cluster):
        cluster.set_link("alpha", "beta", bandwidth=10_000_000.0, latency=0.08)
        measured = cluster["alpha"].profile_instant("latency", peer="beta")
        assert measured == pytest.approx(0.08, rel=0.1)

    def test_bandwidth_tracks_link_changes(self, cluster):
        core = cluster["alpha"]
        cluster.set_link("alpha", "beta", bandwidth=1_000_000.0)
        first = core.profile_instant("bandwidth", peer="beta")
        cluster.set_link("alpha", "beta", bandwidth=100_000.0)
        cluster.advance(2.0)  # expire the cache
        second = core.profile_instant("bandwidth", peer="beta")
        assert second < first / 5

    def test_probe_charges_virtual_time(self, cluster):
        t0 = cluster.now
        cluster["alpha"].profile_instant("bandwidth", peer="beta")
        assert cluster.now > t0

    def test_link_bytes_counts_both_directions(self, cluster):
        echo = Echo("x", _core=cluster["alpha"])
        cluster.move(echo, "beta")
        echo.echo("payload")
        counted = cluster["alpha"].profile_instant("linkBytes", peer="beta")
        assert counted > 0


class TestApplicationServices:
    def _chatty_pair(self, cluster):
        server = Server(_core=cluster["beta"], _at="beta")
        client = Client(server, _core=cluster["alpha"])
        return (
            client,
            server,
            str(client._fargo_target_id),
            str(server._fargo_target_id),
        )

    def test_invocation_rate(self, cluster):
        client, server, cid, sid = self._chatty_pair(cluster)
        core = cluster["alpha"]
        core.profile("invocationRate", interval=1.0, src=cid, dst=sid)
        cluster.advance(1.0)
        client.run(10)
        cluster.advance(1.0)
        assert core.profile_get("invocationRate", src=cid, dst=sid) > 1.0

    def test_invocation_count_total(self, cluster):
        client, server, cid, sid = self._chatty_pair(cluster)
        client.run(7)
        count = cluster["alpha"].profile_instant("invocationCount", src=cid, dst=sid)
        assert count == 7.0

    def test_byte_rate_scales_with_payload(self, cluster):
        client, server, cid, sid = self._chatty_pair(cluster)
        core = cluster["alpha"]
        core.profile("byteRate", interval=1.0, src=cid, dst=sid)
        cluster.advance(1.0)
        client.run(5)
        cluster.advance(1.0)
        assert core.profile_get("byteRate", src=cid, dst=sid) > 100.0

    def test_external_attribution(self, cluster):
        """Driver-code invocations are attributed to the 'external' source."""
        echo = Echo("x", _core=cluster["alpha"])
        echo.ping()
        count = cluster["alpha"].profile_instant(
            "invocationCount", src="external", dst=str(echo._fargo_target_id)
        )
        assert count == 1.0

    def test_cpu_load(self, cluster):
        echo = Echo("x", _core=cluster["alpha"])
        core = cluster["alpha"]
        core.profile("cpuLoad", interval=1.0)
        cluster.advance(1.0)
        for _ in range(20):
            echo.ping()
        cluster.advance(1.0)
        assert core.profile_get("cpuLoad") > 5.0

    def test_served_rate_per_complet(self, cluster):
        echo = Echo("x", _core=cluster["alpha"])
        core = cluster["alpha"]
        eid = str(echo._fargo_target_id)
        core.profile("servedRate", interval=1.0, complet=eid)
        cluster.advance(1.0)
        for _ in range(10):
            echo.ping()
        cluster.advance(1.0)
        assert core.profile_get("servedRate", complet=eid) > 2.0
