"""Experiments C4, C5, C6 — the monitoring layer's overhead claims.

- C4 (§4.1): "the monitor caches recent results so successive instant
  requests can be served without re-evaluation" — cached instant reads
  vs forced re-evaluation of an expensive service.
- C5 (§4.1): "the Core monitors only resources that some application has
  interest in, minimizing system overhead" — sampling work scales with
  *started* profiles only, and stop() reclaims it.
- C6 (§4.2): the event mechanism supports "many listeners (threads)
  without overloading the measurement unit" — evaluations are
  independent of the listener count.
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.workload import DataSource, Echo
from benchmarks.conftest import print_table


@pytest.fixture
def loaded_core():
    cluster = Cluster(["a", "b"])
    for _ in range(20):
        DataSource(4_096, _core=cluster["a"])
    return cluster, cluster["a"]


class TestC4Cache:
    def test_cached_instant_read(self, benchmark, loaded_core):
        _cluster, core = loaded_core
        core.profile_instant("coreMemory")  # warm the cache
        benchmark(core.profile_instant, "coreMemory")

    def test_uncached_instant_read(self, benchmark, loaded_core):
        _cluster, core = loaded_core
        benchmark(core.profile_instant, "coreMemory", use_cache=False)

    def test_cache_series(self, benchmark, loaded_core):
        # `evaluations` is a read-only snapshot of the metrics registry,
        # so the series is measured as deltas rather than by clearing.
        cluster, core = loaded_core
        base = core.profiler.evaluations["coreMemory"]
        for _ in range(100):
            core.profile_instant("coreMemory")
        cached_evals = core.profiler.evaluations["coreMemory"] - base
        base = core.profiler.evaluations["coreMemory"]
        for _ in range(100):
            core.profile_instant("coreMemory", use_cache=False)
        uncached_evals = core.profiler.evaluations["coreMemory"] - base
        print_table(
            "C4: evaluations for 100 instant reads of coreMemory",
            ["with cache", "without cache"],
            [(cached_evals, uncached_evals)],
        )
        assert cached_evals == 1
        assert uncached_evals == 100
        benchmark(core.profile_instant, "coreMemory")


class TestC5InterestDriven:
    def test_sampling_scales_with_started_profiles(self, benchmark):
        rows = []
        for started in (0, 1, 4, 16):
            cluster = Cluster(["a", "b"])
            core = cluster["a"]
            for index in range(started):
                core.profiler.register_service(
                    f"svc{index}", lambda c, p: 1.0
                )
                core.profile(f"svc{index}", interval=1.0)
            cluster.advance(10.0)
            total_evaluations = sum(core.profiler.evaluations.values())
            rows.append((started, total_evaluations))
            assert total_evaluations == started * 10
        print_table(
            "C5: sampler evaluations over 10 s vs started profiles",
            ["profiles", "evaluations"],
            rows,
        )
        benchmark(lambda: None)

    def test_stop_reclaims_sampling(self, benchmark):
        cluster = Cluster(["a", "b"])
        core = cluster["a"]
        session = core.profile("completLoad", interval=1.0)
        cluster.advance(5.0)
        session.stop()
        before = core.profiler.evaluations["completLoad"]
        cluster.advance(50.0)
        assert core.profiler.evaluations["completLoad"] == before
        assert cluster.scheduler.pending == 0
        benchmark(lambda: None)

    def test_advance_cost_with_many_profiles(self, benchmark):
        """Wall-clock cost of sweeping one virtual second of sampling."""
        cluster = Cluster(["a", "b"])
        core = cluster["a"]
        for index in range(32):
            core.profiler.register_service(f"svc{index}", lambda c, p: 1.0)
            core.profile(f"svc{index}", interval=1.0)
        benchmark(cluster.advance, 1.0)


class TestC6SharedMeasurement:
    def test_evaluations_independent_of_listeners(self, benchmark):
        rows = []
        for listeners in (1, 10, 100):
            cluster = Cluster(["a", "b"])
            core = cluster["a"]
            fired = []
            for index in range(listeners):
                threshold = float(index % 7)
                core.events.subscribe("load-evt", fired.append)
                core.monitor.watch(
                    "completLoad", ">", threshold,
                    interval=1.0, event_name="load-evt",
                )
            Echo("x", _core=core)
            cluster.advance(10.0)
            rows.append((listeners, core.profiler.evaluations["completLoad"]))
            assert core.profiler.evaluations["completLoad"] == 10
            assert core.profiler.active_profiles() == 1
        print_table(
            "C6: measurement evaluations over 10 s vs listener count",
            ["listeners", "evaluations"],
            rows,
        )
        benchmark(lambda: None)

    def test_threshold_dispatch_cost(self, benchmark):
        """Wall-clock cost of one sampling tick fanned to 100 watches."""
        cluster = Cluster(["a", "b"])
        core = cluster["a"]
        for index in range(100):
            core.monitor.watch(
                "completLoad", ">", float(index), interval=1.0, repeat=True
            )
        benchmark(cluster.advance, 1.0)

    def test_event_notification_latency(self, benchmark, loaded_core):
        """Time from publish to a local listener observing the event."""
        _cluster, core = loaded_core
        seen = []
        core.events.subscribe("ping-evt", seen.append)
        benchmark(core.events.publish, "ping-evt")
