"""Tests for the profiler: instant/continuous interfaces, cache, refcounts (§4.1)."""

import pytest

from repro.errors import ProfilingNotStartedError, UnknownServiceError
from repro.cluster.workload import Echo


class TestInstantInterface:
    def test_instant_evaluates(self, cluster):
        Echo("x", _core=cluster["alpha"])
        assert cluster["alpha"].profile_instant("completLoad") == 1.0

    def test_cache_avoids_reevaluation(self, cluster):
        """§4.1: successive instant requests served without re-evaluation."""
        profiler = cluster["alpha"].profiler
        profiler.instant("completLoad")
        evaluations = profiler.evaluations["completLoad"]
        profiler.instant("completLoad")
        profiler.instant("completLoad")
        assert profiler.evaluations["completLoad"] == evaluations
        assert profiler.cache_hits >= 2

    def test_cache_expires_with_time(self, cluster):
        profiler = cluster["alpha"].profiler
        profiler.instant("completLoad")
        evaluations = profiler.evaluations["completLoad"]
        cluster.advance(2.0)  # beyond the 1 s TTL
        profiler.instant("completLoad")
        assert profiler.evaluations["completLoad"] == evaluations + 1

    def test_cache_bypass(self, cluster):
        profiler = cluster["alpha"].profiler
        profiler.instant("completLoad")
        evaluations = profiler.evaluations["completLoad"]
        profiler.instant("completLoad", use_cache=False)
        assert profiler.evaluations["completLoad"] == evaluations + 1

    def test_cache_stale_value_visible(self, cluster):
        profiler = cluster["alpha"].profiler
        assert profiler.instant("completLoad") == 0.0
        Echo("x", _core=cluster["alpha"])
        assert profiler.instant("completLoad") == 0.0  # cached
        assert profiler.instant("completLoad", use_cache=False) == 1.0

    def test_cache_keyed_by_params(self, cluster):
        profiler = cluster["alpha"].profiler
        profiler.instant("linkBytes", peer="beta")
        evaluations = dict(profiler.evaluations)
        profiler.instant("linkBytes", peer="gamma-other")
        assert profiler.evaluations["linkBytes"] == evaluations["linkBytes"] + 1

    def test_unknown_service(self, cluster):
        with pytest.raises(UnknownServiceError):
            cluster["alpha"].profile_instant("fooService")


class TestContinuousInterface:
    def test_start_get_stop_cycle(self, cluster):
        core = cluster["alpha"]
        session = core.profile("completLoad", interval=1.0)
        Echo("x", _core=core)
        cluster.advance(3.0)
        assert core.profile_get("completLoad") == pytest.approx(1.0)
        session.stop()
        assert core.profiler.active_profiles() == 0

    def test_get_without_start(self, cluster):
        with pytest.raises(ProfilingNotStartedError):
            cluster["alpha"].profile_get("completLoad")

    def test_stop_without_start(self, cluster):
        with pytest.raises(ProfilingNotStartedError):
            cluster["alpha"].profiler.stop("completLoad")

    def test_sampling_only_when_started(self, cluster):
        """§4.1: the Core monitors only resources of declared interest."""
        profiler = cluster["alpha"].profiler
        cluster.advance(10.0)
        assert profiler.evaluations["completLoad"] == 0
        profiler.start("completLoad", interval=1.0)
        cluster.advance(10.0)
        assert profiler.evaluations["completLoad"] == 10

    def test_refcounted_start_shares_sampler(self, cluster):
        """A second client joins the existing measurement (§4.2 design)."""
        profiler = cluster["alpha"].profiler
        profiler.start("completLoad", interval=1.0)
        profiler.start("completLoad", interval=1.0)
        assert profiler.active_profiles() == 1
        profiler.stop("completLoad")
        assert profiler.active_profiles() == 1  # one client remains
        profiler.stop("completLoad")
        assert profiler.active_profiles() == 0

    def test_stop_cancels_timer(self, cluster):
        profiler = cluster["alpha"].profiler
        profiler.start("completLoad", interval=1.0)
        profiler.stop("completLoad")
        evaluations = profiler.evaluations["completLoad"]
        cluster.advance(10.0)
        assert profiler.evaluations["completLoad"] == evaluations

    def test_exponential_average_smooths(self, cluster):
        core = cluster["alpha"]
        core.profile("completLoad", interval=1.0, alpha=0.5)
        cluster.advance(1.0)  # sample: 0 complets
        for _ in range(3):
            Echo("x", _core=core)
        cluster.advance(1.0)  # sample: 3 complets
        value = core.profile_get("completLoad")
        assert 0.0 < value < 3.0  # smoothed, not instantaneous

    def test_custom_service_registration(self, cluster):
        profiler = cluster["alpha"].profiler
        profiler.register_service("answer", lambda core, params: 42.0)
        assert profiler.instant("answer") == 42.0
        profiler.start("answer", interval=1.0)
        cluster.advance(2.0)
        assert profiler.profile_keys()
        assert profiler.get("answer") == 42.0


class TestSampleListeners:
    def test_listener_sees_samples(self, cluster):
        profiler = cluster["alpha"].profiler
        profiler.start("completLoad", interval=1.0)
        samples = []
        profiler.add_sample_listener(
            "completLoad", lambda value, avg: samples.append(value)
        )
        Echo("x", _core=cluster["alpha"])
        cluster.advance(3.0)
        assert samples == [1.0, 1.0, 1.0]

    def test_listener_requires_started_profile(self, cluster):
        with pytest.raises(ProfilingNotStartedError):
            cluster["alpha"].profiler.add_sample_listener(
                "completLoad", lambda v, a: None
            )

    def test_remove_listener(self, cluster):
        profiler = cluster["alpha"].profiler
        profiler.start("completLoad", interval=1.0)
        samples = []
        handle = profiler.add_sample_listener(
            "completLoad", lambda v, a: samples.append(v)
        )
        cluster.advance(1.0)
        profiler.remove_sample_listener(handle)
        cluster.advance(5.0)
        assert len(samples) == 1

    def test_measurement_shared_across_listeners(self, cluster):
        """§4.2: many listeners, one measurement unit."""
        profiler = cluster["alpha"].profiler
        profiler.start("completLoad", interval=1.0)
        for _ in range(50):
            profiler.add_sample_listener("completLoad", lambda v, a: None)
        cluster.advance(5.0)
        assert profiler.evaluations["completLoad"] == 5  # not 5 * 50
