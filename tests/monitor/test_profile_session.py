"""Tests for the ProfilingSession handle."""

import pytest

from repro.cluster.workload import Echo
from repro.monitor.profiler import ProfilingSession


class TestSessionHandle:
    def test_context_manager_reads_and_releases(self, cluster):
        core = cluster["alpha"]
        Echo("x", _core=core)
        with core.profile("completLoad", interval=1.0) as session:
            assert isinstance(session, ProfilingSession)
            assert session.active
            cluster.advance(3.0)
            assert session.value == pytest.approx(1.0)
        assert not session.active
        assert core.profiler.active_profiles() == 0

    def test_history_matches_profiler(self, cluster):
        core = cluster["alpha"]
        with core.profile("completLoad", interval=1.0) as session:
            Echo("x", _core=core)
            cluster.advance(3.0)
            samples = session.history()
        assert [raw for _, raw in samples] == [1.0, 1.0, 1.0]

    def test_stop_is_idempotent(self, cluster):
        core = cluster["alpha"]
        session = core.profile("completLoad")
        session.stop()
        session.stop()  # a second stop must not drop someone else's ref
        assert core.profiler.active_profiles() == 0

    def test_two_sessions_share_one_sampler(self, cluster):
        core = cluster["alpha"]
        first = core.profile("completLoad", interval=1.0)
        second = core.profile("completLoad", interval=1.0)
        assert core.profiler.active_profiles() == 1
        first.stop()
        assert core.profiler.active_profiles() == 1  # second still holds it
        second.stop()
        assert core.profiler.active_profiles() == 0

    def test_params_scope_the_session(self, cluster):
        core = cluster["alpha"]
        with core.profile("linkBytes", peer="beta") as session:
            cluster.advance(2.0)
            assert session.value == 0.0
            assert session.params == {"peer": "beta"}

    def test_exception_inside_with_still_releases(self, cluster):
        core = cluster["alpha"]
        with pytest.raises(RuntimeError):
            with core.profile("completLoad"):
                raise RuntimeError("boom")
        assert core.profiler.active_profiles() == 0


class TestSharedRefcounts:
    def test_profiler_start_and_session_share_refcounts(self, cluster):
        core = cluster["alpha"]
        core.profiler.start("completLoad", interval=1.0)
        session = core.profile("completLoad", interval=1.0)
        assert core.profiler.active_profiles() == 1
        session.stop()
        assert core.profiler.active_profiles() == 1  # the start() client remains
        core.profiler.stop("completLoad")
        assert core.profiler.active_profiles() == 0
