"""Tests for profiling history and sparkline rendering."""

import pytest

from repro.errors import ProfilingNotStartedError
from repro.monitor.profiler import HISTORY_CAPACITY
from repro.viewer.render import render_sparkline
from repro.cluster.workload import Echo


class TestHistory:
    def test_samples_recorded_with_times(self, cluster):
        core = cluster["alpha"]
        core.profile("completLoad", interval=1.0)
        Echo("x", _core=core)
        cluster.advance(3.0)
        history = core.profiler.history("completLoad")
        assert [t for t, _v in history] == [1.0, 2.0, 3.0]
        assert [v for _t, v in history] == [1.0, 1.0, 1.0]

    def test_history_tracks_changes(self, cluster):
        core = cluster["alpha"]
        core.profile("completLoad", interval=1.0)
        cluster.advance(1.0)
        Echo("x", _core=core)
        Echo("y", _core=core)
        cluster.advance(1.0)
        values = [v for _t, v in core.profiler.history("completLoad")]
        assert values == [0.0, 2.0]

    def test_history_is_bounded(self, cluster):
        core = cluster["alpha"]
        core.profile("completLoad", interval=1.0)
        cluster.advance(HISTORY_CAPACITY + 50.0)
        history = core.profiler.history("completLoad")
        assert len(history) == HISTORY_CAPACITY
        # The oldest retained sample is the (N-capacity)-th, not the first.
        assert history[0][0] == pytest.approx(51.0)

    def test_history_requires_started_profile(self, cluster):
        with pytest.raises(ProfilingNotStartedError):
            cluster["alpha"].profiler.history("completLoad")

    def test_history_returns_copy(self, cluster):
        core = cluster["alpha"]
        core.profile("completLoad", interval=1.0)
        cluster.advance(2.0)
        first = core.profiler.history("completLoad")
        first.clear()
        assert len(core.profiler.history("completLoad")) == 2


class TestSparkline:
    def test_empty(self):
        assert render_sparkline([]) == "(no samples)"

    def test_flat_series(self):
        line = render_sparkline([5.0, 5.0, 5.0])
        assert "[5 .. 5]" in line

    def test_shape_monotone(self):
        line = render_sparkline([0.0, 1.0, 2.0, 3.0])
        body = line.split("  [")[0]
        assert body == "".join(sorted(body))  # rising blocks

    def test_accepts_time_value_pairs(self, cluster):
        core = cluster["alpha"]
        core.profile("completLoad", interval=1.0)
        Echo("x", _core=core)
        cluster.advance(5.0)
        line = render_sparkline(core.profiler.history("completLoad"))
        assert "[1 .. 1]" in line

    def test_width_clips_to_recent(self):
        line = render_sparkline(list(range(100)), width=10)
        body = line.split("  [")[0]
        assert len(body) == 10
        assert "[90 .. 99]" in line
