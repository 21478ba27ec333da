"""Unit tests for the bench runner: baselines, comparison, determinism."""

import json

import pytest

from repro.bench.runner import (
    REGRESSION_TOLERANCE,
    baseline_path,
    check_area,
    compare_metrics,
    load_baseline,
    main,
    metric_direction,
    record_entry,
    run_area,
)
from repro.bench.scenarios import SCENARIOS
from repro.errors import ConfigurationError
from repro.sim.clock import RealClock, forbid_real_clocks


class TestMetricDirection:
    def test_throughput_metrics_are_higher_better(self):
        assert metric_direction("ops_per_vsec") == "higher"

    def test_everything_else_is_lower_better(self):
        for name in ("net_bytes", "latency_p99_vs", "serializer_dumps"):
            assert metric_direction(name) == "lower"


class TestCompareMetrics:
    def test_identical_runs_produce_no_regression(self):
        metrics = {"net_bytes": 100, "ops_per_vsec": 5.0}
        deltas = compare_metrics("x", metrics, dict(metrics))
        assert deltas and not any(delta.regressed for delta in deltas)

    def test_lower_better_metric_regresses_past_tolerance(self):
        base = {"net_bytes": 100}
        worse = {"net_bytes": 100 * (1 + REGRESSION_TOLERANCE) + 1}
        (delta,) = compare_metrics("x", base, worse)
        assert delta.regressed

    def test_higher_better_metric_regresses_when_it_drops(self):
        base = {"ops_per_vsec": 10.0}
        (delta,) = compare_metrics("x", base, {"ops_per_vsec": 5.0})
        assert delta.regressed
        (delta,) = compare_metrics("x", base, {"ops_per_vsec": 20.0})
        assert not delta.regressed

    def test_improvement_never_regresses(self):
        (delta,) = compare_metrics("x", {"net_bytes": 100}, {"net_bytes": 10})
        assert not delta.regressed and delta.worsening < 0

    def test_wall_seconds_is_never_compared(self):
        deltas = compare_metrics("x", {"wall_seconds": 1.0}, {"wall_seconds": 99.0})
        assert deltas == []

    def test_metric_missing_on_either_side_is_skipped(self):
        deltas = compare_metrics("x", {"old_metric": 1}, {"new_metric": 2})
        assert deltas == []

    def test_growth_from_zero_regresses(self):
        (delta,) = compare_metrics("x", {"net_bytes": 0}, {"net_bytes": 5})
        assert delta.regressed


class TestBaselineFiles:
    def test_record_entry_creates_and_replaces_by_label(self, tmp_path):
        record_entry(tmp_path, "marshal", "pre-fix", {"net_bytes": 10})
        record_entry(tmp_path, "marshal", "post-fix", {"net_bytes": 5})
        record_entry(tmp_path, "marshal", "post-fix", {"net_bytes": 4})
        data = load_baseline(tmp_path, "marshal")
        assert [entry["label"] for entry in data["entries"]] == ["pre-fix", "post-fix"]
        assert data["entries"][-1]["metrics"]["net_bytes"] == 4
        assert data["targeted_metric"] == SCENARIOS["marshal"].targeted_metric

    def test_baseline_path_shape(self, tmp_path):
        assert baseline_path(tmp_path, "invocation").name == "BENCH_invocation.json"

    def test_check_area_fails_without_baseline(self, tmp_path):
        deltas, error = check_area(tmp_path, "marshal")
        assert deltas == [] and error is not None


class TestDeterminism:
    def test_run_area_is_deterministic_modulo_wall_clock(self):
        first = run_area("marshal")
        second = run_area("marshal")
        first.pop("wall_seconds")
        second.pop("wall_seconds")
        assert first == second

    def test_real_clocks_are_banned_during_runs(self):
        with forbid_real_clocks(), pytest.raises(ConfigurationError):
            RealClock()
        RealClock()  # fine again outside the guard


class TestCli:
    def test_list_exits_cleanly(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "marshal" in out and "tracker_chains" in out

    def test_help_shows_the_tolerance(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0 and "15%" in capsys.readouterr().out

    def test_unknown_area_is_rejected(self):
        with pytest.raises(SystemExit):
            main(["--areas", "nonsense"])

    def test_check_against_fresh_self_baseline_passes(self, tmp_path, capsys):
        metrics = run_area("marshal")
        record_entry(tmp_path, "marshal", "baseline", metrics)
        deltas_file = tmp_path / "deltas.json"
        code = main(
            [
                "--check",
                "--areas",
                "marshal",
                "--root",
                str(tmp_path),
                "--deltas-out",
                str(deltas_file),
            ]
        )
        assert code == 0
        deltas = json.loads(deltas_file.read_text())
        assert deltas and not any(delta["regressed"] for delta in deltas)
