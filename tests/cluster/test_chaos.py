"""Tests for the seeded chaos harness (and its invariants)."""

import json

import pytest

from repro.cluster.chaos import ChaosReport, ChaosRun, main, run_seeds

#: The fixed seed battery CI soaks; every seed must pass.
SOAK_SEEDS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]


@pytest.mark.parametrize("seed", SOAK_SEEDS)
def test_soak_seed_passes(seed):
    report = ChaosRun(seed).execute()
    assert report.passed, report.summary()
    assert report.requests_ok > 0
    assert report.injections > 0


#: What ``python -m repro.cluster.chaos --seeds 1,...,15`` prints.  A refactor
#: of recovery, checkpoints or failure injection leaves each line as it is.
PINNED_REPORTS = """\
seed 1: PASS — 91 ok, 10 typed errors, 12 injections, 4 recoveries over 40.4s virtual
seed 2: PASS — 83 ok, 10 typed errors, 12 injections, 2 recoveries over 37.3s virtual
seed 3: PASS — 78 ok, 13 typed errors, 12 injections, 3 recoveries over 36.4s virtual
seed 4: PASS — 94 ok, 9 typed errors, 12 injections, 4 recoveries over 41.3s virtual
seed 5: PASS — 85 ok, 14 typed errors, 12 injections, 4 recoveries over 39.8s virtual
seed 6: PASS — 80 ok, 13 typed errors, 12 injections, 2 recoveries over 37.4s virtual
seed 7: PASS — 70 ok, 16 typed errors, 12 injections, 2 recoveries over 34.4s virtual
seed 8: PASS — 71 ok, 6 typed errors, 12 injections, 1 recoveries over 30.8s virtual
seed 9: PASS — 106 ok, 7 typed errors, 12 injections, 4 recoveries over 45.3s virtual
seed 10: PASS — 94 ok, 7 typed errors, 12 injections, 2 recoveries over 40.3s virtual
seed 11: PASS — 88 ok, 8 typed errors, 12 injections, 3 recoveries over 38.4s virtual
seed 12: PASS — 58 ok, 3 typed errors, 12 injections, 0 recoveries over 24.3s virtual
seed 13: PASS — 101 ok, 10 typed errors, 12 injections, 4 recoveries over 44.4s virtual
seed 14: PASS — 74 ok, 9 typed errors, 12 injections, 3 recoveries over 33.4s virtual
seed 15: PASS — 108 ok, 14 typed errors, 12 injections, 5 recoveries over 48.8s virtual
""".splitlines()


def test_virtual_reports_are_pinned():
    assert [ChaosRun(seed).execute().summary() for seed in range(1, 16)] == PINNED_REPORTS


def test_same_seed_is_deterministic():
    first = ChaosRun(3).execute()
    second = ChaosRun(3).execute()
    assert (first.requests_ok, first.typed_errors, first.recoveries) == (
        second.requests_ok,
        second.typed_errors,
        second.recoveries,
    )
    assert first.duration == second.duration


def test_run_seeds_reports_first_failure_or_none():
    reports, first_failure = run_seeds([1])
    assert len(reports) == 1
    assert reports[0].passed
    assert first_failure is None


def test_summary_names_the_clock_the_run_was_timed_on():
    assert "over 36.4s virtual" in ChaosReport(seed=3, duration=36.4).summary()
    assert "over 2.2s wall" in ChaosReport(seed=1, duration=2.2, clock="wall").summary()


def test_a_crash_past_the_mttr_budget_is_a_violation():
    """A simulated crash lasts 4-7 virtual seconds: a 1 s budget cannot hold."""
    report = ChaosRun(1, events=2, mttr_budget=1.0).execute()
    assert not report.passed
    assert "did not heal within the 1s MTTR budget" in report.summary()


@pytest.mark.tcp
def test_real_run_holds_its_deployment_through_the_handle():
    """And reads every Core's spans for the trace before it closes it."""
    run = ChaosRun(1, transport="procs", cores=2, events=1, tracing=True)
    report = run.execute()
    assert report.passed, report.summary()
    assert report.recoveries == 1 and "s wall" in report.summary()
    events = json.loads(run.chrome_trace_json())["traceEvents"]
    processes = {event["args"]["name"] for event in events if event["ph"] == "M"}
    assert processes == {"Core core0", "Core core1", "Core driver"}
    assert any(event["name"] == "supervisor:restart" for event in events)


@pytest.mark.tcp
def test_real_run_holds_heals_to_the_mttr_budget():
    """No respawn is instantaneous: a zero budget fails every kill."""
    report = ChaosRun(2, transport="procs", cores=2, events=1, mttr_budget=0.0).execute()
    assert not report.passed
    assert report.injections == 1
    assert "did not heal within the 0s MTTR budget" in report.summary()


def test_main_exit_codes(tmp_path, capsys):
    assert main(["--seeds", "1", "--events", "2"]) == 0
    out = capsys.readouterr().out
    assert "1/1 seeds passed" in out


def test_main_writes_trace_on_failure(tmp_path, monkeypatch, capsys):
    """A failing run dumps a Chrome trace of the first failure."""
    trace_file = tmp_path / "chaos.json"

    def always_fail(self):
        self.report.violations.append("synthetic violation")
        return self.report

    monkeypatch.setattr(ChaosRun, "execute", always_fail)
    code = main(["--seeds", "7", "--trace", str(trace_file)])
    assert code == 1
    assert trace_file.exists()
    assert "synthetic violation" in capsys.readouterr().out
