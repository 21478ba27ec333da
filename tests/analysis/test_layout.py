"""Tests for the layout-policy interface: solvers, the checked executor, the journal."""

import pytest

from repro.analysis.layout import (
    JOURNAL_CAPACITY,
    LoadExisting,
    Script,
    Static,
    execute,
)
from repro.analysis.plan import MovePlan, PlannedMove
from repro.bench.scenarios import affinity_flip
from repro.cluster.workload import Counter
from repro.complet.stub import stub_target_id
from repro.errors import CoreError, TransportError
from repro.shell.shell import FarGoShell


def _id(stub) -> str:
    return str(stub_target_id(stub))


@pytest.fixture
def counters(cluster4):
    """Three counters at alpha, holding 1, 2 and 3."""
    return [Counter(value, _core=cluster4["alpha"]) for value in (1, 2, 3)]


class TestExecutor:
    def test_a_failed_step_stops_the_plan_and_leaves_its_complet_at_home(
        self, cluster4, counters
    ):
        cluster4.crash_core("gamma")
        plan = MovePlan(
            tuple(
                PlannedMove(_id(stub), destination)
                for stub, destination in zip(counters, ("beta", "gamma", "delta"))
            )
        )
        report = execute(cluster4, plan, handles={_id(s): s for s in counters})
        assert [o.status for o in report.steps] == ["committed", "failed", "not run"]
        assert isinstance(report.steps[1].error, (CoreError, TransportError))
        assert report.failure is report.steps[1]
        assert report.committed == [plan.moves[0]]
        assert [cluster4.locate(s) for s in counters] == ["beta", "alpha", "alpha"]
        assert counters[1].read() == 2

    @pytest.mark.parametrize(
        "moves, code",
        [
            ((("first", "nowhere"),), "FG405"),
            ((("first", "beta"), ("first", "gamma")), "FG406"),
        ],
    )
    def test_a_plan_with_an_error_runs_no_move(self, cluster4, counters, moves, code):
        names = {"first": _id(counters[0])}
        plan = MovePlan(tuple(PlannedMove(names[c], d) for c, d in moves))
        before = cluster4.stats.messages
        report = execute(cluster4, plan, handles={names["first"]: counters[0]})
        assert report.refused
        assert code in {d.code for d in report.diagnostics}
        assert {o.status for o in report.steps} == {"not run"}
        assert cluster4.locate(counters[0]) == "alpha"
        assert cluster4.stats.messages == before

    def test_a_no_op_step_is_skipped_and_recorded(self, cluster4, counters):
        plan = MovePlan(
            (PlannedMove(_id(counters[0]), "alpha"), PlannedMove(_id(counters[1]), "beta"))
        )
        report = execute(cluster4, plan, handles={_id(s): s for s in counters})
        assert [o.status for o in report.steps] == ["skipped", "committed"]
        assert [d.code for d in report.diagnostics] == ["FG408"]
        assert list(cluster4.layout_history) == [report]

    def test_a_step_without_a_stub_moves_by_id_at_its_host(self, cluster4, counters):
        report = execute(cluster4, MovePlan((PlannedMove(_id(counters[2]), "delta"),)))
        assert report.committed and cluster4.locate(counters[2]) == "delta"
        assert report.bytes_moved > 0 and report.seconds > 0

    def test_the_journal_keeps_the_newest_plans(self, cluster4, counters):
        plan = MovePlan((PlannedMove(_id(counters[0]), "alpha"),))
        for _ in range(JOURNAL_CAPACITY + 5):
            execute(cluster4, plan, handles={_id(counters[0]): counters[0]}, trigger="t")
        assert len(cluster4.layout_history) == JOURNAL_CAPACITY


class TestSolvers:
    def test_static_moves_nothing(self, cluster4, counters):
        Static().attach(cluster4)
        assert list(cluster4.layout_history) == []

    def test_load_existing_runs_its_plan_on_attach(self, cluster4, counters):
        plan = MovePlan.from_json(
            f'{{"name": "spread", "moves": [{{"complet": "{_id(counters[0])}", "to": "beta"}},'
            f' {{"complet": "{_id(counters[1])}", "to": "gamma"}}]}}'
        )
        LoadExisting(plan).attach(cluster4)
        assert [cluster4.locate(s) for s in counters] == ["beta", "gamma", "alpha"]
        (report,) = cluster4.layout_history
        assert (report.solver, report.trigger) == ("LoadExisting(spread)", "attach")

    def test_a_script_move_to_an_unknown_core_is_refused(self, cluster4, counters):
        Script(
            "$c = %1\non completArrived listenAt [beta] do move $c to nowhere end",
            (counters[0],),
        ).attach(cluster4)
        cluster4.move(counters[1], "beta")
        assert cluster4.locate(counters[0]) == "alpha"
        (report,) = cluster4.layout_history
        assert report.refused and report.trigger == "completArrived at beta"
        assert report.solver.endswith("on completArrived")


def test_why_names_the_rule_behind_the_dynamic_rows_move():
    cluster, _, _ = affinity_flip(250_000.0, rounds=10, calls=6, solver="Script")
    (client,) = [c for c in cluster.complets_at("site2") if c.endswith(":Client")]
    answer = FarGoShell(cluster).execute(f"why {client}")
    assert "on methodInvokeRate(2) from $c to $s2" in answer
    assert f"{client} -> site2: committed" in answer


def test_a_forwarded_move_its_host_finds_in_place_is_skipped():
    cluster, _, _ = affinity_flip(250_000.0, rounds=10, calls=6, solver="Script")
    (client,) = [c for c in cluster.complets_at("site2") if c.endswith(":Client")]
    moves = [r for r in cluster.layout_history if r.steps[0].step.destination == "site2"]
    assert [(round(r.at, 1), r.steps[0].status) for r in moves] == [
        (12.0, "committed"),
        (14.2, "skipped"),
    ]
    assert moves[1].bytes_moved == 145  # one MOVE_REQUEST and its answer, as before
    answer = FarGoShell(cluster).execute(f"why {client}")
    assert answer.splitlines()[0].startswith("t=12.040 ")
