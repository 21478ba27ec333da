"""Tests for the MovePlan IR and its batch checker (FG405–FG409)."""

import pytest

from repro.analysis.interaction import coerce_scripts, script_set_effects
from repro.analysis.plan import MovePlan, PlannedMove, check_plan
from repro.analysis.script_check import TopologyInfo

TOPO = TopologyInfo(
    cores=frozenset({"c1", "c2", "c3"}),
    complets=frozenset({"w", "v"}),
)


def codes(diagnostics):
    return [d.code for d in diagnostics]


class TestJsonRoundTrip:
    def test_mapping_shape_round_trips(self):
        plan = MovePlan(
            moves=(
                PlannedMove("w", "c2", source="c1"),
                PlannedMove("v", "c3"),
            ),
            name="evacuate",
            locations={"w": "c1"},
        )
        again = MovePlan.from_json(plan.to_json())
        assert again == plan
        assert again.locations == {"w": "c1"}

    def test_bare_list_and_aliases(self):
        plan = MovePlan.from_json(
            '[{"complet": "w", "to": "c2", "from": "c1"}]', name="ops.json"
        )
        assert plan.name == "ops.json"
        assert plan.moves == (PlannedMove("w", "c2", source="c1"),)

    def test_bad_step_raises(self):
        with pytest.raises(ValueError):
            MovePlan.from_json('[{"complet": "w"}]')
        with pytest.raises(ValueError):
            MovePlan.from_json('"just a string"')


class TestUnsatisfiable:
    def test_unknown_destination_is_an_error(self):
        plan = MovePlan((PlannedMove("w", "nowhere"),))
        diagnostics = check_plan(plan, TOPO)
        assert codes(diagnostics) == ["FG405"]
        assert diagnostics[0].severity.value == "error"
        assert diagnostics[0].line == 1  # 1-based step index

    def test_unknown_complet_is_a_warning(self):
        plan = MovePlan((PlannedMove("ghost", "c2"),))
        diagnostics = check_plan(plan, TOPO)
        assert codes(diagnostics) == ["FG405"]
        assert diagnostics[0].severity.value == "warning"

    def test_source_contradicting_the_simulated_layout(self):
        plan = MovePlan(
            (
                PlannedMove("w", "c2"),
                PlannedMove("w", "c3", source="c1"),  # it is at c2 now
            ),
            locations={"w": "c1"},
        )
        diagnostics = check_plan(plan, TOPO)
        fg405 = [d for d in diagnostics if d.code == "FG405"]
        assert len(fg405) == 1
        assert "is at 'c2'" in fg405[0].message
        assert fg405[0].line == 2

    def test_no_topology_skips_existence_checks(self):
        plan = MovePlan((PlannedMove("ghost", "nowhere"),))
        assert check_plan(plan) == []


class TestConflictsAndPreemption:
    def test_conflicting_destinations_are_fg406(self):
        plan = MovePlan(
            (PlannedMove("w", "c2"), PlannedMove("w", "c3")),
            locations={"w": "c1"},
        )
        diagnostics = check_plan(plan, TOPO)
        assert codes(diagnostics) == ["FG406"]

    def test_self_preempting_plan_is_rejected(self):
        # The acceptance-criteria plan: step 2 returns w to the Core
        # step 1 deliberately vacated.
        plan = MovePlan(
            (PlannedMove("w", "c2", source="c1"), PlannedMove("w", "c1")),
            name="self-preempt",
            locations={"w": "c1"},
        )
        diagnostics = check_plan(plan, TOPO)
        assert codes(diagnostics) == ["FG407"]
        assert diagnostics[0].severity.value == "error"
        assert "deliberately vacated" in diagnostics[0].message
        assert diagnostics[0].file == "self-preempt"

    def test_noop_step_is_informational(self):
        plan = MovePlan((PlannedMove("w", "c1"),), locations={"w": "c1"})
        diagnostics = check_plan(plan, TOPO)
        assert codes(diagnostics) == ["FG408"]
        assert diagnostics[0].severity.value == "info"

    def test_clean_plan_has_no_diagnostics(self):
        plan = MovePlan(
            (PlannedMove("w", "c2", source="c1"), PlannedMove("v", "c3")),
            locations={"w": "c1", "v": "c1"},
        )
        assert check_plan(plan, TOPO) == []


class TestRuleFights:
    def effects(self, *sources):
        return script_set_effects(coerce_scripts(list(sources)))

    def test_plan_fighting_an_arrival_rule_is_fg409(self):
        effects = self.effects(
            'on completArrived listenAt [c2] do move "w" to "c3" end'
        )
        plan = MovePlan((PlannedMove("w", "c2"),), locations={"w": "c1"})
        diagnostics = check_plan(plan, TOPO, effects=effects)
        assert codes(diagnostics) == ["FG409"]
        assert "immediately override" in diagnostics[0].message

    def test_rule_listening_elsewhere_does_not_fight(self):
        effects = self.effects(
            'on completArrived listenAt [c3] do move "w" to "c1" end'
        )
        plan = MovePlan((PlannedMove("w", "c2"),), locations={"w": "c1"})
        assert check_plan(plan, TOPO, effects=effects) == []

    def test_rule_agreeing_with_the_plan_does_not_fight(self):
        effects = self.effects(
            'on completArrived listenAt [c2] do move "w" to "c2" end'
        )
        plan = MovePlan((PlannedMove("w", "c2"),), locations={"w": "c1"})
        assert check_plan(plan, TOPO, effects=effects) == []


class TestPaperScripts:
    def test_section_4_3_example_scripts_pass_with_a_plan(self):
        # The paper's §4.3 policy (evacuate-on-shutdown + colocate-on-rate)
        # must not fight a straightforward evacuation plan.
        from tests.script.test_paper_script import PAPER_SCRIPT

        effects = script_set_effects(
            coerce_scripts([(PAPER_SCRIPT, "paper-4.3")])
        )
        assert effects  # the script parses and has rules
        plan = MovePlan(
            (PlannedMove("w", "c2", source="c1"),),
            locations={"w": "c1"},
        )
        assert check_plan(plan, TOPO, effects=effects) == []
