"""Tests for the cross-script interaction checker (FG401–FG404)."""

from repro.analysis.interaction import (
    check_interaction,
    co_firable,
    coerce_scripts,
    find_move_races,
    find_recovery_conflicts,
    find_retype_races,
    script_set_effects,
)
from repro.analysis.script_check import TopologyInfo, check_script


def effects_of(*sources: str):
    return script_set_effects(coerce_scripts(list(sources)))


def codes(diagnostics):
    return [d.code for d in diagnostics]


class TestCoFirability:
    def test_same_frontier_events_co_fire(self):
        a, b = effects_of(
            'on completArrived do log "x" end',
            'on moveCompleted do log "y" end',
        )
        assert co_firable(a, b)

    def test_different_frontiers_do_not_co_fire(self):
        a, b = effects_of(
            'on completArrived do log "x" end',
            'on coreFailed firedby $c do log "y" end',
        )
        assert not co_firable(a, b)

    def test_timer_co_fires_with_everything(self):
        a, b = effects_of(
            'on timer(5) do log "x" end',
            'on coreFailed firedby $c do log "y" end',
        )
        assert co_firable(a, b)

    def test_profiled_events_are_async(self):
        a, b = effects_of(
            "on cpuLoad(0.9) firedby $c do log \"x\" end",
            'on shutdown firedby $c do log "y" end',
        )
        assert co_firable(a, b)

    def test_listen_scopes_do_not_separate_rules(self):
        # Two arrivals at two different Cores can be in flight together.
        a, b = effects_of(
            'on completArrived listenAt [c1] do log "x" end',
            'on completArrived listenAt [c2] do log "y" end',
        )
        assert co_firable(a, b)


class TestMoveRaces:
    def test_cross_script_move_race_is_fg401(self):
        diagnostics = check_interaction(
            [
                ('on completArrived listenAt [a] do move "w" to "d" end', "a.fgs"),
                ('on completArrived listenAt [b] do move "w" to "e" end', "b.fgs"),
            ]
        )
        assert codes(diagnostics) == ["FG401"]
        d = diagnostics[0]
        assert "'w'" in d.message and "'d'" in d.message and "'e'" in d.message
        assert d.file == "b.fgs"

    def test_same_destination_is_not_a_race(self):
        diagnostics = check_interaction(
            [
                'on completArrived listenAt [a] do move "w" to "d" end',
                'on completArrived listenAt [b] do move "w" to "d" end',
            ]
        )
        assert diagnostics == []

    def test_non_co_firable_rules_do_not_race(self):
        diagnostics = check_interaction(
            [
                'on completArrived do move "w" to "d" end',
                'on coreFailed firedby $c do move "w" to "e" end',
            ]
        )
        assert diagnostics == []

    def test_fg107_covered_pair_is_not_duplicated(self):
        # Same script, literally identical trigger, literal destinations:
        # the single-script checker reports FG107, FG401 stays silent.
        source = (
            'on shutdown firedby $c do move "srv" to "c1" end\n'
            'on shutdown firedby $c do move "srv" to "c2" end\n'
        )
        per_script = check_script(source)
        assert "FG107" in [d.code for d in per_script]
        races = find_move_races(effects_of(source))
        assert races == []

    def test_same_trigger_across_scripts_is_still_a_race(self):
        races = find_move_races(
            effects_of(
                'on shutdown firedby $c do move "srv" to "c1" end',
                'on shutdown firedby $c do move "srv" to "c2" end',
            )
        )
        assert [race.subject for race in races] == ["srv"]


class TestOscillation:
    def test_cross_script_per_complet_cycle_is_fg402(self):
        diagnostics = check_interaction(
            [
                ('on completArrived listenAt [c1] do move "w" to "c2" end', "x.fgs"),
                ('on completArrived listenAt [c2] do move "w" to "c1" end', "y.fgs"),
            ]
        )
        by_code = {d.code for d in diagnostics}
        assert "FG402" in by_code
        fg402 = next(d for d in diagnostics if d.code == "FG402")
        assert "'w'" in fg402.message and "c1 -> c2 -> c1" in fg402.message or (
            "c2 -> c1 -> c2" in fg402.message
        )


class TestRecoveryConflicts:
    def test_move_races_named_restore(self):
        diagnostics = check_interaction(
            [
                'on completArrived do move "w" to "d" end',
                'on moveFailed firedby $m do call restore("w") end',
            ]
        )
        assert "FG403" in codes(diagnostics)
        d = next(d for d in diagnostics if d.code == "FG403")
        assert "restore of 'w'" in d.message

    def test_restore_of_other_complet_does_not_conflict(self):
        conflicts = find_recovery_conflicts(
            effects_of(
                'on completArrived do move "w" to "d" end',
                'on moveFailed firedby $m do call restore("other") end',
            )
        )
        assert conflicts == []

    def test_whole_core_failover_conflicts_with_any_move(self):
        diagnostics = check_interaction(
            [
                'on timer(5) do move "w" to "d" end',
                'on coreFailed firedby $f do call failover($f) end',
            ]
        )
        assert "FG403" in codes(diagnostics)
        d = next(d for d in diagnostics if d.code == "FG403")
        assert "whole-Core failover" in d.message

    def test_non_co_firable_recovery_is_silent(self):
        conflicts = find_recovery_conflicts(
            effects_of(
                'on completArrived do move "w" to "d" end',
                'on coreFailed firedby $f do call failover($f) end',
            )
        )
        assert conflicts == []


class TestRetypeRaces:
    def test_conflicting_retypes_are_fg404(self):
        diagnostics = check_interaction(
            [
                "on completArrived do retype $r to pull end",
                "on moveCompleted do retype $r to duplicate end",
            ]
        )
        assert codes(diagnostics) == ["FG404"]
        assert "'pull'" in diagnostics[0].message
        assert "'duplicate'" in diagnostics[0].message

    def test_same_type_retypes_do_not_race(self):
        races = find_retype_races(
            effects_of(
                "on completArrived do retype $r to pull end",
                "on moveCompleted do retype $r to pull end",
            )
        )
        assert races == []

    def test_different_references_do_not_race(self):
        races = find_retype_races(
            effects_of(
                "on completArrived do retype $r to pull end",
                "on moveCompleted do retype $q to duplicate end",
            )
        )
        assert races == []


class TestCrossScriptCycles:
    TWO_SCRIPT_CYCLE = [
        ('on completArrived listenAt [c1] do move $x to "c2" end', "one.fgs"),
        ('on completArrived listenAt [c2] do move $y to "c1" end', "two.fgs"),
    ]

    def test_cross_script_core_cycle_is_fg402(self):
        diagnostics = check_interaction(self.TWO_SCRIPT_CYCLE)
        assert codes(diagnostics) == ["FG402"]
        (d,) = diagnostics
        assert "'$x', '$y' across the installed scripts" in d.message
        assert "(c1 -> c2 -> c1)" in d.message

    def test_a_two_script_ping_pong_is_one_fg402_and_no_fg108(self):
        s1 = 'on completArrived listenAt ["a"] do move "x" to "b" end'
        s2 = 'on completArrived listenAt ["b"] do move "x" to "a" end'
        cycles = [
            d for d in check_interaction([(s1, "s1"), (s2, "s2")])
            if d.code in ("FG108", "FG402")
        ]
        assert [d.code for d in cycles] == ["FG402"]
        assert "moves of 'x' " in cycles[0].message
        assert check_script(s1) == check_script(s2) == []

    def test_a_cycle_behind_one_scripts_cycle_is_fg402(self):
        # s1 ping-pongs x between a and b on its own; with s2, x also goes
        # a -> c -> b -> a, a path neither script makes alone.
        s1 = (
            'on completArrived listenAt ["a"] do move "x" to "b" end\n'
            'on completArrived listenAt ["b"] do move "x" to "a" end\n'
        )
        s2 = (
            'on completArrived listenAt ["a"] do move "x" to "c" end\n'
            'on completArrived listenAt ["c"] do move "x" to "b" end\n'
        )
        fg402 = [d for d in check_interaction([(s1, "s1"), (s2, "s2")]) if d.code == "FG402"]
        assert len(fg402) == 1
        assert "(a -> c -> b -> a)" in fg402[0].message
        assert (fg402[0].file, fg402[0].line) == ("s2", 1)
        assert [d.code for d in check_script(s1)] == ["FG108"]
        assert "(a -> b -> a)" in check_script(s1)[0].message
        assert check_script(s2) == []

    def test_single_script_cycle_is_left_to_check_script(self):
        # The same two rules in one script: check_script reports FG108,
        # check_interaction must not repeat it (byte-identical promise).
        source = (
            'on completArrived listenAt [c1] do move $x to "c2" end\n'
            'on completArrived listenAt [c2] do move $y to "c1" end\n'
        )
        assert "FG108" in [d.code for d in check_script(source)]
        assert check_interaction([source]) == []

    def test_single_script_diagnostics_unchanged_by_promotion(self):
        # Satellite 1's guarantee: per-script runs are byte-identical
        # whether or not the interaction checker exists.
        source = (
            'on completArrived listenAt [c1] do move $x to "c2" end\n'
            'on completArrived listenAt [c2] do move $y to "c1" end\n'
        )
        alone = check_script(source)
        again = check_script(source)
        assert alone == again
        assert [d.render() for d in alone] == [d.render() for d in again]


class TestInputShapes:
    def test_coerce_accepts_sources_scripts_and_pairs(self):
        from repro.script.parser import parse

        script = parse('on timer(5) do log "x" end')
        pairs = coerce_scripts(
            ['on timer(3) do log "y" end', script, (script, "named.fgs")]
        )
        assert [label for _, label in pairs] == [
            "<script#1>", "<script#2>", "named.fgs",
        ]

    def test_unparsable_sources_are_dropped(self):
        assert coerce_scripts(["on nope("]) == []

    def test_topology_feeds_cycle_universe(self):
        # An unscoped arrival rule ranges over the topology's Cores.
        diagnostics = check_interaction(
            [
                ('on completArrived do move "w" to "c2" end', "a.fgs"),
                ('on completArrived listenAt [c2] do move "w" to "c1" end', "b.fgs"),
            ],
            topology=TopologyInfo(cores=frozenset({"c1", "c2"})),
        )
        assert "FG402" in codes(diagnostics)
