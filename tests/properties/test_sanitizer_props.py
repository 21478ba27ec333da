"""Property: sanitizer-observed races ⊆ statically-warned races.

The static order-dependence check (FG401/FG403) over-approximates: it
assumes every co-enabled rule pair actually fires together.  The
LayoutSanitizer under-approximates: it only sees the schedules that
actually ran.  Soundness of the pair is the containment — under *any*
random script set and event schedule, every race the sanitizer observes
at runtime must have been statically flagged on the same script set.

Scripts are drawn from the statically-checkable fragment (triggers in
{completArrived, moveCompleted, timer}, literal complet ids, literal
destinations, plus ``call restore(...)`` for the FG403 side); schedules
move fresh trigger complets onto the listening Cores and advance the
virtual clock so timers fire.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis.interaction import coerce_scripts, script_set_effects
from repro.analysis.script_check import order_dependences
from repro.cluster.cluster import Cluster
from repro.cluster.workload import Counter
from repro.script.interpreter import ScriptEngine

CORES = ["a", "b", "c", "d", "e", "f", "g", "h"]
#: Cores whose engines install rules (and whose arrivals trigger them).
HOMES = ["a", "b"]
#: Literal destinations rules move targets to.
DESTS = ["d", "e"]
#: Hosts the schedule launches fresh trigger complets from.
TRIGGER_HOSTS = ["f", "g", "h"]

RULE = st.fixed_dictionaries(
    {
        "event": st.sampled_from(["completArrived", "moveCompleted", "timer"]),
        "home": st.sampled_from(HOMES),
        "action": st.sampled_from(["move", "move", "move", "restore"]),
        "target": st.integers(min_value=0, max_value=1),
        "dest": st.sampled_from(DESTS),
    }
)


def rule_source(rule: dict, target_ids: list[str]) -> str:
    target = target_ids[rule["target"]]
    if rule["action"] == "move":
        action = f'move "{target}" to "{rule["dest"]}"'
    else:
        action = f'call restore("{target}")'
    if rule["event"] == "timer":
        return f"on timer(1.0) do {action} end"
    return f'on {rule["event"]} listenAt [{rule["home"]}] do {action} end'


class TestObservedSubsetOfStatic:
    @settings(max_examples=30, deadline=None)
    @given(
        rules=st.lists(RULE, min_size=1, max_size=4),
        schedule=st.lists(st.sampled_from(HOMES), min_size=1, max_size=3),
    )
    def test_every_observed_race_was_statically_flagged(self, rules, schedule):
        cluster = Cluster(CORES, sanitize=True)
        cluster.enable_recovery()
        targets = [
            Counter(0, _core=cluster["c"], _at="c"),
            Counter(0, _core=cluster["c"], _at="c"),
        ]
        target_ids = sorted(cluster.complets_at("c"))
        cluster.advance(1.0)  # every target has a checkpoint to restore

    # The dynamic run and the static check see the same script set.
        sources = [rule_source(rule, target_ids) for rule in rules]
        engines = {home: ScriptEngine(cluster, home=home) for home in HOMES}
        for rule, source in zip(rules, sources):
            engines[rule["home"]].run(source)

        for index, home in enumerate(schedule):
            host = TRIGGER_HOSTS[index % len(TRIGGER_HOSTS)]
            trigger = Counter(0, _core=cluster[host], _at=host)
            cluster.move(trigger, home)
        cluster.advance(2.5)  # timers fire at least twice

        races = cluster.sanitizer.races
        if not races:
            return
        found = order_dependences(script_set_effects(coerce_scripts(sources)))
        move_subjects = {race.subject for race in found if race.code == "FG401"}
        recovery_subjects = {
            conflict.subject for conflict in found if conflict.code == "FG403"
        }
        for race in races:
            kinds = {race.first_kind, race.second_kind}
            if kinds == {"move"}:
                assert race.subject in move_subjects, (
                    f"dynamic move/move race on {race.subject!r} was not "
                    f"statically flagged by FG401 over {sources}"
                )
            elif kinds == {"move", "restore"}:
                assert (
                    race.subject in recovery_subjects
                    or None in recovery_subjects  # whole-Core failover
                ), (
                    f"dynamic move/restore race on {race.subject!r} was not "
                    f"statically flagged by FG403 over {sources}"
                )
            else:
                raise AssertionError(
                    f"unexpected dynamic race kinds {kinds} — the generated "
                    f"fragment should only produce move/move and move/restore"
                )
