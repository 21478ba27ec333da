"""Property: a finding about a script set is reported once.

:func:`check_script` sees one script and :func:`check_interaction` the
whole set; between them every move cycle and every same-trigger conflict
must be reported exactly once, by the checker that can see it:

- a Core-level cycle of the arrival-move graph is one FG108, from the
  script that forms it alone or, when it needs two scripts, from the set;
- a cycle of one complet's moves that needs two scripts is one FG402;
- two rules of one script on one trigger moving one complet to two
  literal Cores are FG107, and never also FG401.

Scripts are drawn from the statically-checkable fragment: arrival rules
with a literal ``listenAt`` and literal destinations over four Cores,
three complets, and triggers that repeat.
"""

from __future__ import annotations

import re

from hypothesis import given, settings, strategies as st

from repro.analysis.interaction import check_interaction
from repro.analysis.script_check import check_script, find_cycles

CORES = ["a", "b", "c", "d"]
TARGETS = ["x", "y", "z"]

TRIGGER = st.tuples(
    st.sampled_from(["completArrived", "moveCompleted"]),
    st.lists(st.sampled_from(CORES), min_size=1, max_size=2, unique=True).map(tuple),
)
MOVE = st.tuples(st.sampled_from(TARGETS), st.sampled_from(CORES))
#: A script: rules as (trigger, moves); a small trigger pool makes repeats.
SCRIPT = st.lists(TRIGGER, min_size=1, max_size=2).flatmap(
    lambda triggers: st.lists(
        st.tuples(st.sampled_from(triggers), st.lists(MOVE, min_size=1, max_size=2)),
        min_size=1,
        max_size=4,
    )
)

_CYCLE = re.compile(r"form a cycle \(([^)]*)\)")
_FG401 = re.compile(r"races the move to '([^']*)' in (\S+):(\d+) ")


def source_of(rules) -> str:
    """One rule a line; a move's column is fixed by its place in the rule."""
    lines = []
    for (event, listen), moves in rules:
        actions = " ".join(f'move "{target}" to "{core}"' for target, core in moves)
        lines.append(f"on {event} listenAt [{', '.join(listen)}] do {actions} end")
    return "\n".join(lines) + "\n"


def edges_of(rules, target: str | None = None) -> set[tuple[str, str]]:
    return {
        (src, dest)
        for (_event, listen), moves in rules
        for moved, dest in moves
        if target in (None, moved)
        for src in listen
        if src != dest
    }


def graph(edges) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for src, dest in edges:
        out.setdefault(src, set()).add(dest)
    return out


def cycle_of(d) -> tuple[str, ...]:
    """The cycle ``a -> b -> a`` a finding names, as ``find_cycles`` gives it."""
    return tuple(_CYCLE.search(d.message)[1].split(" -> ")[:-1])


def needs_two_scripts(cycle, per_script_edges) -> bool:
    pairs = set(zip(cycle, cycle[1:] + cycle[:1]))
    return not any(pairs <= edges for edges in per_script_edges)


@settings(max_examples=200, deadline=None)
@given(st.lists(SCRIPT, min_size=1, max_size=3))
def test_each_finding_is_reported_once(scripts):
    labels = [f"s{i}.fgs" for i in range(len(scripts))]
    sources = [source_of(rules) for rules in scripts]
    single = [check_script(src, file=label) for src, label in zip(sources, labels)]
    together = check_interaction(list(zip(sources, labels)))

    # Core-level cycles: FG108 once each, from each script that forms it
    # alone, or from the set when it needs two scripts.
    per_script = [edges_of(rules) for rules in scripts]
    union = set().union(*per_script)
    alone = [
        (d.file, cycle_of(d)) for report in single for d in report if d.code == "FG108"
    ]
    crossing = [cycle_of(d) for d in together if d.code == "FG108"]
    assert len(alone) == len(set(alone)) and len(crossing) == len(set(crossing))
    for label, cycle in alone:
        assert not needs_two_scripts(cycle, [per_script[labels.index(label)]])
    for cycle in crossing:
        assert needs_two_scripts(cycle, per_script)
    for cycle in find_cycles(graph(union)):
        if needs_two_scripts(cycle, per_script):
            assert tuple(cycle) in crossing
    assert bool(alone or crossing) == bool(find_cycles(graph(union)))

    # Per-complet cycles that need two scripts: FG402 once each.
    for target in TARGETS:
        mine = [edges_of(rules, target) for rules in scripts]
        expected = [
            tuple(cycle)
            for cycle in find_cycles(graph(set().union(*mine)))
            if needs_two_scripts(cycle, mine)
        ]
        found = [
            cycle_of(d)
            for d in together
            if d.code == "FG402" and d.message.startswith(f"moves of {target!r} ")
        ]
        assert sorted(found) == sorted(expected)

    # Same-trigger literal conflicts inside one script: FG107, never FG401.
    for label, rules, report in zip(labels, scripts, single):
        first_dest: dict[tuple, str] = {}
        conflicting = set()
        triggers = [trigger for trigger, _ in rules]
        for trigger, moves in rules:
            if triggers.count(trigger) < 2:
                continue  # one rule's own moves are not two rules' conflict
            for target, core in moves:
                if first_dest.setdefault((trigger, target), core) != core:
                    conflicting.add((trigger, target))
        conflicts = [d for d in report if d.code == "FG107" and "conflicts" in d.message]
        assert bool(conflicts) == bool(conflicting)
        line_trigger = {line: trigger for line, (trigger, _) in enumerate(rules, start=1)}
        for d in together:
            match = _FG401.search(d.message) if d.code == "FG401" else None
            if match is None or d.file != label or match[2] != label:
                continue
            assert line_trigger[d.line] != line_trigger[int(match[3])]
