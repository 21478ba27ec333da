"""Property: a finding about a script set is reported once.

:func:`check_script` sees one script and :func:`check_interaction` the
whole set; between them every move cycle and every same-trigger conflict
must be reported exactly once, by the checker that can see it:

- a strongly connected component of two or more Cores of the set's
  arrival-move graph is one FG108 from each script whose own graph has
  that same component, or else one FG402 from the set, whose witness
  needs two scripts;
- two rules of one script on one trigger moving one complet to two
  literal Cores are FG107, and never also FG401.

The components are computed here by mutual reachability over a
transitive closure, not by the checker's own search.  Scripts are drawn
from the statically-checkable fragment: arrival rules with a literal
``listenAt`` and literal destinations over four Cores, three complets,
and triggers that repeat.
"""

from __future__ import annotations

import re

from hypothesis import example, given, settings, strategies as st

from repro.analysis.interaction import check_interaction
from repro.analysis.script_check import check_script

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
_MOVED = re.compile(r"^moves of (.*) across the installed scripts")
_FG401 = re.compile(r"races the move to '([^']*)' in (\S+):(\d+) ")


def source_of(rules) -> str:
    """One rule a line; a move's column is fixed by its place in the rule."""
    lines = []
    for (event, listen), moves in rules:
        actions = " ".join(f'move "{target}" to "{core}"' for target, core in moves)
        lines.append(f"on {event} listenAt [{', '.join(listen)}] do {actions} end")
    return "\n".join(lines) + "\n"


def moves_of(rules) -> set[tuple[str, str, str]]:
    """``(src, dest, complet)`` for every arrival at ``src`` that moves it on."""
    return {
        (src, dest, moved)
        for (_event, listen), moves in rules
        for moved, dest in moves
        for src in listen
        if src != dest
    }


def components(edges) -> set[frozenset[str]]:
    """Strongly connected components of two or more Cores: the Cores that
    reach each other, by a transitive closure over ``CORES``."""
    reach = {(src, dest) for src, dest in edges}
    for via in CORES:
        reach |= {(src, dest) for src in CORES for dest in CORES
                  if (src, via) in reach and (via, dest) in reach}
    return {
        frozenset(v for v in CORES if (u, v) in reach and (v, u) in reach)
        for u in CORES
        if (u, u) in reach
    }


def witness(d) -> list[tuple[str, str]]:
    """The edges of the cycle ``a -> b -> a`` a finding names."""
    cores = _CYCLE.search(d.message)[1].split(" -> ")
    return list(zip(cores, cores[1:]))


def component_of(d, found: set[frozenset[str]]) -> frozenset[str]:
    cores = {core for edge in witness(d) for core in edge}
    (component,) = [c for c in found if cores <= c]
    return component


def relay(target: str, *cores: str):
    """Rules moving ``target`` on from each Core to the next, the last back
    to the first."""
    return [
        (("completArrived", (src,)), [(target, dest)])
        for src, dest in zip(cores, cores[1:] + cores[:1])
    ]


@settings(max_examples=200, deadline=None)
@given(st.lists(SCRIPT, min_size=1, max_size=3))
# A cycle behind one script's cycle, and two scripts' cycles sharing a Core.
@example([relay("x", "a", "b"), relay("x", "a", "c", "b")[:2]])
@example([relay("x", "a", "b"), relay("y", "b", "c")])
def test_each_finding_is_reported_once(scripts):
    labels = [f"s{i}.fgs" for i in range(len(scripts))]
    sources = [source_of(rules) for rules in scripts]
    single = [check_script(src, file=label) for src, label in zip(sources, labels)]
    together = check_interaction(list(zip(sources, labels)))

    moves = [moves_of(rules) for rules in scripts]
    per_script = [{(src, dest) for src, dest, _ in mine} for mine in moves]
    union = set().union(*per_script)
    own = [components(edges) for edges in per_script]
    formed = set().union(*own)

    # Each script's components: one FG108 each, along the script's own edges.
    for report, edges, mine in zip(single, per_script, own):
        fg108 = [d for d in report if d.code == "FG108"]
        assert sorted(map(sorted, (component_of(d, mine) for d in fg108))) == sorted(
            map(sorted, mine)
        )
        for d in fg108:
            assert set(witness(d)) <= edges

    # The set's other components: one FG402 each, along a path no script
    # makes alone, naming what the rules move along it.
    assert not [d for d in together if d.code == "FG108"]
    fg402 = [d for d in together if d.code == "FG402"]
    expected = components(union) - formed
    assert sorted(map(sorted, (component_of(d, expected) for d in fg402))) == sorted(
        map(sorted, expected)
    )
    for d in fg402:
        path = witness(d)
        assert set(path) <= union
        assert not any(set(path) <= edges for edges in per_script)
        named = re.findall(r"'([^']*)'", _MOVED.search(d.message)[1])
        assert named == sorted(
            {moved for mine in moves for src, dest, moved in mine if (src, dest) in path}
        )

    # Same-trigger literal conflicts inside one script: FG107, never FG401.
    for label, rules, report in zip(labels, scripts, single):
        conflicting = {
            (trigger, target)
            for i, (trigger, moves) in enumerate(rules)
            for other, others in rules[i + 1:]
            if other == trigger  # one rule's own moves run in order: never a pair
            for target, core in moves
            for target2, core2 in others
            if target2 == target and core2 != core
        }
        conflicts = [d for d in report if d.code == "FG107" and "conflicts" in d.message]
        assert bool(conflicts) == bool(conflicting)
        line_trigger = {line: trigger for line, (trigger, _) in enumerate(rules, start=1)}
        for d in together:
            match = _FG401.search(d.message) if d.code == "FG401" else None
            if match is None or d.file != label or match[2] != label:
                continue
            assert line_trigger[d.line] != line_trigger[int(match[3])]
