"""Cross-rule and cross-script interaction analysis (FG401–FG404, FG108).

:func:`check_script` verifies one script in isolation; nothing there can
see that *two* installed scripts — or a script and the recovery layer —
issue conflicting layout operations.  This module takes the whole
installed set as one unit:

- **FG401** — two rules that can fire from the same event frontier move
  the same complet to different destinations (a move/move race the
  two-phase protocol only *tolerates* at runtime);
- **FG402** — arrival-triggered moves of one complet across scripts form
  a cycle (the complet would ping-pong between Cores forever);
- **FG403** — a move races a ``failover``/``restore`` recovery action
  that may concurrently re-place the same complets;
- **FG404** — two rules retype the same reference edge to different
  relocation types;
- **FG108** — the single-script move-cycle check promoted to the whole
  set: cycles whose edges span several scripts escape every per-script
  run.

Rules are compared through their extracted effects
(:mod:`repro.script.effects`): identical spellings are assumed to name
the same complet/reference, an over-approximation with the right
polarity for warnings.

*Event frontiers.*  Two rules are **co-firable** when their triggers can
be outstanding at the same instant: they name events of the same
frontier group (all arrival-ish events, all failure-ish events, ...), or
either trigger is asynchronous (``timer`` and every profiled-threshold
event can fire concurrently with anything).  Listen scopes do *not*
separate rules — two ``completArrived`` rules listening at different
Cores still co-fire when two different complets arrive.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import ScriptSyntaxError
from repro.script.ast import Script
from repro.script.effects import (
    CallEffect,
    MoveEffect,
    RetypeEffect,
    RuleEffects,
    extract_effects,
)
from repro.script.interpreter import CORE_EVENTS
from repro.script.parser import parse

from repro.analysis.diagnostics import Diagnostic, diag, sort_diagnostics
from repro.analysis.script_check import TopologyInfo, check_script, move_cycles

__all__ = [
    "MoveRace",
    "RecoveryConflict",
    "RetypeRace",
    "check_interaction",
    "check_script_set",
    "co_firable",
    "coerce_scripts",
    "find_move_races",
    "find_recovery_conflicts",
    "find_retype_races",
    "script_set_effects",
]

#: Events that are facets of one physical episode; rules on any two
#: members can be outstanding at the same instant.
_FRONTIERS: dict[str, str] = {
    "completArrived": "arrival",
    "moveCompleted": "arrival",
    "completDeparted": "arrival",
    "moveFailed": "arrival",
    "coreFailed": "failure",
    "coreSuspected": "failure",
    "coreRecovered": "failure",
    "completRecovered": "failure",
    "completRestored": "failure",
    "coreReconciled": "failure",
    "shutdown": "shutdown",
    "coreShutdown": "shutdown",
}


def _is_async_trigger(event: str) -> bool:
    """Timers and profiled thresholds fire concurrently with anything."""
    return event == "timer" or event not in CORE_EVENTS


def co_firable(a: RuleEffects, b: RuleEffects) -> bool:
    """Whether rules ``a`` and ``b`` can have firings in flight together."""
    if _is_async_trigger(a.event) or _is_async_trigger(b.event):
        return True
    fa = _FRONTIERS.get(a.event, a.event)
    fb = _FRONTIERS.get(b.event, b.event)
    return fa == fb


# -- structured findings (consumed by tests and the property harness) ---------------


@dataclass(frozen=True)
class MoveRace:
    """Two co-firable rules moving one complet to different places."""

    subject: str
    first: RuleEffects
    first_move: MoveEffect
    second: RuleEffects
    second_move: MoveEffect


@dataclass(frozen=True)
class RecoveryConflict:
    """A move that can race a ``failover``/``restore`` recovery action."""

    #: Literal complet the conflict is about, or None for a whole-Core
    #: ``failover`` (which re-places an unknown set of complets).
    subject: str | None
    mover: RuleEffects
    move: MoveEffect
    recoverer: RuleEffects
    call: CallEffect


@dataclass(frozen=True)
class RetypeRace:
    """Two co-firable rules retyping one reference edge differently."""

    subject: str
    first: RuleEffects
    first_retype: RetypeEffect
    second: RuleEffects
    second_retype: RetypeEffect


def script_set_effects(
    scripts: list[tuple[Script, str]],
) -> list[RuleEffects]:
    """Effects of every rule of every script, in set order."""
    effects: list[RuleEffects] = []
    for index, (script, name) in enumerate(scripts):
        effects.extend(
            extract_effects(script, script_name=name, script_index=index)
        )
    return effects


def find_move_races(effects: list[RuleEffects]) -> list[MoveRace]:
    races: list[MoveRace] = []
    for i, a in enumerate(effects):
        for b in effects[i + 1:]:
            if a.rule is b.rule or not co_firable(a, b):
                continue
            for ma in a.moves:
                for mb in b.moves:
                    if ma.target != mb.target:
                        continue
                    if ma.destination == mb.destination:
                        continue
                    if (
                        a.script_index == b.script_index
                        and a.trigger_key == b.trigger_key
                        and ma.destination_literal
                        and mb.destination_literal
                    ):
                        continue  # one script's same-trigger conflict: its FG107
                    races.append(MoveRace(ma.target, a, ma, b, mb))
    return races


def find_recovery_conflicts(effects: list[RuleEffects]) -> list[RecoveryConflict]:
    conflicts: list[RecoveryConflict] = []
    recoverers = [
        (e, call)
        for e in effects
        for call in e.calls
        if call.name in ("failover", "restore")
    ]
    if not recoverers:
        return conflicts
    for recoverer, call in recoverers:
        restored: str | None = None
        if call.name == "restore" and call.literal_args:
            restored = call.literal_args[0]
        for mover in effects:
            if mover.rule is recoverer.rule or not co_firable(mover, recoverer):
                continue
            for move in mover.moves:
                if call.name == "restore":
                    # A restore re-places one named complet; only moves
                    # of that complet conflict (dynamic args match all).
                    if restored is not None and move.target != restored:
                        continue
                    subject = restored if restored is not None else move.target
                else:
                    # failover re-places every complet of the failed
                    # Core; any co-firable move can collide with it.
                    subject = None
                conflicts.append(
                    RecoveryConflict(subject, mover, move, recoverer, call)
                )
    return conflicts


def find_retype_races(effects: list[RuleEffects]) -> list[RetypeRace]:
    races: list[RetypeRace] = []
    for i, a in enumerate(effects):
        for b in effects[i + 1:]:
            if a.rule is b.rule or not co_firable(a, b):
                continue
            for ra in a.retypes:
                for rb in b.retypes:
                    if ra.reference != rb.reference:
                        continue
                    if ra.type_name == rb.type_name:
                        continue
                    races.append(RetypeRace(ra.reference, a, ra, b, rb))
    return races


# -- entry point ---------------------------------------------------------------------


def coerce_scripts(
    scripts,
) -> list[tuple[Script, str]]:
    """Normalise the accepted input shapes to ``(Script, label)`` pairs.

    Accepts parsed :class:`Script` objects, source strings, or
    ``(source_or_script, label)`` tuples.  Unparsable sources are
    dropped — every entry point also runs :func:`check_script` per
    script, which reports the FG100.
    """
    out: list[tuple[Script, str]] = []
    for index, item in enumerate(scripts):
        label: str | None = None
        if isinstance(item, tuple):
            item, label = item
        if label is None:
            label = f"<script#{index + 1}>"
        if isinstance(item, Script):
            out.append((item, label))
            continue
        try:
            out.append((parse(item), label))
        except ScriptSyntaxError:
            continue
    return out


def _anchor(effects: RuleEffects, span) -> dict:
    line, column = (span.line, span.column) if span is not None else (0, 0)
    return {"file": effects.script, "line": line, "column": column}


def check_interaction(
    scripts,
    *,
    topology: TopologyInfo | None = None,
) -> list[Diagnostic]:
    """All interaction diagnostics for the installed script set.

    ``scripts`` is a sequence of parsed scripts, source strings, or
    ``(script, label)`` pairs; ``label`` anchors the diagnostics (use
    the file name when there is one).  Single-script findings are left
    to :func:`check_script` — everything reported here needs the set.
    """
    topo = topology or TopologyInfo()
    pairs = coerce_scripts(scripts)
    effects = script_set_effects(pairs)
    diagnostics: list[Diagnostic] = []

    for race in find_move_races(effects):
        d = _anchor(race.second, race.second_move.span)
        diagnostics.append(
            diag(
                "FG401",
                f"move of {race.subject!r} to {race.second_move.destination!r} "
                f"races the move to {race.first_move.destination!r} in "
                f"{race.first.location} (on {race.first.event}); both rules "
                f"can fire from the same event frontier",
                **d,
            )
        )

    for target in sorted({m.target for e in effects for m in e.moves if m.destination_literal}):
        for cycle, rule, span, alone in move_cycles(effects, topo.cores, target):
            if alone:
                continue  # one script's oscillation: its FG108, from check_script
            path = " -> ".join([*cycle, cycle[0]])
            diagnostics.append(
                diag(
                    "FG402",
                    f"moves of {target!r} across the installed scripts form a "
                    f"cycle ({path}); the complet would oscillate between these "
                    f"Cores",
                    **_anchor(rule, span),
                )
            )

    for conflict in find_recovery_conflicts(effects):
        d = _anchor(conflict.mover, conflict.move.span)
        what = (
            f"the {conflict.call.name} of {conflict.subject!r}"
            if conflict.subject is not None
            else f"the whole-Core {conflict.call.name}"
        )
        diagnostics.append(
            diag(
                "FG403",
                f"move of {conflict.move.target!r} can race {what} in "
                f"{conflict.recoverer.location} (on {conflict.recoverer.event}); "
                f"a recovery may re-place the complet while the move is in "
                f"flight",
                **d,
            )
        )

    for race in find_retype_races(effects):
        d = _anchor(race.second, race.second_retype.span)
        diagnostics.append(
            diag(
                "FG404",
                f"retype of {race.subject!r} to "
                f"{race.second_retype.type_name!r} races the retype to "
                f"{race.first_retype.type_name!r} in {race.first.location} "
                f"(on {race.first.event}); the edge's final type depends on "
                f"firing order",
                **d,
            )
        )

    for cycle, rule, span, alone in move_cycles(effects, topo.cores):
        if alone:
            continue  # one script forms it: its FG108, from check_script
        path = " -> ".join([*cycle, cycle[0]])
        diagnostics.append(
            diag(
                "FG108",
                f"arrival-triggered moves across the installed scripts form "
                f"a cycle ({path}); complets would ping-pong between these "
                f"Cores",
                **_anchor(rule, span),
            )
        )

    return sort_diagnostics(diagnostics)


def check_script_set(
    scripts: list[tuple[str, str]],
    *,
    topology: TopologyInfo | None = None,
    expected_args: int | None = None,
    installed: Sequence[tuple[Script, str]] = (),
) -> tuple[list[list[Diagnostic]], list[Diagnostic]]:
    """Each ``(source, label)`` script checked alone, and the set together.

    Returns :func:`check_script`'s report of each script, anchored at its
    label, in order, and :func:`check_interaction`'s report of the set,
    which the ``installed`` ``(Script, label)`` pairs (the scripts a
    cluster runs) join without a report of their own.
    """
    each = [
        check_script(source, topology=topology, expected_args=expected_args, file=label)
        for source, label in scripts
    ]
    pool = [*installed, *scripts]
    return each, check_interaction(pool, topology=topology) if pool else []
