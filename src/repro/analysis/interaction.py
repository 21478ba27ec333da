"""Cross-rule and cross-script interaction analysis (FG401–FG404).

:func:`check_script` verifies one script in isolation; nothing there can
see that *two* installed scripts — or a script and the recovery layer —
issue conflicting layout operations.  This module takes the whole
installed set as one unit:

- **FG401** — two moves whose firing orders leave a complet on different
  Cores (a race the two-phase protocol only *tolerates* at runtime);
- **FG402** — arrival-triggered moves across scripts form a cycle no
  one script forms alone (one script's own cycle is its FG108);
- **FG403** — a move and a ``failover``/``restore`` that may re-place the
  same complet;
- **FG404** — two retypes whose firing orders leave one reference edge
  with different relocation types.

FG401, FG403 and FG404 are one order-dependence check,
:func:`~repro.analysis.script_check.order_dependences`, the one that gives
a script its FG107 conflicts: it applies the effects
(:mod:`repro.script.effects`) of two **co-enabled** rules, rules one event
episode can have in flight together, in both orders to a
:class:`~repro.analysis.model.LayoutModel` (a live cluster's when
:meth:`Cluster.analyze` asks, so a move carries its pull group), and
reports the pair when the orders end in different layouts.  Rules are
co-enabled when their events are facets of one frontier (all arrival-ish
events, all failure-ish events, ...) or either trigger is asynchronous
(``timer`` and every profiled-threshold event); listen scopes do *not*
separate them, as two arrivals at two Cores can be in flight together.
"""

from __future__ import annotations

from repro.errors import ScriptSyntaxError
from repro.script.ast import Script
from repro.script.effects import CallEffect, RuleEffects, extract_effects
from repro.script.parser import parse

from repro.analysis.diagnostics import Diagnostic, diag, sort_diagnostics
from repro.analysis.model import LayoutModel
from repro.analysis.script_check import (
    OrderDependence,
    TopologyInfo,
    arrival_cycles,
    check_script,
    order_dependences,
)

__all__ = [
    "check_interaction",
    "check_script_set",
    "coerce_scripts",
    "script_set_effects",
]


def script_set_effects(scripts: list[tuple[Script, str]]) -> list[RuleEffects]:
    """Effects of every rule of every script, in set order."""
    return [
        effects
        for index, (script, name) in enumerate(scripts)
        for effects in extract_effects(script, script_name=name, script_index=index)
    ]


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


def _race(found: OrderDependence) -> Diagnostic:
    """An order-dependent pair of the set as its FG401, FG403 or FG404."""
    a, x, b, y = found.first, found.first_effect, found.second, found.second_effect
    if found.code == "FG401":
        return diag("FG401", f"move of {found.subject!r} to {y.destination!r} races the move "
                    f"to {x.destination!r} in {a.location} (on {a.event}); both rules can fire "
                    f"from the same event frontier", **_anchor(b, y.span))
    if found.code == "FG404":
        return diag("FG404", f"retype of {found.subject!r} to {y.type_name!r} races the retype "
                    f"to {x.type_name!r} in {a.location} (on {a.event}); the edge's final type "
                    f"depends on firing order", **_anchor(b, y.span))
    (mover, move), (recoverer, call) = sorted(
        ((a, x), (b, y)), key=lambda pair: isinstance(pair[1], CallEffect)
    )
    what = f"the {call.name} of {found.subject!r}" if found.subject is not None else (
        f"the whole-Core {call.name}"
    )
    return diag("FG403", f"move of {move.target!r} can race {what} in {recoverer.location} "
                f"(on {recoverer.event}); a recovery may re-place the complet while the move "
                f"is in flight", **_anchor(mover, move.span))


def check_interaction(
    scripts,
    *,
    topology: TopologyInfo | None = None,
    model: LayoutModel | None = None,
) -> list[Diagnostic]:
    """All interaction diagnostics for the installed script set.

    ``scripts`` is a sequence of parsed scripts, source strings, or
    ``(script, label)`` pairs; ``label`` anchors the diagnostics (use
    the file name when there is one).  ``model`` is the layout the rules
    act on (a live cluster's).  Single-script findings are left to
    :func:`check_script` — everything reported here needs the set.
    """
    topo = topology or TopologyInfo()
    effects = script_set_effects(coerce_scripts(scripts))
    diagnostics = [
        _race(found) for found in order_dependences(effects, model) if found.code != "FG107"
    ]
    for found in arrival_cycles(effects, topo.cores):
        if found.alone:
            continue  # one script forms it: its FG108, from check_script
        diagnostics.append(
            diag(
                "FG402",
                f"moves of {', '.join(map(repr, found.complets))} across the installed "
                f"scripts form a cycle ({found.path}); complets would oscillate "
                f"between these Cores",
                **_anchor(found.rule, found.span),
            )
        )
    return sort_diagnostics(diagnostics)


def check_script_set(
    scripts: list[tuple[str | Script, str, int | None]],
    *,
    topology: TopologyInfo | None = None,
    model: LayoutModel | None = None,
) -> tuple[list[list[Diagnostic]], list[Diagnostic]]:
    """:func:`check_script`'s report of each ``(source, label,
    expected_args)`` script (text or a parsed :class:`Script`), anchored at
    its label, in order, and :func:`check_interaction`'s report of the set,
    both on ``model`` (a live cluster's layout) when given."""
    each = [
        check_script(source, topology=topology, expected_args=args, file=label, model=model)
        for source, label, args in scripts
    ]
    pool = [(source, label) for source, label, _ in scripts]
    return each, check_interaction(pool, topology=topology, model=model)
