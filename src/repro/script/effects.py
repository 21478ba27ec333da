"""Rule → effect extraction: what a layout rule *does*, symbolically.

The analyzers reason about sets of rules — one script's
(:mod:`repro.analysis.script_check`: duplicates, conflicts, move cycles)
or several scripts' (:mod:`repro.analysis.interaction`) — without running
any of them, so they need each rule reduced to its externally visible
effects: which complets it moves where, which references it retypes,
which recovery actions it calls, and under which trigger it fires.

Expressions are canonicalised to *spellings* (:func:`render_expr`):
``move $c to coreOf $s`` yields the move effect ``($c, coreOf $s)``.
Two effects with the same spelling are treated as touching the same
thing — an over-approximation across scripts (two scripts' ``$c`` may
be bound differently), which is the right polarity for race warnings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.script.ast import (
    Action,
    ArgRef,
    AssignAction,
    CallAction,
    CompletsIn,
    CoreOf,
    Expr,
    Index,
    ListExpr,
    Literal,
    MoveAction,
    RetypeAction,
    Rule,
    Script,
    Span,
    VarRef,
)

__all__ = [
    "CallEffect",
    "MoveEffect",
    "RetypeEffect",
    "RuleEffects",
    "extract_effects",
    "render_expr",
]


def render_expr(expr: Expr | None) -> str | None:
    """Canonical source-like spelling of ``expr`` (identity for matching)."""
    if expr is None:
        return None
    if isinstance(expr, Literal):
        return str(expr.value)
    if isinstance(expr, VarRef):
        return f"${expr.name}"
    if isinstance(expr, ArgRef):
        return f"%{expr.index}"
    if isinstance(expr, Index):
        return f"{render_expr(expr.base)}[{expr.index}]"
    if isinstance(expr, ListExpr):
        return "[" + ", ".join(str(render_expr(item)) for item in expr.items) + "]"
    if isinstance(expr, CompletsIn):
        return f"completsIn {render_expr(expr.core)}"
    if isinstance(expr, CoreOf):
        return f"coreOf {render_expr(expr.complet)}"
    return repr(expr)


def literal_str(expr: Expr | None) -> str | None:
    """``expr``'s value when it is a string literal, else ``None``."""
    if isinstance(expr, Literal) and isinstance(expr.value, str):
        return expr.value
    return None


@dataclass(frozen=True, slots=True)
class MoveEffect:
    """One ``move <target> to <destination>`` action, symbolically."""

    target: str                 # canonical spelling of the moved expression
    destination: str            # canonical spelling of the destination
    target_literal: bool        # True when the target is a literal complet id
    destination_literal: bool   # True when the destination is a literal Core
    span: Span | None


@dataclass(frozen=True, slots=True)
class RetypeEffect:
    """One ``retype <ref> to <type>`` action, symbolically."""

    reference: str
    type_name: str
    span: Span | None


@dataclass(frozen=True, slots=True)
class CallEffect:
    """One ``call name(args...)`` action, symbolically."""

    name: str
    args: tuple[str, ...]
    #: Literal string value of each argument (None for dynamic args).
    literal_args: tuple[str | None, ...]
    span: Span | None


@dataclass(frozen=True)
class RuleEffects:
    """One rule reduced to trigger + effects."""

    rule: Rule
    #: Label of the script the rule came from (file name or synthetic).
    script: str
    #: Index of the script within the analyzed set.
    script_index: int
    #: The trigger event name as written (``completArrived``, ``timer``...).
    event: str
    #: Literal Core names of the ``listenAt`` clause; None = dynamic/all.
    listen_cores: tuple[str, ...] | None
    moves: tuple[MoveEffect, ...] = ()
    retypes: tuple[RetypeEffect, ...] = ()
    calls: tuple[CallEffect, ...] = ()
    #: Trigger identity: equal keys mean the same installed trigger.
    trigger_key: tuple = field(default=(), compare=False)

    @property
    def location(self) -> str:
        line = self.rule.span.line if self.rule.span else 0
        return f"{self.script}:{line}"


def _listen_cores(rule: Rule) -> tuple[str, ...] | None:
    expr = rule.listen_at
    if expr is None:
        return None
    if isinstance(expr, Literal) and isinstance(expr.value, str):
        return (expr.value,)
    if isinstance(expr, ListExpr):
        names = [
            item.value
            for item in expr.items
            if isinstance(item, Literal) and isinstance(item.value, str)
        ]
        if len(names) == len(expr.items):
            return tuple(names)
    return None


def _action_effects(
    actions: tuple[Action, ...],
) -> tuple[tuple[MoveEffect, ...], tuple[RetypeEffect, ...], tuple[CallEffect, ...]]:
    moves: list[MoveEffect] = []
    retypes: list[RetypeEffect] = []
    calls: list[CallEffect] = []
    for action in actions:
        if isinstance(action, MoveAction):
            moves.append(
                MoveEffect(
                    target=str(render_expr(action.target)),
                    destination=str(render_expr(action.destination)),
                    target_literal=isinstance(action.target, Literal),
                    destination_literal=literal_str(action.destination) is not None,
                    span=action.span,
                )
            )
        elif isinstance(action, RetypeAction):
            retypes.append(
                RetypeEffect(
                    reference=str(render_expr(action.reference)),
                    type_name=action.type_name.lower(),
                    span=action.span,
                )
            )
        elif isinstance(action, CallAction):
            calls.append(
                CallEffect(
                    name=action.name,
                    args=tuple(str(render_expr(a)) for a in action.args),
                    literal_args=tuple(literal_str(a) for a in action.args),
                    span=action.span,
                )
            )
        elif isinstance(action, AssignAction):
            continue
    return tuple(moves), tuple(retypes), tuple(calls)


def extract_effects(
    script: Script, *, script_name: str = "<script>", script_index: int = 0
) -> list[RuleEffects]:
    """Effects of every rule in ``script``, in source order."""
    out: list[RuleEffects] = []
    for rule in script.rules:
        moves, retypes, calls = _action_effects(rule.actions)
        out.append(
            RuleEffects(
                rule=rule,
                script=script_name,
                script_index=script_index,
                event=rule.event,
                listen_cores=_listen_cores(rule),
                moves=moves,
                retypes=retypes,
                calls=calls,
                trigger_key=(
                    rule.event,
                    rule.event_args,
                    rule.fired_by,
                    rule.source,
                    rule.target,
                    rule.listen_at,
                    rule.every,
                ),
            )
        )
    return out
