"""Static checker for layout scripts (rules FG101–FG111).

Walks the :mod:`repro.script` AST without activating anything: variable
definedness, ``%n`` argument sanity, event-name resolution, clause
requirements per profiling service, threshold typing, reference types,
duplicate/conflicting rules, and statically detectable move cycles over
the rule graph.  With a :class:`TopologyInfo` (from a live cluster) it
also resolves Core and complet identifiers.

Duplicates, conflicts and cycles are read from the rules' effects
(:func:`~repro.script.effects.extract_effects`), the reading
:mod:`repro.analysis.interaction` applies to a whole script set; one
arrival-move graph (:func:`arrival_cycles`) gives a script its FG108 and
the set its FG402.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.complet.relocators import BUILTIN_RELOCATORS
from repro.errors import ScriptSyntaxError
from repro.monitor.events import OPERATORS
from repro.script.ast import (
    Action,
    ArgRef,
    AssignAction,
    Assignment,
    CallAction,
    CompletsIn,
    CoreOf,
    Expr,
    Index,
    ListExpr,
    Literal,
    LogAction,
    MoveAction,
    RetypeAction,
    Rule,
    Script,
    Span,
    VarRef,
)
from repro.script.effects import MoveEffect, RuleEffects, extract_effects
from repro.script.interpreter import (
    COMPLET_SERVICES,
    CORE_EVENTS,
    PAIR_SERVICES,
    PEER_SERVICES,
    SERVICE_ALIASES,
)
from repro.script.parser import parse
from repro.script.stdlib import STDLIB_ACTIONS
from repro.util.ids import CompletId

from repro.analysis.diagnostics import Diagnostic, Severity, diag, sort_diagnostics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster

#: Events announcing that a complet landed: rules on them move complets right
#: after a move, so they re-trigger each other (move cycles) and fight plans (FG409).
ARRIVAL_EVENTS = frozenset({"completArrived", "moveCompleted"})


@dataclass(frozen=True)
class TopologyInfo:
    """What identifier resolution knows about the deployment.

    Empty sets disable the corresponding check (a script is usually
    written before the exact topology exists).
    """

    cores: frozenset[str] = frozenset()
    complets: frozenset[str] = frozenset()

    @classmethod
    def from_cluster(cls, cluster: "Cluster") -> "TopologyInfo":
        """Every Core name, and each running Core's complets in both display
        forms, read through the cluster's handles (so on every backend)."""
        complets: set[str] = set()
        for name in cluster.running_names():
            for display in cluster.complets_at(name):
                birth, _, rest = display.rpartition("/c")
                serial, _, type_name = rest.partition(":")
                complets.update((display, CompletId(birth, int(serial), type_name).short()))
        return cls(cores=frozenset(cluster.core_names()), complets=frozenset(complets))


def _suggest(name: str, candidates) -> str:
    close = difflib.get_close_matches(name, list(candidates), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def check_script(
    source: str | Script,
    *,
    topology: TopologyInfo | None = None,
    expected_args: int | None = None,
    file: str | None = None,
) -> list[Diagnostic]:
    """All diagnostics of ``source`` (text or a parsed script), sorted by location.

    A syntax error yields a single ``FG100`` diagnostic instead of
    raising, so callers can always treat the result as a report.
    """
    try:
        script = source if isinstance(source, Script) else parse(source)
    except ScriptSyntaxError as exc:
        return [
            diag("FG100", str(exc), file=file, line=exc.line, column=exc.column)
        ]
    checker = _ScriptChecker(script, topology or TopologyInfo(), expected_args, file)
    return sort_diagnostics(checker.run())


class _ScriptChecker:
    def __init__(
        self,
        script: Script,
        topology: TopologyInfo,
        expected_args: int | None,
        file: str | None,
    ) -> None:
        self.script = script
        self.topology = topology
        self.expected_args = expected_args
        self.file = file
        self.diagnostics: list[Diagnostic] = []
        #: Representative span per referenced %n index.
        self.arg_refs: dict[int, Span | None] = {}

    # -- plumbing ----------------------------------------------------------------

    def _emit(
        self,
        code: str,
        message: str,
        span: Span | None,
        *,
        severity: Severity | None = None,
    ) -> None:
        line, column = (span.line, span.column) if span is not None else (0, 0)
        self.diagnostics.append(
            diag(code, message, file=self.file, line=line, column=column,
                 severity=severity)
        )

    # -- entry -------------------------------------------------------------------

    def run(self) -> list[Diagnostic]:
        defined: set[str] = set()
        for statement in self.script.statements:
            if isinstance(statement, Assignment):
                self._check_expr(statement.value, defined)
                defined.add(statement.name)
            else:
                self._check_rule(statement, defined)
        self._check_arg_gaps()
        effects = extract_effects(self.script)
        self._check_duplicates(effects)
        for found in arrival_cycles(effects, self.topology.cores):
            self._emit(
                "FG108",
                f"arrival-triggered moves form a cycle ({found.path}); complets "
                f"would ping-pong between these Cores",
                found.span,
            )
        return self.diagnostics

    # -- expressions --------------------------------------------------------------

    def _check_expr(self, expr: Expr, env: set[str], role: str | None = None) -> None:
        """Walk ``expr``; ``role`` is 'core' or 'complet' for identifier use."""
        if isinstance(expr, Literal):
            self._check_literal(expr, role)
        elif isinstance(expr, VarRef):
            if expr.name not in env:
                self._emit(
                    "FG101",
                    f"undefined variable ${expr.name}"
                    + _suggest(expr.name, env),
                    expr.span,
                )
        elif isinstance(expr, ArgRef):
            if expr.index < 1:
                self._emit(
                    "FG102",
                    f"script arguments are 1-based; %{expr.index} can never bind",
                    expr.span,
                )
            elif self.expected_args is not None and expr.index > self.expected_args:
                self._emit(
                    "FG102",
                    f"%{expr.index} exceeds the {self.expected_args} declared "
                    f"script argument(s)",
                    expr.span,
                )
            else:
                self.arg_refs.setdefault(expr.index, expr.span)
        elif isinstance(expr, Index):
            self._check_expr(expr.base, env)
        elif isinstance(expr, ListExpr):
            for item in expr.items:
                self._check_expr(item, env, role)
        elif isinstance(expr, CompletsIn):
            self._check_expr(expr.core, env, "core")
        elif isinstance(expr, CoreOf):
            self._check_expr(expr.complet, env, "complet")

    def _check_literal(self, literal: Literal, role: str | None) -> None:
        value = literal.value
        if role == "core":
            if not isinstance(value, str):
                self._emit(
                    "FG106",
                    f"expected a Core name here, got the number {value!r}",
                    literal.span,
                )
            elif self.topology.cores and value not in self.topology.cores:
                self._emit(
                    "FG104",
                    f"unknown Core {value!r}"
                    + _suggest(value, self.topology.cores),
                    literal.span,
                )
        elif role == "complet":
            if isinstance(value, str) and self.topology.complets \
                    and value not in self.topology.complets:
                self._emit(
                    "FG105",
                    f"no complet {value!r} in the deployment"
                    + _suggest(value, self.topology.complets),
                    literal.span,
                )

    # -- rules ---------------------------------------------------------------------

    def _check_rule(self, rule: Rule, defined: set[str]) -> None:
        env = set(defined)
        env.add("event")
        if rule.fired_by is not None:
            env.add(rule.fired_by)

        self._check_event(rule, env)

        if rule.listen_at is not None:
            self._check_expr(rule.listen_at, env, "core")
        if rule.every is not None:
            self._check_expr(rule.every, env)
            self._check_number_literal(rule.every, "'every' interval", positive=True)

        for action in rule.actions:
            self._check_action(action, env, rule)

    def _check_event(self, rule: Rule, env: set[str]) -> None:
        for arg in rule.event_args:
            self._check_expr(arg, env)
        if rule.event == "timer":
            if not rule.event_args:
                self._emit(
                    "FG109", "timer rules need an interval argument", rule.span
                )
            else:
                self._check_number_literal(
                    rule.event_args[0], "timer interval", positive=True
                )
            return
        if rule.event in CORE_EVENTS:
            return
        service = SERVICE_ALIASES.get(rule.event)
        if service is None:
            known = {"timer", *CORE_EVENTS, *SERVICE_ALIASES}
            self._emit(
                "FG103",
                f"unknown event {rule.event!r}: not a Core event and not a "
                f"profiling service" + _suggest(rule.event, known),
                rule.span,
            )
            return
        # Profiled event: threshold, comparison, and required clauses.
        if not rule.event_args:
            self._emit(
                "FG109",
                f"profiled event {rule.event!r} needs a threshold argument",
                rule.span,
            )
        else:
            self._check_number_literal(rule.event_args[0], "threshold")
            if len(rule.event_args) > 1:
                op = rule.event_args[1]
                if isinstance(op, Literal) and op.value not in OPERATORS:
                    self._emit(
                        "FG106",
                        f"unknown comparison {op.value!r}; expected one of "
                        f"{sorted(OPERATORS)}",
                        op.span,
                    )
        if service in PAIR_SERVICES and (rule.source is None or rule.target is None):
            self._emit(
                "FG109",
                f"{rule.event!r} rules need 'from <complet> to <complet>' clauses",
                rule.span,
            )
        elif service in PEER_SERVICES and rule.target is None:
            self._emit(
                "FG109", f"{rule.event!r} rules need a 'to <core>' clause", rule.span
            )
        elif service in COMPLET_SERVICES and rule.source is None:
            self._emit(
                "FG109", f"{rule.event!r} rules need a 'from <complet>' clause",
                rule.span,
            )
        if rule.source is not None:
            self._check_expr(rule.source, env, "complet")
        if rule.target is not None:
            role = "core" if service in PEER_SERVICES else "complet"
            self._check_expr(rule.target, env, role)

    def _check_number_literal(
        self, expr: Expr, what: str, *, positive: bool = False
    ) -> None:
        """Flag literals that can never satisfy a numeric slot."""
        if not isinstance(expr, Literal):
            return  # dynamic value: the interpreter checks at runtime
        if not isinstance(expr.value, (int, float)):
            self._emit(
                "FG106",
                f"{what} must be a number, got {expr.value!r}",
                expr.span,
            )
        elif positive and expr.value <= 0:
            self._emit(
                "FG106",
                f"{what} must be positive, got {expr.value!r}",
                expr.span,
            )

    # -- actions ---------------------------------------------------------------------

    def _check_action(self, action: Action, env: set[str], rule: Rule) -> None:
        if isinstance(action, AssignAction):
            self._check_expr(action.value, env)
            env.add(action.name)
        elif isinstance(action, LogAction):
            self._check_expr(action.message, env)
        elif isinstance(action, MoveAction):
            self._check_expr(action.target, env, "complet")
            self._check_expr(action.destination, env, "core")
        elif isinstance(action, RetypeAction):
            self._check_expr(action.reference, env)
            if action.type_name.lower() not in BUILTIN_RELOCATORS:
                self._emit(
                    "FG110",
                    f"unknown reference type {action.type_name!r}; expected one "
                    f"of {sorted(BUILTIN_RELOCATORS)}"
                    + _suggest(action.type_name.lower(), BUILTIN_RELOCATORS),
                    action.span,
                )
        elif isinstance(action, CallAction):
            for arg in action.args:
                self._check_expr(arg, env)
            if action.name == "retryMove" and rule.event != "moveFailed":
                self._emit(
                    "FG111",
                    "'call retryMove(...)' only works inside an "
                    "'on moveFailed' rule",
                    action.span,
                )
            elif (
                action.name == "failover"
                and not action.args
                and rule.event != "coreFailed"
            ):
                self._emit(
                    "FG111",
                    "'call failover()' without a Core argument only works "
                    "inside an 'on coreFailed' rule; name the Core to fail "
                    "over from anywhere else",
                    action.span,
                )
            elif ":" not in action.name and action.name not in STDLIB_ACTIONS:
                self._emit(
                    "FG111",
                    f"unknown action {action.name!r}: not a built-in and not a "
                    f"'module:function' name; register it before running"
                    + _suggest(action.name, STDLIB_ACTIONS),
                    action.span,
                )

    # -- whole-script checks -----------------------------------------------------------

    def _check_arg_gaps(self) -> None:
        """Referencing %1 and %3 but never %2 is almost always an off-by-one."""
        if not self.arg_refs:
            return
        highest = max(self.arg_refs)
        missing = sorted(set(range(1, highest)) - set(self.arg_refs))
        if missing:
            gaps = ", ".join(f"%{i}" for i in missing)
            self._emit(
                "FG102",
                f"script references %{highest} but never {gaps}; "
                f"argument positions may be off by one",
                self.arg_refs[highest],
                severity=Severity.WARNING,
            )

    def _check_duplicates(self, effects: list[RuleEffects]) -> None:
        """A rule that repeats an earlier one, and two rules on one trigger
        moving one target to two literal Cores."""
        seen: dict[Rule, Rule] = {}
        by_trigger: dict[tuple, list[RuleEffects]] = {}
        for rule_effects in effects:
            rule = rule_effects.rule
            first = seen.setdefault(rule, rule)
            if first is not rule:
                at = f" (line {first.span.line})" if first.span else ""
                self._emit(
                    "FG107",
                    f"rule duplicates an earlier 'on {rule.event}' rule{at}",
                    rule.span,
                )
            by_trigger.setdefault(rule_effects.trigger_key, []).append(rule_effects)
        for group in by_trigger.values():
            if len(group) < 2:
                continue
            moves: dict[str, tuple[str, Rule]] = {}
            for rule_effects in group:
                for move in rule_effects.moves:
                    if not move.destination_literal:
                        continue
                    prior = moves.setdefault(move.target, (move.destination, rule_effects.rule))
                    if prior[0] != move.destination:
                        at = f" (line {prior[1].span.line})" if prior[1].span else ""
                        self._emit(
                            "FG107",
                            f"conflicts with an earlier rule{at}: same trigger "
                            f"moves the same target to {prior[0]!r} and to "
                            f"{move.destination!r}",
                            move.span,
                            severity=Severity.ERROR,
                        )


@dataclass(frozen=True)
class ArrivalCycle:
    """One strongly connected component of two or more Cores of an
    arrival-move graph: a witness ``path`` through it (``a -> b -> a``),
    the first rule that moves along the path's first edge and that move's
    span, whether one script's own graph has this same component, and
    what the rules move along the path."""

    path: str
    rule: RuleEffects
    span: Span | None
    alone: bool
    complets: tuple[str, ...]


def arrival_cycles(effects: list[RuleEffects], cores: frozenset[str]) -> list[ArrivalCycle]:
    """One finding per strongly connected component of two or more Cores
    of the arrival-move graph of ``effects`` (a script set), in Core order.

    A rule listening for arrivals at Core A that moves a complet to
    literal Core B contributes the edge A→B, and one listening everywhere
    an edge from every Core it can see (``cores``, listen scopes,
    destinations).  A component is a move storm the runtime would only
    stop by accident.  Its witness is the shortest cycle through its first
    edge that no script's own component holds, which needs two scripts;
    else, through its first edge when one script forms it alone; else a
    walk through all its Cores, which no one script's rules make either.
    """
    rules = [e for e in effects if e.event in ARRIVAL_EVENTS]
    universe = set(cores)
    for e in rules:
        universe.update(e.listen_cores or ())
        universe.update(move.destination for move in e.moves if move.destination_literal)
    #: Each edge's rules and moves, in set order, and each script's edges.
    edges: dict[tuple[str, str], list[tuple[RuleEffects, MoveEffect]]] = {}
    own: dict[int, set[tuple[str, str]]] = {}
    for e in rules:
        for move in e.moves:
            for src in universe if e.listen_cores is None else e.listen_cores:
                if move.destination_literal and src != move.destination:  # in place: no re-fire
                    edges.setdefault((src, move.destination), []).append((e, move))
                    own.setdefault(e.script_index, set()).add((src, move.destination))
    formed: list[frozenset[str]] = []
    held: set[tuple[str, str]] = set()
    for script_edges in own.values():
        for component in _components(script_edges):
            formed.append(component)
            held.update(pair for pair in script_edges if set(pair) <= component)
    succ = _adjacency(edges)
    found = []
    for component in _components(edges):
        inside = sorted(pair for pair in edges if set(pair) <= component)
        crossing = [edge for edge in inside if edge not in held]
        alone = component in formed
        stops = crossing[0] if crossing else inside[0] if alone else sorted(component)
        cycle = _walk(succ, component, stops)
        rule, move = edges[cycle[0], cycle[1]][0]
        moved = sorted({m.target for pair in zip(cycle, cycle[1:]) for _, m in edges[pair]})
        found.append(ArrivalCycle(
            " -> ".join(cycle), rule, move.span or rule.rule.span, alone, tuple(moved)
        ))
    return found


def _adjacency(edges) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for src, dest in edges:
        out.setdefault(src, set()).add(dest)
    return out


def _reach(adjacent: dict[str, set[str]], start: str) -> set[str]:
    seen, frontier = {start}, [start]
    while frontier:
        new = adjacent.get(frontier.pop(), set()) - seen
        seen |= new
        frontier.extend(new)
    return seen


def _components(edges) -> list[frozenset[str]]:
    """The strongly connected components of two or more nodes, in node order."""
    succ, pred = _adjacency(edges), _adjacency((dest, src) for src, dest in edges)
    found: list[frozenset[str]] = []
    for node in sorted(succ.keys() & pred.keys()):
        if not any(node in component for component in found):
            component = frozenset(_reach(succ, node) & _reach(pred, node))
            if len(component) > 1:
                found.append(component)
    return found


def _walk(succ: dict[str, set[str]], within: frozenset[str], stops) -> list[str]:
    """The closed walk inside ``within`` through ``stops`` in turn and back
    to the first, each leg a shortest path (successors in name order)."""
    walk = [stops[0]]
    for goal in [*stops[1:], stops[0]]:
        paths: dict[str, list[str]] = {walk[-1]: []}
        queue = [walk[-1]]
        for node in queue:
            for nxt in sorted(succ[node] & within):
                if nxt not in paths:
                    paths[nxt] = [*paths[node], nxt]
                    queue.append(nxt)
        walk += paths[goal]
    return walk
