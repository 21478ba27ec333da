"""Interpreter for the layout scripting language.

A :class:`ScriptEngine` is attached to a cluster at one *home* Core (the
administrator's seat).  Running a script evaluates its top-level
bindings and activates its rules:

- **Core-event rules** (``shutdown``, ``completArrived``, ...) subscribe
  the engine — over the network — at every Core named by ``listenAt``
  (default: all running Cores).
- **Profile rules** (``methodInvokeRate(3) from A to B``) install a
  threshold watch at the Core where the measurement lives (for
  invocation rates: the Core hosting the *source* complet) and subscribe
  to the resulting monitor event.  When the watched complet migrates,
  the engine re-installs the watch at its new host, so the rule follows
  the complet — the migration-surviving listener property of §4.2.

Action commands beyond the built-ins are registered with
:meth:`ScriptEngine.register_action` or auto-loaded from a
``module:function`` name, the analogue of the paper's user-defined
(Java) action classes loaded upon invocation.
"""

from __future__ import annotations

import importlib
import logging
from contextlib import ExitStack
from dataclasses import dataclass, field
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.complet.relocators import relocator_from_name
from repro.complet.stub import Stub, stub_target_id
from repro.core.admin import CoreAdmin
from repro.core.core import Core
from repro.core.events import (
    CALL_RETRIED,
    COMPLET_ARRIVED,
    COMPLET_DEPARTED,
    COMPLET_RECOVERED,
    COMPLET_RESTORED,
    CORE_FAILED,
    CORE_RECONCILED,
    CORE_RECOVERED,
    CORE_SHUTDOWN,
    CORE_SUSPECTED,
    MOVE_COMPLETED,
    MOVE_FAILED,
    ONEWAY_FAILED,
    REFERENCE_RETYPED,
    Event,
)
from repro.errors import CoreNotFoundError, FarGoError, ScriptRuntimeError, UnknownActionError
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
    VarRef,
)
from repro.script.effects import render_expr
from repro.script.parser import parse

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster

logger = logging.getLogger(__name__)

#: Script-facing names of Core events.
CORE_EVENTS = {
    "shutdown": CORE_SHUTDOWN,
    "coreShutdown": CORE_SHUTDOWN,
    "completArrived": COMPLET_ARRIVED,
    "completDeparted": COMPLET_DEPARTED,
    "referenceRetyped": REFERENCE_RETYPED,
    "moveFailed": MOVE_FAILED,
    "moveCompleted": MOVE_COMPLETED,
    "callRetried": CALL_RETRIED,
    "onewayFailed": ONEWAY_FAILED,
    "coreSuspected": CORE_SUSPECTED,
    "coreFailed": CORE_FAILED,
    "coreRecovered": CORE_RECOVERED,
    "completRecovered": COMPLET_RECOVERED,
    "completRestored": COMPLET_RESTORED,
    "coreReconciled": CORE_RECONCILED,
}

#: Script-facing aliases of profiling services.
SERVICE_ALIASES = {
    "methodInvokeRate": "invocationRate",
    "invocationRate": "invocationRate",
    "byteRate": "byteRate",
    "bandwidth": "bandwidth",
    "latency": "latency",
    "completLoad": "completLoad",
    "completSize": "completSize",
    "coreMemory": "coreMemory",
    "cpuLoad": "cpuLoad",
    "servedRate": "servedRate",
    "linkBytes": "linkBytes",
    "invocationCount": "invocationCount",
    "trackerLoad": "trackerLoad",
}
#: Services that measure an edge between two complets (``from`` and ``to``).
PAIR_SERVICES = {"invocationRate", "byteRate", "invocationCount"}
#: Services that measure a link to a peer Core (``to <core>``).
PEER_SERVICES = {"bandwidth", "latency", "linkBytes"}
#: Services that measure one complet (``from <complet>``).
COMPLET_SERVICES = {"completSize", "servedRate"}


@dataclass(slots=True)
class ScriptContext:
    """What a user-defined action command receives."""

    engine: "ScriptEngine"
    env: dict
    event: Event | None


@dataclass(slots=True)
class _ActiveRule:
    rule: Rule
    #: How the layout journal names the rule: script label, line, head.
    label: str
    #: Its script's positional arguments (``%1``, ``%2``...).
    args: tuple
    #: (core, callback_id) handles from subscribe_remote.
    subscriptions: list[tuple[str, int]] = field(default_factory=list)
    #: (core_name, watch_id) pairs for installed threshold watches.
    watches: list[tuple[str, int]] = field(default_factory=list)
    #: Scheduler timers (``on timer(...)`` rules).
    timers: list = field(default_factory=list)
    fired_count: int = 0


class ScriptEngine:
    """Runs layout scripts against a cluster."""

    def __init__(self, cluster: "Cluster", home: str | None = None) -> None:
        self.cluster = cluster
        self.core: Core = cluster.core(home) if home is not None else cluster.seat
        #: ``log <expr>`` output, in order.
        self.log: list[str] = []
        self._globals: dict[str, object] = {}
        self._args: tuple = ()
        self._actions: dict[str, Callable[..., object]] = {}
        self._active: list[_ActiveRule] = []
        #: The label of the rule whose actions are running, if one is.
        self._firing: str | None = None
        #: Scripts this engine has activated, as ``(Script, label, args)``
        #: records — :meth:`Cluster.analyze` checks them.
        self.installed: list[tuple[Script, str, tuple]] = []
        cluster.register_engine(self)
        from repro.script.stdlib import register_stdlib

        register_stdlib(self)

    # -- action registry -------------------------------------------------------------

    def register_action(self, name: str, fn: Callable[..., object]) -> None:
        """Register a user-defined action command callable as ``call name(...)``.

        The callable receives a :class:`ScriptContext` followed by the
        evaluated arguments.
        """
        self._actions[name] = fn

    def _resolve_action(self, name: str) -> Callable[..., object]:
        fn = self._actions.get(name)
        if fn is not None:
            return fn
        if ":" in name:
            # Auto-load "package.module:function", the paper's dynamic
            # loading of user-defined action classes.
            module_name, _, attr = name.partition(":")
            try:
                fn = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError) as exc:
                raise UnknownActionError(f"cannot load action {name!r}: {exc}") from exc
            self._actions[name] = fn
            return fn
        raise UnknownActionError(
            f"unknown action {name!r}; register it or use module:function"
        )

    # -- running scripts ------------------------------------------------------------------

    def run(self, source: str, args: tuple | list = ()) -> Script:
        """Parse and activate ``source`` with positional ``args`` (%1, %2...)."""
        script = parse(source)
        return self.run_script(script, args)

    def run_script(self, script: Script, args: tuple | list = ()) -> Script:
        self._args = tuple(args)
        self.installed.append(
            (script, f"<{self.core.name}:script#{len(self.installed) + 1}>", self._args)
        )
        for statement in script.statements:
            if isinstance(statement, Assignment):
                self._globals[statement.name] = self._eval(statement.value, self._globals)
            else:
                self._activate(statement)
        return script

    def stop(self) -> None:
        """Deactivate every rule: unsubscribe and remove all watches."""
        for active in self._active:
            for core_name, callback_id in active.subscriptions:
                self.core.events.unsubscribe_remote((core_name, callback_id))
            for core_name, watch_id in active.watches:
                try:
                    CoreAdmin(self.core, core_name).unwatch(watch_id)
                except FarGoError:
                    logger.debug("unwatch at %s failed", core_name, exc_info=True)
            for timer in active.timers:
                timer.cancel()
        self._active.clear()
        self.installed.clear()

    @property
    def active_rules(self) -> list[_ActiveRule]:
        return list(self._active)

    # -- rule activation -----------------------------------------------------------------------

    def _activate(self, rule: Rule) -> None:
        line = f":{rule.span.line}" if rule.span is not None else ""
        _, label, args = self.installed[-1]
        active = _ActiveRule(rule, f"{label}{line} {_describe_rule(rule)}", args)
        self._active.append(active)
        if rule.event == "timer":
            self._activate_timer(rule, active)
        elif rule.event in CORE_EVENTS:
            self._activate_core_event(rule, active)
        else:
            self._activate_profile_event(rule, active)

    def _activate_timer(self, rule: Rule, active: _ActiveRule) -> None:
        """``on timer(interval) do ... end`` — periodic administration.

        An extension beyond §4.3 (periodic policies such as scripted
        checkpoints need no measurable trigger); the interval is in
        virtual seconds.
        """
        if not rule.event_args:
            raise ScriptRuntimeError("timer rules need an interval argument")
        interval = float(self._eval_number(rule.event_args[0]))
        if interval <= 0:
            raise ScriptRuntimeError(f"timer interval must be positive, got {interval}")

        def fire() -> None:
            event = Event(
                name="timer",
                origin=self.core.name,
                time=self.core.scheduler.clock.now(),
                data={"interval": interval},
            )
            self._fire(rule, active, event)

        timer = self.core.scheduler.call_every(interval, fire)
        active.timers.append(timer)

    def _listen_cores(self, rule: Rule) -> list[str]:
        if rule.listen_at is None:
            return self.cluster.running_names()
        value = self._eval(rule.listen_at, self._globals)
        if isinstance(value, str):
            return [value]
        if isinstance(value, (list, tuple)):
            return [str(v) for v in value]
        raise ScriptRuntimeError(f"listenAt expects a core name or list, got {value!r}")

    def _activate_core_event(self, rule: Rule, active: _ActiveRule) -> None:
        event_name = CORE_EVENTS[rule.event]

        def callback(event: Event) -> None:
            self._fire(rule, active, event)

        for core_name in self._listen_cores(rule):
            handle = self.core.events.subscribe_remote(core_name, event_name, callback)
            active.subscriptions.append(handle)

    def _activate_profile_event(self, rule: Rule, active: _ActiveRule) -> None:
        service = SERVICE_ALIASES.get(rule.event)
        if service is None:
            raise ScriptRuntimeError(
                f"unknown event {rule.event!r}: not a Core event and not a "
                f"profiling service"
            )
        if not rule.event_args:
            raise ScriptRuntimeError(
                f"profiled event {rule.event!r} needs a threshold argument"
            )
        threshold = float(self._eval_number(rule.event_args[0]))
        op = ">"
        if len(rule.event_args) > 1:
            op = str(self._eval(rule.event_args[1], self._globals))
        interval = 1.0
        if rule.every is not None:
            interval = float(self._eval_number(rule.every))
        params = self._profile_params(service, rule)
        event_name = f"script:{id(active)}:{service}"

        def callback(event: Event) -> None:
            self._fire(rule, active, event)

        watch_core = self._watch_core(service, rule, params)
        self._install_watch(
            active, watch_core, service, op, threshold, interval, event_name, params
        )
        # The subscription pattern is the unique event name, so the rule
        # keeps matching after the watch is re-installed elsewhere.
        self._subscribe_watch(active, watch_core, event_name, callback)
        if service in PAIR_SERVICES:
            self._follow_source(rule, active, service, op, threshold, interval,
                                event_name, params, callback)

    def _install_watch(
        self,
        active: _ActiveRule,
        core_name: str,
        service: str,
        op: str,
        threshold: float,
        interval: float,
        event_name: str,
        params: dict,
    ) -> None:
        watch_id = CoreAdmin(self.core, core_name).watch(
            service, op, threshold, interval=interval, event_name=event_name, **params
        )
        active.watches.append((core_name, watch_id))

    def _subscribe_watch(
        self, active: _ActiveRule, core_name: str, event_name: str, callback
    ) -> None:
        handle = self.core.events.subscribe_remote(core_name, event_name, callback)
        active.subscriptions.append(handle)

    def _watch_core(self, service: str, rule: Rule, params: dict) -> str:
        if rule.listen_at is not None:
            cores = self._listen_cores(rule)
            return cores[0]
        if service in PAIR_SERVICES and rule.source is not None:
            value = self._eval(rule.source, self._globals)
            if isinstance(value, Stub):
                return self.cluster.locate(value)
        return self.core.name

    def _profile_params(self, service: str, rule: Rule) -> dict:
        def complet_id(expr: Expr | None) -> str | None:
            if expr is None:
                return None
            value = self._eval(expr, self._globals)
            return _as_complet_id(value)

        if service in PAIR_SERVICES:
            src = complet_id(rule.source)
            dst = complet_id(rule.target)
            if src is None or dst is None:
                raise ScriptRuntimeError(
                    f"{service} rules need 'from <complet> to <complet>' clauses"
                )
            return {"src": src, "dst": dst}
        if service in PEER_SERVICES:
            if rule.target is None:
                raise ScriptRuntimeError(f"{service} rules need a 'to <core>' clause")
            return {"peer": str(self._eval(rule.target, self._globals))}
        if service in COMPLET_SERVICES:
            src = complet_id(rule.source)
            if src is None:
                raise ScriptRuntimeError(f"{service} rules need a 'from <complet>' clause")
            return {"complet": src}
        return {}

    def _follow_source(
        self,
        rule: Rule,
        active: _ActiveRule,
        service: str,
        op: str,
        threshold: float,
        interval: float,
        event_name: str,
        params: dict,
        callback,
    ) -> None:
        """Re-install the watch when the watched source complet migrates."""
        source_id = params["src"]

        def on_arrival(event: Event) -> None:
            if event.data.get("complet") != source_id:
                return
            new_host = event.origin
            installed = [(c, w) for (c, w) in active.watches]
            for core_name, watch_id in installed:
                try:
                    CoreAdmin(self.core, core_name).unwatch(watch_id)
                except FarGoError:
                    logger.debug("unwatch at %s failed", core_name, exc_info=True)
            active.watches.clear()
            self._install_watch(
                active, new_host, service, op, threshold, interval, event_name, params
            )
            self._subscribe_watch(active, new_host, event_name, callback)

        for core_name in self.cluster.running_names():
            handle = self.core.events.subscribe_remote(
                core_name, COMPLET_ARRIVED, on_arrival
            )
            active.subscriptions.append(handle)

    # -- firing -----------------------------------------------------------------------------------

    def _fire(self, rule: Rule, active: _ActiveRule, event: Event) -> None:
        active.fired_count += 1
        tracer = self.core.tracer
        sanitizer = self.core.sanitizer
        with ExitStack() as stack:
            if sanitizer is not None:
                # Each firing is its own happens-before context, forked
                # from the event's origin: two rules reacting to one
                # frontier run concurrently as far as layout operations
                # are concerned, which is what the sanitizer checks.
                stack.enter_context(
                    sanitizer.rule_context(
                        f"rule(on {rule.event})@{self.core.name}", event.origin
                    )
                )
            if tracer.enabled:
                # The rule's actions run under one script span, so whatever
                # they trigger (moves, retypes, calls) stays in the trace of
                # the event that fired the rule.
                stack.enter_context(
                    tracer.span(
                        f"script:{rule.event}", category="script", trigger=event.name
                    )
                )
            # A rule reads %n from its own script's arguments, not the last run's.
            outer = self._firing, self._args
            self._firing, self._args = active.label, active.args
            try:
                self._run_rule(rule, event)
            finally:
                self._firing, self._args = outer

    def _run_rule(self, rule: Rule, event: Event) -> None:
        env = dict(self._globals)
        if rule.fired_by is not None:
            env[rule.fired_by] = event.data.get("core", event.origin)
        # The firing event is always available to actions as $event.
        env["event"] = event
        try:
            for action in rule.actions:
                self._run_action(action, env, event)
        except FarGoError:
            logger.warning("script rule on %s failed", rule.event, exc_info=True)

    def _run_action(self, action: Action, env: dict, event: Event | None) -> None:
        if isinstance(action, AssignAction):
            env[action.name] = self._eval(action.value, env)
            return
        if isinstance(action, LogAction):
            message = str(self._eval(action.message, env))
            self.log.append(message)
            logger.info("script log: %s", message)
            return
        if isinstance(action, MoveAction):
            self._run_move(action, env, event)
            return
        if isinstance(action, RetypeAction):
            reference = self._eval(action.reference, env)
            if not isinstance(reference, Stub):
                raise ScriptRuntimeError(
                    f"retype expects a complet reference, got {reference!r}"
                )
            Core.get_meta_ref(reference).set_relocator(
                relocator_from_name(action.type_name)
            )
            return
        if isinstance(action, CallAction):
            fn = self._resolve_action(action.name)
            args = [self._eval(a, env) for a in action.args]
            fn(ScriptContext(self, env, event), *args)
            return
        raise ScriptRuntimeError(f"unknown action node {action!r}")

    def _run_move(self, action: MoveAction, env: dict, event: Event | None) -> None:
        destination = self._eval(action.destination, env)
        if not isinstance(destination, str):
            raise ScriptRuntimeError(f"move destination must be a core name, got {destination!r}")
        targets = self._eval(action.target, env)
        if not isinstance(targets, (list, tuple)):
            targets = [targets]
        self.move(targets, destination, event)

    def move(self, targets: list | tuple, destination: str, event: Event | None = None) -> None:
        """Move ``targets`` (stubs or complet ids) to ``destination`` as one
        plan through the layout executor (:func:`repro.analysis.layout.execute`),
        journaled under the rule firing, if one is; raises the typed error
        of a refused plan or of the step that failed."""
        from repro.analysis.layout import execute, trigger_of
        from repro.analysis.plan import MovePlan, PlannedMove

        handles: dict[str, Stub] = {}
        steps = []
        for target in targets:
            if isinstance(target, Stub):
                complet = str(stub_target_id(target))
                handles[complet] = target
            elif isinstance(target, str):
                complet = target
            else:
                raise ScriptRuntimeError(f"cannot move {target!r}")
            steps.append(PlannedMove(complet, destination))
        rule = self._firing or f"<{self.core.name}:script>"
        execute(
            self.cluster,
            MovePlan(tuple(steps), name=rule),
            handles=handles,
            via=self.core.name,
            trigger=trigger_of(event) if event is not None else "caller",
            solver=rule,
        ).raise_failure()

    def _find_host(self, complet_id: str) -> str:
        try:
            return self.cluster.find_host(complet_id)
        except CoreNotFoundError as exc:
            raise ScriptRuntimeError(str(exc)) from None

    # -- expression evaluation ------------------------------------------------------------------------

    def _eval(self, expr: Expr, env: dict) -> object:
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, VarRef):
            if expr.name not in env:
                raise ScriptRuntimeError(f"undefined variable ${expr.name}")
            return env[expr.name]
        if isinstance(expr, ArgRef):
            if not 1 <= expr.index <= len(self._args):
                raise ScriptRuntimeError(
                    f"script argument %{expr.index} missing "
                    f"({len(self._args)} given)"
                )
            return self._args[expr.index - 1]
        if isinstance(expr, Index):
            base = self._eval(expr.base, env)
            try:
                return base[expr.index]  # type: ignore[index]
            except (TypeError, IndexError, KeyError) as exc:
                raise ScriptRuntimeError(f"cannot index {base!r}[{expr.index}]") from exc
        if isinstance(expr, ListExpr):
            return [self._eval(item, env) for item in expr.items]
        if isinstance(expr, CompletsIn):
            core_name = str(self._eval(expr.core, env))
            return CoreAdmin(self.core, core_name).complets()
        if isinstance(expr, CoreOf):
            value = self._eval(expr.complet, env)
            if isinstance(value, Stub):
                return self.cluster.locate(value)
            if isinstance(value, str):
                return self._find_host(value)
            raise ScriptRuntimeError(f"coreOf expects a complet, got {value!r}")
        raise ScriptRuntimeError(f"unknown expression node {expr!r}")

    def _eval_number(self, expr: Expr) -> float:
        value = self._eval(expr, self._globals)
        if isinstance(value, (int, float)):
            return float(value)
        raise ScriptRuntimeError(f"expected a number, got {value!r}")


def _describe_rule(rule: Rule) -> str:
    """A rule's head as written: ``on methodInvokeRate(2) from $c to $s1``."""
    head = f"on {rule.event}"
    if rule.event_args:
        head += "(" + ", ".join(str(render_expr(arg)) for arg in rule.event_args) + ")"
    for clause, expr in (("from", rule.source), ("to", rule.target)):
        if expr is not None:
            head += f" {clause} {render_expr(expr)}"
    return head


def _as_complet_id(value: object) -> str:
    if isinstance(value, Stub):
        return str(stub_target_id(value))
    return str(value)
