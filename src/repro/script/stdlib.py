"""Built-in action commands available to every script via ``call``.

These are the commands an administrator reaches for beyond the core
``move``/``retype``/``log`` actions.  User-defined commands are added
with :meth:`~repro.script.interpreter.ScriptEngine.register_action` or
loaded on demand from a ``module:function`` name.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING

from repro.complet.stub import Stub
from repro.errors import FarGoError, ScriptRuntimeError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.script.interpreter import ScriptContext, ScriptEngine

logger = logging.getLogger(__name__)

#: Names every engine gets out of the box (the static analyzer resolves
#: ``call`` actions against this set).
STDLIB_ACTIONS = frozenset(
    {
        "collectTrackers",
        "shutdownCore",
        "colocate",
        "bindName",
        "retryMove",
        "failover",
        "restore",
    }
)


def register_stdlib(engine: "ScriptEngine") -> None:
    engine.register_action("collectTrackers", _collect_trackers)
    engine.register_action("shutdownCore", _shutdown_core)
    engine.register_action("colocate", _colocate)
    engine.register_action("bindName", _bind_name)
    engine.register_action("retryMove", _retry_move)
    engine.register_action("failover", _failover)
    engine.register_action("restore", _restore)


def _collect_trackers(ctx: "ScriptContext") -> None:
    """``call collectTrackers()`` — run tracker GC on every running Core."""
    collected = ctx.engine.cluster.collect_all_trackers()
    ctx.engine.log.append(f"collected {collected} trackers")


def _shutdown_core(ctx: "ScriptContext", core_name: object) -> None:
    """``call shutdownCore(name)`` — gracefully shut a Core down."""
    ctx.engine.cluster.shutdown_core(str(core_name))


def _colocate(ctx: "ScriptContext", mover: object, anchor_point: object) -> None:
    """``call colocate(a, b)`` — move complet ``a`` to ``b``'s Core."""
    if not isinstance(anchor_point, Stub):
        raise ScriptRuntimeError("colocate expects complet references")
    destination = ctx.engine.cluster.locate(anchor_point)
    ctx.engine.move([mover], destination, ctx.event)


def _bind_name(ctx: "ScriptContext", name: object, stub: object) -> None:
    """``call bindName(name, complet)`` — bind at the engine's home Core."""
    if not isinstance(stub, Stub):
        raise ScriptRuntimeError("bindName expects a complet reference")
    ctx.engine.core.bind(str(name), stub, replace=True)


def _retry_move(
    ctx: "ScriptContext", delay: object = 0, destination: object = None
) -> None:
    """``call retryMove([delaySeconds[, destination]])`` — re-issue a failed move.

    Only meaningful inside an ``on moveFailed`` rule: the complet and the
    original destination are read from the firing event.  With a positive
    ``delay`` the retry is scheduled that many virtual seconds later —
    long enough, typically, for a transient outage to heal.  An explicit
    ``destination`` overrides the one from the event (retry elsewhere).
    A retry that fails again publishes another ``moveFailed``, so a rule
    combining ``retryMove`` with a delay keeps trying until it lands.
    """
    event = ctx.event
    if event is None or "complet" not in event.data:
        raise ScriptRuntimeError(
            "retryMove only works inside an 'on moveFailed' rule"
        )
    complet = str(event.data["complet"])
    target = str(destination) if destination is not None else str(event.data["destination"])
    engine = ctx.engine

    def fire() -> None:
        try:
            engine.move([complet], target, event)
            engine.log.append(f"retried move of {complet} to {target}")
        except FarGoError as exc:
            engine.log.append(f"retryMove of {complet} to {target} failed: {exc}")
            logger.warning("retryMove of %s to %s failed", complet, target, exc_info=True)

    seconds = float(delay) if isinstance(delay, (int, float)) else 0.0
    if seconds > 0:
        engine.core.scheduler.call_after(seconds, fire)
    else:
        fire()


def _recovery_of(ctx: "ScriptContext"):
    recovery = getattr(ctx.engine.cluster, "recovery", None)
    if recovery is None:
        raise ScriptRuntimeError(
            "recovery is not enabled on this cluster; call "
            "cluster.enable_recovery() before running failover/restore actions"
        )
    return recovery


def _failover(ctx: "ScriptContext", core_name: object = None) -> None:
    """``call failover([core])`` — recover a failed Core's complets.

    Without an argument the failed Core is read from the firing event,
    so the argless form only works inside an ``on coreFailed`` rule —
    the canonical reliability pairing::

        on coreFailed firedby $c do
            call failover()
        end

    Every complet last checkpointed on the failed Core is restored on a
    surviving Core (see :class:`repro.recovery.RecoveryManager` for the
    identity rules); the pass is idempotent, so many detectors firing
    the rule cost one recovery.
    """
    recovery = _recovery_of(ctx)
    if core_name is None:
        event = ctx.event
        if event is None or "core" not in event.data:
            raise ScriptRuntimeError(
                "failover() without a Core argument only works inside an "
                "'on coreFailed' rule"
            )
        core_name = event.data["core"]
    failed = str(core_name)
    if failed in recovery._handled:
        ctx.engine.log.append(f"failover of {failed} already handled")
        return
    report = recovery.recover_core(failed)
    ctx.engine.log.append(
        f"failover of {failed}: {report.recovered_count} complets "
        f"-> {report.destination}"
    )


def _restore(
    ctx: "ScriptContext", complet: object, destination: object = None
) -> None:
    """``call restore(completId[, core])`` — revive one stored checkpoint.

    ``completId`` names a checkpointed complet (full or short id form);
    ``core`` pins the Core it lands on (default: the emptiest one).
    """
    recovery = _recovery_of(ctx)
    target = str(destination) if destination is not None else None
    new_id = recovery.restore_complet(str(complet), destination=target)
    ctx.engine.log.append(f"restored {complet} as {new_id}")
