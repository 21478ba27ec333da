"""Automatic complet recovery after a Core failure.

The :class:`RecoveryManager` listens for ``coreFailed`` verdicts on the
buses of the Cores in this process — a failure detector's, or on
``procs`` the :class:`~repro.cluster.supervisor.Supervisor`'s for a child
it gave up — and, once it trusts a verdict, restores the dead Core's
checkpointed complets on a surviving Core, repairs the cluster's
distributed pointers, and announces each revival with a
``completRecovered`` event.  It reads the deployment only through the
cluster's handles (``running_names()``, ``is_core_up``, ``can_reach``,
``admin(name)``), so the same decisions run on every backend.

Trusting a verdict is the delicate part.  Detection is per-observer, so
a partition makes *both* sides declare the other failed; acting on the
minority side would resurrect complets whose originals are alive across
the split.  The guard:

- a verdict from a Core that is itself down is ignored (a crashed Core's
  timers keep firing locally; its detector sees everyone as silent);
- when the named Core is genuinely down (crashed, deregistered, or its
  process gone), the verdict is trusted;
- otherwise (a partition), the observer's reachability component must be
  a strict majority of the running Cores — ties broken toward the
  component with the alphabetically-first Core — and must exclude the
  named Core.

Identity is the second delicate part.  A complet is restored under its
*original* identity only when nothing can contradict it: the failed Core
is really down and every running Core is reachable from the recovery
destination.  Whenever the original might still be alive (partition, or
unreachable survivors), the revival gets a *fresh* identity and its
``completRecovered`` event says ``degraded=True`` — old references are
left dangling (a typed error) rather than silently split-brained.  When
a crashed Core later revives with stale hosted copies,
:meth:`RecoveryManager.reconcile` drops the copies whose identity was
reclaimed elsewhere and forwards their trackers to the living complet;
complets the revived Core still legitimately hosts (a healed partition's
false positive) get their dangling trackers repaired instead.
"""

from __future__ import annotations

import contextlib
import logging
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from repro.core.admin import CoreAdmin
from repro.core.events import COMPLET_RECOVERED, CORE_FAILED, CORE_RECONCILED, CORE_RECOVERED
from repro.errors import CompletError, CoreError, CoreNotFoundError, FarGoError, TransportError
from repro.recovery.store import CheckpointRecord, CheckpointStore

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster
    from repro.core.core import Core
    from repro.util.ids import CompletId

logger = logging.getLogger(__name__)


@contextlib.contextmanager
def written_off(survivors: list[CoreAdmin], failed: str, relocated: dict) -> Iterator[None]:
    """Write the dead Core ``failed`` off at every survivor, around its revival.

    Location records naming it go on entry (a restore under the original
    identity is refused while the registry knows a copy).  The body
    revives its complets and fills ``relocated``, original id -> tracker
    address, for those that kept theirs.  On exit each survivor's trackers
    into the grave are re-pointed at the revival, or at a survivor that
    hosts the target (the dead Core only forwarded to it), or marked
    dangling.  An unreachable survivor is logged and skipped.
    """

    def at_each(step: Callable[[CoreAdmin], object]) -> None:
        for admin in survivors:
            try:
                step(admin)
            except (CoreError, TransportError):
                logger.warning("writing %s off at %s failed", failed, admin.target, exc_info=True)

    at_each(lambda admin: admin.locator_forget(failed))
    yield
    alive: dict = {}
    at_each(lambda admin: alive.update(admin.hosted_trackers()))
    alive.update(relocated)
    at_each(lambda admin: admin.repair_trackers(failed, alive))


def _restore(dest: CoreAdmin, data: bytes, keep_identity: bool) -> "CompletId":
    """Restore snapshot ``data`` at ``dest``: the original identity when asked
    for and free, else a fresh one."""
    if keep_identity:
        try:
            return dest.restore_complet(data, keep_identity=True)
        except CompletError:
            pass  # the registry (or dest itself) still knows a live copy
    return dest.restore_complet(data)


@dataclass(slots=True)
class RecoveryReport:
    """What one :meth:`RecoveryManager.recover_core` pass did."""

    failed: str
    destination: str
    #: New ids of complets restored under their original identity.
    restored: list[str] = field(default_factory=list)
    #: Original id -> the new id of a copy restored under a fresh identity (degraded).
    degraded: dict[str, str] = field(default_factory=dict)
    #: Original ids skipped (alive elsewhere, or their snapshot failed).
    skipped: list[str] = field(default_factory=list)
    #: Original id -> tracker address now hosting it (identity kept).
    relocated: dict = field(default_factory=dict)
    #: Post-condition check: survivor trackers for relocated complets
    #: still pointing at the dead Core after repair ("core:complet_id").
    #: Non-empty means the tracker-repair guarantee was broken.
    unrepaired: list[str] = field(default_factory=list)
    #: Cluster time the pass started / took.
    at: float = 0.0
    duration: float = 0.0

    @property
    def recovered_count(self) -> int:
        return len(self.restored) + len(self.degraded)


class RecoveryManager:
    """Restores a dead Core's checkpointed complets on survivors."""

    def __init__(
        self,
        cluster: "Cluster",
        store: CheckpointStore,
        *,
        auto_recover: bool = True,
    ) -> None:
        self.cluster = cluster
        self.store = store
        self.auto_recover = auto_recover
        self.reports: list[RecoveryReport] = []
        #: Human-readable log of recovery decisions: (time, message).
        self.log: list[tuple[float, str]] = []
        #: Cores recovered and not yet seen alive again (epoch guard —
        #: many detectors declare the same failure; one recovery runs).
        self._handled: set[str] = set()
        for core in cluster.cores.values():
            self.attach(core)

    def attach(self, core: "Core") -> None:
        """Listen for liveness verdicts published at ``core``."""
        core.events.subscribe(CORE_FAILED, self._on_core_failed)
        core.events.subscribe(CORE_RECOVERED, self._on_core_recovered)

    # -- verdict handling --------------------------------------------------------

    def _on_core_failed(self, event) -> None:
        failed = event.data.get("core")
        if not self.auto_recover or not isinstance(failed, str):
            return
        if failed in self._handled:
            return
        if not self._should_act(event.origin, failed):
            return
        self.recover_core(failed, seen_from=event.origin)

    def _on_core_recovered(self, event) -> None:
        revived = event.data.get("core")
        if isinstance(revived, str) and revived in self._handled:
            self.reconcile(revived)

    def _should_act(self, observer: str, failed: str) -> bool:
        cluster = self.cluster
        if not cluster.is_core_up(observer):
            return False  # a crashed Core's own detector still ticking
        if not cluster.is_core_up(failed):
            return True  # genuinely down: crashed, deregistered, or exited
        # Both up yet unreachable: a partition.  Act only from the
        # majority component, and never from the side that still sees
        # the accused Core.
        running = sorted(filter(cluster.is_core_up, cluster.running_names()))
        component = [name for name in running if cluster.can_reach(observer, name)]
        if failed in component:
            return False
        rest = [name for name in running if name not in component]
        if 2 * len(component) != len(running):
            return 2 * len(component) > len(running)
        # Even split: exactly one side may act; pick deterministically.
        return min(component) < min(rest)

    # -- recovery ----------------------------------------------------------------

    def _destination(self, candidates: list[str], pinned: str | None) -> str:
        """Where a revival lands: ``pinned``, else the candidate hosting the
        fewest complets, then the first by name.  On ``procs`` never the seat,
        which nothing restarts and no sweep checkpoints."""
        cluster = self.cluster
        if cluster.processes is not None:
            candidates = [name for name in candidates if name != cluster.seat.name]
        if pinned is not None:
            if pinned not in candidates:
                raise CoreNotFoundError(f"Core {pinned!r} is not a reachable survivor")
            return pinned
        if not candidates:
            raise CoreNotFoundError("no reachable survivor to restore on")
        return min(candidates, key=lambda name: (len(cluster.admin(name).complets()), name))

    def recover_core(
        self,
        failed: str,
        destination: str | None = None,
        *,
        seen_from: str | None = None,
    ) -> RecoveryReport:
        """Restore every complet last checkpointed at ``failed``.

        ``destination`` pins the Core the complets land on (default: the
        reachable survivor hosting the fewest complets).  ``seen_from``
        names the Core whose verdict triggered the pass; only survivors
        it can reach participate, which keeps a partition-side recovery
        inside its own component.
        """
        cluster = self.cluster
        started = cluster.now
        self._handled.add(failed)
        survivors = [
            name
            for name in cluster.running_names()
            if name != failed
            and cluster.is_core_up(name)
            and (seen_from is None or cluster.can_reach(seen_from, name))
        ]
        if not survivors:
            raise CoreNotFoundError(f"cannot recover Core {failed!r}: no reachable survivor")
        dest = cluster.admin(self._destination(survivors, destination))
        report = RecoveryReport(failed=failed, destination=dest.target, at=started)
        records = self.store.hosted_at(failed)
        # Originals may survive the "failure" if it is only a partition,
        # or live on a survivor this side cannot see; then a revival must
        # not claim the original identity.
        identity_safe = not cluster.is_core_up(failed) and all(
            name in survivors for name in cluster.running_names() if name != failed
        )
        handles = [cluster.admin(name) for name in survivors]
        seat = cluster.seat
        with seat.tracer.span(
            "recovery:core", category="recovery", failed=failed, records=len(records)
        ):
            with written_off(handles, failed, report.relocated):
                for record in records:
                    self._recover_record(record, dest, handles, identity_safe, report)
            # Post-condition: no survivor tracker for a relocated complet
            # may still forward into the grave.  (Checked synchronously —
            # references minted later from stale tokens are out of scope;
            # they resolve through the registry or fail typed.)
            for admin in handles:
                forwarding = admin.forwarding_to(failed)
                report.unrepaired.extend(
                    f"{admin.target}:{old_id}" for old_id in report.relocated if old_id in forwarding
                )

        report.duration = cluster.now - started
        seat.metrics.histogram("recovery.duration").observe(report.duration)
        self.reports.append(report)
        self._note(
            f"recovered core {failed}: {len(report.restored)} restored, "
            f"{len(report.degraded)} degraded, {len(report.skipped)} skipped -> {dest.target}",
            at=report.at,
        )
        return report

    def _note(self, message: str, at: float | None = None) -> None:
        self.log.append((self.cluster.now if at is None else at, message))

    def _recover_record(
        self,
        record: CheckpointRecord,
        dest: CoreAdmin,
        survivors: list[CoreAdmin],
        identity_safe: bool,
        report: RecoveryReport,
    ) -> None:
        original = record.complet_id
        if any(str(original) in admin.complets() for admin in survivors):
            # Moved (or evacuated) after its last checkpoint: alive.
            report.skipped.append(str(original))
            return
        try:
            new_id = _restore(dest, record.snapshot.to_bytes(), identity_safe)
        except FarGoError:
            logger.warning(
                "recovery of %s at %s failed", original, dest.target, exc_info=True
            )
            report.skipped.append(str(original))
            return
        degraded = new_id != original
        if not degraded:
            report.restored.append(str(new_id))
            report.relocated[original] = dest.hosted_tracker(new_id)
        else:
            report.degraded[str(original)] = str(new_id)
        self.cluster.seat.metrics.counter("recovery.complets_recovered").inc()
        dest.publish(
            COMPLET_RECOVERED,
            complet=str(new_id),
            original=str(original),
            from_core=record.host,
            at=dest.target,
            degraded=degraded,
        )

    # -- reconciliation -----------------------------------------------------------

    def reconcile(self, revived: str) -> list[str]:
        """A recovered-from Core is back: resolve identity duplication.

        Complets still hosted on ``revived`` whose identity was reclaimed
        by recovery elsewhere are *stale copies*: the recovered complet
        has been doing the work.  They are dropped, their trackers
        forwarded to the living copy, and a ``coreReconciled`` event
        reports what was dropped.  Returns the dropped ids.

        The complets ``revived`` still legitimately hosts get the inverse
        treatment: a degraded recovery wrote them off — survivors marked
        their trackers dangling and forgot their registry entries — so
        once the Core turns out alive, those trackers are re-pointed at
        the living originals and the locations republished.
        """
        self._handled.discard(revived)
        cluster = self.cluster
        if revived not in cluster.running_names() or not cluster.is_core_up(revived):
            return []
        peers = [
            cluster.admin(name)
            for name in cluster.running_names()
            if name != revived and cluster.is_core_up(name) and cluster.can_reach(revived, name)
        ]
        living: dict = {}
        for peer in reversed(peers):  # the first peer hosting a complet is its home
            living.update(peer.hosted_trackers())
        here = cluster.admin(revived)
        homes = {cid: living[cid] for cid in here.hosted_trackers() if cid in living}
        # Inverse repair: complets this Core still hosts were declared
        # dead by a degraded recovery — un-dangle the cluster's trackers
        # and restore the registry entries survivors forgot.
        hosted = here.reconcile(homes)
        repaired = sum(peer.repair_revived(hosted) for peer in peers)
        dropped = [str(complet_id) for complet_id in homes]
        if dropped or repaired:
            self._note(
                f"reconciled revived core {revived}: dropped {len(dropped)} "
                f"stale copies, repaired {repaired} trackers"
            )
            here.publish(CORE_RECONCILED, core=revived, dropped=dropped, repaired=repaired)
        return dropped

    # -- manual restore (shell / scripts) ------------------------------------------

    def restore_complet(self, complet_id_str: str, destination: str | None = None) -> str:
        """Restore one stored checkpoint by id; returns the live complet's id.

        The original identity is reclaimed when nothing contradicts it,
        otherwise the revival gets a fresh identity — same rule as
        automatic recovery, applied to a single complet.
        """
        record = self.store.by_str(complet_id_str)
        if record is None:
            raise CompletError(f"no checkpoint stored for complet {complet_id_str!r}")
        cluster = self.cluster
        candidates = [name for name in cluster.running_names() if cluster.is_core_up(name)]
        dest = cluster.admin(self._destination(candidates, destination))
        alive = any(str(record.complet_id) in cluster.admin(name).complets() for name in candidates)
        new_id = _restore(dest, record.snapshot.to_bytes(), not alive)
        self._note(f"restored {complet_id_str} as {new_id} at {dest.target}")
        return str(new_id)

    def __repr__(self) -> str:
        return (
            f"<RecoveryManager auto={self.auto_recover} "
            f"handled={sorted(self._handled)} reports={len(self.reports)}>"
        )
