"""Checkpoint policies: when and how protected complets are snapshotted.

A complet under protection is checkpointed with the persistence
machinery (:func:`repro.core.persistence.snapshot` — the stream is
exactly "what would move", with stamp references preserved) into the
cluster's :class:`~repro.recovery.store.CheckpointStore`:

- **immediately** when protection starts;
- **every** ``interval`` virtual seconds, when the policy sets one;
- **on arrival**, when the policy asks for it — the complet is
  re-checkpointed right after every migration, so the stored host is
  never stale and recovery restores it where it last lived.

Each pass also checkpoints the complet's *local pull-group*: complets
reachable over ``pull``-typed references hosted on the same Core move
with it, so they must be captured and restored with it too.  (Remote
group members are captured by their own host's pass; ``duplicate``
references are *not* followed — fetching a fresh clone is a remote side
effect, not a checkpoint.)
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from repro.complet.anchor import Anchor
from repro.complet.closure import compute_closure
from repro.complet.relocators import Pull
from repro.complet.stub import Stub, stub_meta, stub_target_id, stub_tracker
from repro.core import persistence
from repro.core.events import COMPLET_ARRIVED
from repro.errors import FarGoError
from repro.recovery.store import CheckpointRecord, CheckpointStore
from repro.sim.scheduler import Timer
from repro.util.ids import CompletId

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster
    from repro.core.core import Core

logger = logging.getLogger(__name__)


def local_pull_group(host: "Core", anchor: Anchor) -> list[Anchor]:
    """``anchor`` plus local complets pulled along when it moves."""
    members = [anchor]
    seen = {anchor.complet_id}
    queue = [anchor]
    while queue:
        for stub in compute_closure(queue.pop()).outgoing:
            if not isinstance(stub_meta(stub).get_relocator(), Pull):
                continue
            target_id = stub_target_id(stub)
            if target_id in seen:
                continue
            member = host.repository.get(target_id)
            if member is None:
                continue
            seen.add(target_id)
            members.append(member)
            queue.append(member)
    return members


def checkpoint_group(
    host: "Core", anchor: Anchor
) -> tuple[tuple[CompletId, ...], list[CheckpointRecord]]:
    """Snapshot ``anchor``'s local pull-group at ``host``: its ids and records.

    The one way a checkpoint is taken, at the Core that hosts it: the
    child-process sweep in :mod:`repro.cluster.launch` calls it, and the
    cluster-wide :class:`CheckpointManager` through the ``checkpoint_group``
    admin operation.  The caller stores the records; a member whose
    snapshot fails is logged and left out, the rest of the group is still
    captured.
    """
    members = local_pull_group(host, anchor)
    group = tuple(member.complet_id for member in members)
    taken = host.metrics.counter("checkpoint.taken")
    records = []
    with host.tracer.span(
        "checkpoint", category="recovery", complet=str(anchor.complet_id), members=len(members)
    ):
        for member in members:
            try:
                snap = persistence.snapshot(host, member)
            except FarGoError:
                logger.warning(
                    "checkpoint of %s at %s failed", member.complet_id, host.name, exc_info=True
                )
                continue
            records.append(CheckpointRecord(snap, host.name, group))
            taken.inc()
    return group, records


def restore_record(
    core: "Core", snapshot: persistence.Snapshot, *, keep_identity: bool = True
) -> CompletId:
    """Restore a checkpoint's ``snapshot`` on ``core``; the revival's id.

    The one way a checkpoint comes back, at the Core it lands on (the
    ``restore_complet`` admin operation and a reborn child): the sanitizer
    stamps it and its location is published.  ``keep_identity`` reclaims
    the original identity, refused with a typed error while ``core``
    hosts it or the location registry knows a live copy.
    """
    if core.sanitizer is not None:
        core.sanitizer.record(
            "restore", str(snapshot.original_id), core=core, detail=core.name, actor="recovery"
        )
    stub = persistence.restore(core, snapshot, keep_identity=keep_identity)
    core.locator.publish(stub_target_id(stub), stub_tracker(stub).address)
    return stub_target_id(stub)


@dataclass(frozen=True, slots=True)
class CheckpointPolicy:
    """When a protected complet gets (re-)checkpointed.

    The default policy takes one checkpoint when protection starts and
    never again; add ``interval`` for periodic passes and/or
    ``on_arrival=True`` to re-checkpoint after every migration.
    """

    interval: float | None = None
    on_arrival: bool = False


@dataclass(slots=True)
class _Protection:
    complet_id: CompletId
    policy: CheckpointPolicy
    timer: Timer | None = None


class CheckpointManager:
    """Tracks protected complets and runs their checkpoint policies.

    It finds a complet's host and takes its checkpoint through the
    cluster's handles, so it runs on every backend.  It hears arrivals
    only at the Cores of this process: on ``procs`` a child's arrivals are
    checkpointed by that child's own sweep.
    """

    def __init__(self, cluster: "Cluster", store: CheckpointStore | None = None) -> None:
        self.cluster = cluster
        self.store = store if store is not None else CheckpointStore()
        self._protected: dict[CompletId, _Protection] = {}
        self._by_str: dict[str, CompletId] = {}
        #: Checkpoint passes that found no reachable host (crash window).
        self.skipped = 0
        for core in cluster.cores.values():
            self.attach(core)

    def attach(self, core: "Core") -> None:
        """Listen for arrivals at ``core`` (on-arrival policies)."""
        core.events.subscribe(COMPLET_ARRIVED, self._on_arrival)

    # -- protection ------------------------------------------------------------

    def protect(
        self, target: Stub | CompletId, policy: CheckpointPolicy | None = None
    ) -> CompletId:
        """Put a complet under ``policy``; takes the first checkpoint now."""
        complet_id = stub_target_id(target) if isinstance(target, Stub) else target
        policy = policy if policy is not None else CheckpointPolicy()
        self.unprotect(complet_id)
        protection = _Protection(complet_id, policy)
        if policy.interval is not None:
            protection.timer = self.cluster.scheduler.call_every(
                policy.interval, self._checkpoint_quietly, complet_id
            )
        self._protected[complet_id] = protection
        self._by_str[str(complet_id)] = complet_id
        self.checkpoint(complet_id)
        return complet_id

    def unprotect(self, complet_id: CompletId) -> None:
        protection = self._protected.pop(complet_id, None)
        if protection is not None:
            self._by_str.pop(str(complet_id), None)
            if protection.timer is not None:
                protection.timer.cancel()

    def policy_of(self, complet_id: CompletId) -> CheckpointPolicy | None:
        protection = self._protected.get(complet_id)
        return protection.policy if protection is not None else None

    def protected_ids(self) -> list[CompletId]:
        return sorted(self._protected, key=str)

    def is_protected(self, complet_id: CompletId) -> bool:
        return complet_id in self._protected

    # -- checkpointing ----------------------------------------------------------

    def checkpoint(self, complet_id: CompletId, *, at: str | None = None) -> bool:
        """Checkpoint ``complet_id`` (and its local pull-group) right now.

        Returns False — counting the pass as skipped — when no single
        reachable running Core hosts the complet: during a crash window
        there is nothing safe to snapshot, and finding the identity on
        *two* Cores (a revival race) means neither copy is authoritative.
        ``at`` names the authoritative host when the caller knows it
        (mid-move, the departing copy still exists on the source).
        """
        cluster, complet = self.cluster, str(complet_id)
        hosts = [
            name
            for name in cluster.running_names()
            if (at is None or name == at)
            and cluster.is_core_up(name)
            and complet in cluster.admin(name).complets()
        ]
        if len(hosts) != 1:
            self.skipped += 1
            return False
        group, records = cluster.admin(hosts[0]).checkpoint_group(complet)
        for record in records:
            self.store.put(record)
        self.skipped += len(group) - len(records)
        return True

    def _checkpoint_quietly(self, complet_id: CompletId, at: str | None = None) -> None:
        # Timer callback: a failing pass must not abort the clock sweep.
        try:
            self.checkpoint(complet_id, at=at)
        except FarGoError:
            logger.warning("periodic checkpoint of %s failed", complet_id, exc_info=True)
            self.skipped += 1

    # -- event hooks -------------------------------------------------------------

    def _on_arrival(self, event) -> None:
        complet_id = self._by_str.get(event.data.get("complet", ""))
        if complet_id is None:
            return
        protection = self._protected.get(complet_id)
        if protection is not None and protection.policy.on_arrival:
            # The publishing Core just installed the arrival: it is the
            # authoritative host even while the departing copy lingers.
            self._checkpoint_quietly(complet_id, at=event.origin)

    def __repr__(self) -> str:
        return (
            f"<CheckpointManager {len(self._protected)} protected, "
            f"{len(self.store)} stored>"
        )
