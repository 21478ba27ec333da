"""Checkpoints: every Core sweeps what it hosts into the checkpoint store.

One :class:`Checkpointer` runs at each Core of a deployment that
recovers: :meth:`~repro.cluster.cluster.Cluster.enable_recovery` starts
one at every Core of its process, and on ``procs`` each child's
:func:`~repro.cluster.launch.serve` starts its own.  A complet is
checkpointed with the persistence machinery
(:func:`repro.core.persistence.snapshot` — the stream is exactly "what
would move", with stamp references preserved) into the deployment's
:class:`~repro.recovery.store.CheckpointStore`:

- when the checkpointer starts, every ``interval`` seconds of the
  Core's clock after that, and when the Core shuts down, for every
  complet the Core hosts;
- at once when a complet **arrives** at the Core or is **restored**
  there, so the stored host is never stale and recovery restores a
  complet where it last lived.

Each checkpoint also captures the complet's *local pull-group*:
complets reachable over ``pull``-typed references hosted on the same
Core move with it, so they must be captured and restored with it too.
(Remote group members are captured by their own host's sweep;
``duplicate`` references are *not* followed — fetching a fresh clone is
a remote side effect, not a checkpoint.)
"""

from __future__ import annotations

import logging
import threading

from repro.complet.anchor import Anchor
from repro.complet.closure import compute_closure
from repro.complet.relocators import Pull
from repro.complet.stub import stub_meta, stub_target_id, stub_tracker
from repro.core import persistence
from repro.core.events import COMPLET_ARRIVED, COMPLET_RESTORED, CORE_SHUTDOWN
from repro.errors import ConfigurationError, FarGoError
from repro.recovery.store import CheckpointRecord, CheckpointStore
from repro.util.ids import CompletId

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - import cycle guard
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

    The one way a checkpoint is taken, by the :class:`Checkpointer` of
    the Core that hosts it, which stores the records; a member whose
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




#: A record's check and its put are one step for every checkpointer of
#: this process (a sweep runs on the clock's thread, an arrival on a
#: connection's); the store's slot lock makes them one for other processes.
_writing = threading.Lock()


class Checkpointer:
    """Durable checkpoints of every complet one Core hosts.

    It sweeps the whole repository — every hosted complet, with its local
    pull-group — into the deployment's :class:`CheckpointStore` when it
    starts and every ``interval`` seconds, and checkpoints a complet at
    once when it arrives or is restored here.  Each record names this Core
    as host, which is what a successor process (``serve(recover=True)``)
    and the :class:`~repro.recovery.RecoveryManager` key on.  An arrival
    is checkpointed before its move replies, so the old host's successor
    does not restore a second copy of it.

    The write rule, so that the newest record names the complet's one
    live host:

    - a Core whose node is down takes no checkpoint (a crashed Core of
      this process, like a SIGKILLed child, writes nothing);
    - an arrival's or a restore's checkpoint always writes;
    - a sweep never overwrites a newer record another host wrote, unless
      this Core acquired the complet (it arrived or was restored here)
      after that record was taken.  So a sweep that snapshotted a complet
      before it departed, a revived stale copy and a partitioned one
      cannot rename the host of a complet that lives elsewhere.
    """

    def __init__(self, core: "Core", store: CheckpointStore, interval: float = 1.0) -> None:
        if interval <= 0.0:
            raise ConfigurationError(f"checkpoint interval must be positive: {interval}")
        self.core = core
        self.store = store
        self.interval = interval
        self._timer = None
        self._subscriptions: list[int] = []
        #: Complet -> the store's newest generation when it was last acquired here.
        self._acquired: dict[CompletId, int] = {}

    def start(self) -> "Checkpointer":
        """Sweep now, every ``interval`` and once more when the Core shuts
        down; checkpoint every acquisition at once."""
        events = self.core.events
        self._timer = self.core.scheduler.call_every(self.interval, self.sweep)
        self._subscriptions = [
            events.subscribe(COMPLET_ARRIVED, self._acquire),
            events.subscribe(COMPLET_RESTORED, self._acquire),
            events.subscribe(CORE_SHUTDOWN, self._leaving),
        ]
        self.sweep()
        return self

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
            for subscription in self._subscriptions:
                self.core.events.unsubscribe(subscription)

    def sweep(self) -> int:
        """Checkpoint every hosted complet once; records written."""
        written = 0
        covered: set = set()
        for complet_id in self.core.repository.complet_ids():
            anchor = self.core.repository.get(complet_id)
            if anchor is None or complet_id in covered:
                continue  # gone, or captured with an earlier complet's group
            group, count = self._checkpoint(anchor)
            covered.update(group)
            written += count
        return written

    def _leaving(self, event) -> None:
        if event.data.get("core") == self.core.name:
            self.sweep()  # the Core still serves while its shutdown is published
            self.stop()

    def _acquire(self, event) -> None:
        anchor = self.core.repository.find_by_str(event.data["complet"])
        if anchor is not None:
            self._checkpoint(anchor, acquired=True)

    def _checkpoint(self, anchor: Anchor, acquired: bool = False) -> tuple[tuple, int]:
        """Store what the write rule lets through of ``anchor``'s local
        pull-group: its ids, and records written."""
        core = self.core
        if not core.peer.is_peer_up(core.name):
            return (anchor.complet_id,), 0
        group, records = checkpoint_group(core, anchor)
        written = 0
        with _writing:
            if acquired:
                self._acquired.update((member, self._newest(member)[1]) for member in group)
            for record in records:
                with self.store.locked(record.complet_id):  # against other processes
                    host, generation = self._newest(record.complet_id)
                    # An acquisition always writes: the old host's sweep, in
                    # another process, may have written since it was read.
                    if not acquired and host not in (None, core.name) and (
                        generation > self._acquired.get(record.complet_id, 0)
                    ):
                        continue  # it left, or was restored elsewhere, since it came here
                    self.store.put(record)
                    written += 1
        return group, written

    def _newest(self, complet_id: CompletId) -> tuple[str | None, int]:
        """The host and generation of ``complet_id``'s newest record."""
        newest = self.store.generations(complet_id)[-1:]
        return (newest[0]["host"], newest[0]["gen"]) if newest else (None, 0)
