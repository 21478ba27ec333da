"""Complet persistence: the paper's second future-work item, built.

§7: "we plan to develop persistence and mobility-aware transactional
models".  This module provides the persistence half: a complet's closure
can be checkpointed to bytes and restored later, on any Core — the same
marshaling machinery movement uses, so a snapshot is exactly "what would
have moved".

Semantics:

- :func:`snapshot` captures the closure; outgoing complet references are
  preserved as reference tokens (degraded to ``link``, like any copied
  graph), so a restored complet reconnects to its collaborators if they
  still exist.
- :func:`restore` installs the snapshot.  By default the restored
  complet receives a *fresh identity* (it is a recovered copy, and the
  original may still be alive somewhere).  ``keep_identity=True``
  reclaims the original identity — allowed only when no trace of the
  original is reachable (not hosted locally, no live location-registry
  record), so two complets can never answer to one identity.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

from repro.complet.anchor import Anchor
from repro.complet.marshal import CloneEntry, marshal_clone, unmarshal_clone
from repro.complet.stub import Stub, stub_target_id
from repro.core.events import COMPLET_RESTORED
from repro.errors import CompletError, CoreError, TransportError
from repro.net.serializer import PLAIN
from repro.util.ids import CompletId

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.core import Core

#: Current snapshot wire-format version.  Bumped whenever the stream
#: layout changes incompatibly; :func:`check_version` refuses any other
#: version instead of unpickling garbage.
SNAPSHOT_VERSION = 1


def check_version(found: object, what: str) -> None:
    """Raise the typed error for ``what`` written in another format version."""
    if found != SNAPSHOT_VERSION:
        raise CompletError(
            f"{what} uses format version {found}, but this runtime reads "
            f"version {SNAPSHOT_VERSION}; re-take it with the current runtime"
        )


@dataclass(frozen=True, slots=True)
class Snapshot:
    """A persisted complet: identity, type, and marshaled closure."""

    original_id: CompletId
    anchor_ref: str
    stream: bytes
    #: Virtual time at which the snapshot was taken.
    taken_at: float
    #: Wire-format version this snapshot was written with.
    version: int = SNAPSHOT_VERSION

    def to_bytes(self) -> bytes:
        """Wire format of the admin ``checkpoint`` / ``restore_complet``
        operations (a checkpoint at rest keeps ``stream`` as a blob instead)."""
        return PLAIN.dumps(self)

    @staticmethod
    def from_bytes(data: bytes) -> "Snapshot":
        snapshot = PLAIN.loads(data)
        if not isinstance(snapshot, Snapshot):
            raise CompletError("bytes do not contain a complet snapshot")
        check_version(getattr(snapshot, "version", 0), f"snapshot of {snapshot.original_id}")
        return snapshot


def snapshot(core: "Core", target: Stub | Anchor) -> Snapshot:
    """Checkpoint a complet hosted on ``core``.

    ``stamp`` references keep their stamp semantics in the stream (they
    re-resolve by type wherever the snapshot is restored, else keep their
    target as a ``link``); every other reference degrades to ``link``, as
    for any copied graph.
    """
    anchor = _resolve_hosted(core, target)
    entry: CloneEntry = marshal_clone(
        core, anchor, anchor.complet_id, preserve_stamps=True
    )
    return Snapshot(
        original_id=anchor.complet_id,
        anchor_ref=entry.anchor_ref,
        stream=entry.stream,
        taken_at=core.scheduler.clock.now(),
    )


def restore(core: "Core", snapshot_: Snapshot, *, keep_identity: bool = False) -> Stub:
    """Bring a snapshot back to life on ``core``; returns a stub for it.

    With ``keep_identity=True`` the restored complet answers to the
    original identity — refused if the original is still hosted here or
    the location registry still knows where it lives.
    """
    if keep_identity:
        _check_identity_free(core, snapshot_.original_id)

    entry = CloneEntry(snapshot_.original_id, snapshot_.anchor_ref, snapshot_.stream)
    anchor = unmarshal_clone(core, entry)
    hop = None
    if not keep_identity:
        anchor._complet_id = core.repository.new_complet_id(anchor)
    else:
        # The identity's old tracker (if any) must host the revenant.
        stale = core.repository.existing_tracker(snapshot_.original_id)
        if stale is not None:
            hop = stale.next_hop
            stale.mark_dangling()
    tracker = core.repository.adopt(anchor)
    if hop is not None:
        # It forwarded there, as an arrival's stale tracker did: a live hop
        # stops counting it (a dead one refuses the update, and needs none).
        with contextlib.suppress(CoreError, TransportError):
            core.references.unregister_remote_pointer(hop, tracker.address, tracker.epoch)
    core.events.publish(
        COMPLET_RESTORED,
        complet=str(anchor.complet_id),
        original=str(snapshot_.original_id),
        type=anchor.complet_id.type_name,
    )
    return core.references.stub_for_local(tracker.target_id)


def _resolve_hosted(core: "Core", target: Stub | Anchor) -> Anchor:
    if isinstance(target, Stub):
        anchor = core.repository.get(stub_target_id(target))
        if anchor is None:
            raise CompletError(
                f"complet {stub_target_id(target)} is not hosted at "
                f"{core.name!r}; snapshot it where it lives"
            )
        return anchor
    if isinstance(target, Anchor):
        if not target.is_installed or not core.repository.hosts(target.complet_id):
            raise CompletError(f"anchor {target!r} is not hosted at {core.name!r}")
        return target
    raise CompletError(f"cannot snapshot {target!r}")


def _check_identity_free(core: "Core", complet_id: CompletId) -> None:
    if core.repository.hosts(complet_id):
        raise CompletError(
            f"cannot restore {complet_id} with its identity: the original "
            f"is still hosted at {core.name!r}"
        )
    located = core.locator.resolve(complet_id)
    if located is not None:
        raise CompletError(
            f"cannot restore {complet_id} with its identity: the location "
            f"registry says it lives at {located.core!r}"
        )
