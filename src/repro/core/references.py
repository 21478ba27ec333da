"""The Reference Handler: materializing, tracking, and shortening references.

This unit of Figure 1 realizes complet references at runtime:

- it turns wire tokens back into live stubs wired to Core-local trackers
  (:meth:`ReferenceHandler.materialize`);
- it walks tracker chains to locate a target (:meth:`locate`) and
  shortens chains so later interactions are direct (:meth:`shorten`);
- it maintains the distributed remote-pointer sets that make
  unreferenced trackers collectable.

Every tracker knows which remote trackers forward to it.  A re-point is
settled by the message that causes it: the Core that answers "the target
is at F" discards the requester from its own tracker and has F register
it, inside a message it sends toward F anyway — the LOOKUPs of a chain
walk, the collapse of a forwarded call, the commit of a requested move.
A TRACKER_UPDATE of its own is left only where no message of the
operation reaches the Core that must learn (collection, failure repairs, a
token materialized at a new Core, a stale arrival pointing at a third
Core, the old hop of a walk that started or was forwarded past it) and
after a request that may have handed a tracker over failed
(:meth:`ReferenceHandler.reclaim`).  Such a registration is answered, so
that no tracker sweep after it can collect its pointee under the new
reference; a discard goes one-way.  Where a walk starts is the Core's
:mod:`~repro.core.locator` strategy's choice.

No update depends on the order it arrives in.  Each names the pointer's
re-point epoch, and a tracker keeps the newest it heard of each pointer
(:meth:`~repro.complet.tracker.Tracker.note_pointer`).  A pointer handed
over in-band travels with the epoch it had at the hop it asked; the final
registers it at the next one, and the hop discards it at the one it had.
A requester whose request failed indeterminately takes a new epoch before
it registers again, so the hop's discard, however late it runs, loses.
"""

from __future__ import annotations

import logging

from repro.complet.anchor import resolve_class_ref
from repro.complet.stub import Stub, stub_class_for
from repro.complet.tokens import CloneToken, InGroupToken, RefToken, StampToken
from repro.complet.tracker import Pointer, Tracker, TrackerAddress, next_epoch
from repro.errors import (
    CompletError,
    CoreError,
    CoreUnreachableError,
    DanglingReferenceError,
    DeadlineExceededError,
    SerializationError,
    StampResolutionError,
)
from repro.net.messages import MessageKind

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.core import Core

logger = logging.getLogger(__name__)

#: Hard limit on chain walks; a longer chain indicates a routing loop.
MAX_CHAIN_HOPS = 64

#: Failures after which the request may have run at its destination: a
#: deadline that passed, or a connection lost (over TCP, possibly after the
#: write).  A handover the request carried may have been taken, its answer lost.
INDETERMINATE_ERRORS: tuple[type[BaseException], ...] = (
    DeadlineExceededError,
    CoreUnreachableError,
)


class ReferenceHandler:
    """One Core's reference-handling unit."""

    def __init__(self, core: "Core") -> None:
        self.core = core
        #: Serials with a lookup in flight; guards the recursive collapse
        #: in :meth:`_handle_lookup` against chain cycles re-entering it.
        self._resolving: set[int] = set()
        core.peer.register(MessageKind.TRACKER_LOOKUP, self._handle_lookup)
        core.peer.register(MessageKind.TRACKER_UPDATE, self._handle_update)

    # -- token materialization -----------------------------------------------------

    def materialize(self, token: object) -> Stub:
        """Turn a wire token into a live stub at this Core."""
        if isinstance(token, RefToken):
            return self._materialize_ref(token)
        if isinstance(token, (InGroupToken, CloneToken)):
            target_id = token.clone_id if isinstance(token, CloneToken) else token.target_id
            tracker = self.core.repository.tracker_for(target_id, token.anchor_ref)
            return self._stub_for(tracker, token.relocator)
        if isinstance(token, StampToken):
            return self._materialize_stamp(token)
        raise SerializationError(f"unknown reference token {token!r}")

    def _materialize_ref(self, token: RefToken) -> Stub:
        tracker = self.core.repository.existing_tracker(token.target_id)
        if tracker is None:
            tracker = self.core.repository.tracker_for(token.target_id, token.anchor_ref)
            # A token naming a tracker of this very Core names one collected
            # since (there is one tracker per target per Core): nothing is
            # left to follow, and the reference dangles.
            if token.last_known.core != self.core.name:
                self.shorten(tracker, token.last_known)
        return self._stub_for(tracker, token.relocator)

    def _materialize_stamp(self, token: StampToken) -> Stub:
        try:
            anchor_cls = resolve_class_ref(token.anchor_ref)
        except Exception as exc:  # noqa: BLE001 - import errors vary
            raise StampResolutionError(
                f"cannot resolve stamped type {token.anchor_ref!r}: {exc}"
            ) from exc
        candidates = self.core.repository.find_by_type(anchor_cls)
        if candidates:
            tracker = self.core.repository.tracker_for(
                candidates[0].complet_id, token.anchor_ref
            )
            return self._stub_for(tracker, token.relocator)
        if token.fallback is not None:
            return self._materialize_ref(token.fallback)
        raise StampResolutionError(
            f"Core {self.core.name!r} hosts no complet of stamped type "
            f"{token.anchor_ref!r}"
        )

    def _stub_for(self, tracker: Tracker, relocator) -> Stub:
        anchor_cls = resolve_class_ref(tracker.anchor_ref)
        stub_cls = stub_class_for(anchor_cls)
        return stub_cls._fargo_from_tracker(self.core, tracker, relocator)

    def stub_for_local(self, complet_id) -> Stub:
        """A fresh (link) stub for a complet hosted on this Core."""
        anchor = self.core.repository.get(complet_id)
        if anchor is None:
            raise CompletError(f"complet {complet_id} is not hosted at {self.core.name!r}")
        tracker = self.core.repository.tracker_for(
            complet_id, _class_ref(type(anchor))
        )
        from repro.complet.relocators import Link

        return self._stub_for(tracker, Link())

    # -- chain walking and shortening -------------------------------------------------

    def locate(self, tracker: Tracker) -> str:
        """Name of the Core currently hosting ``tracker``'s target.

        Walking the chain shortens the local tracker as a side effect.
        """
        if tracker.is_local:
            return self.core.name
        final = self.resolve_final(tracker)
        return final.core

    def resolve_final(self, tracker: Tracker, carried: tuple[Pointer, ...] = ()) -> TrackerAddress:
        """Walk the chain to the tracker colocated with the target.

        The walk starts where the Core's locator says: the tracker's next
        hop, or the home registry's record of the target.  It hands its
        pointers over: every TRACKER_LOOKUP carries the trackers that
        re-point at the final — ``carried`` (a collapsing hop's
        requesters), then ``tracker`` — each at its epoch: the hop that
        answers ``local`` registers them all, and a hop that answers
        ``final`` discards its requester.  Re-pointing ``tracker`` then
        posts nothing, unless the walk went past its old hop (it started
        elsewhere, or a ``forward`` answer sent it on), which must still be
        told.
        """
        if tracker.is_local:
            return tracker.address
        address = self.core.locator.first_hop(tracker)
        pointers = (*carried, (tracker.address, tracker.epoch))
        forwarded = address != tracker.next_hop
        for _ in range(MAX_CHAIN_HOPS):
            try:
                state, next_hop = self.core.peer.request(
                    address.core, MessageKind.TRACKER_LOOKUP, (address.serial, pointers)
                )
            except INDETERMINATE_ERRORS:
                if not forwarded:
                    self.reclaim(tracker)
                raise
            if state == "forward":
                assert next_hop is not None
                address, forwarded = next_hop, True
                continue
            if state not in ("local", "final"):
                raise DanglingReferenceError(
                    f"reference to {tracker.target_id} dangles at {address}"
                )
            # "final": the queried tracker collapsed the rest of the chain
            # on our behalf and answered with the target's own address.
            final = address if state == "local" else next_hop
            assert final is not None
            self.shorten(tracker, final, registered=True, released=not forwarded)
            return final
        raise CompletError(
            f"tracker chain for {tracker.target_id} exceeds {MAX_CHAIN_HOPS} hops; "
            "routing loop suspected"
        )

    def shorten(
        self,
        tracker: Tracker,
        final: TrackerAddress,
        *,
        registered: bool = False,
        released: bool = False,
    ) -> None:
        """Point ``tracker`` directly at ``final`` (§3.1 chain shortening).

        Both Cores' pointer sets must learn it at the re-point's epoch:
        ``final``'s tracker gains ``tracker``, the previously pointed-at one
        loses it.  ``registered`` and ``released`` say the message that
        brought ``final`` already did either; what is left goes as one
        TRACKER_UPDATE each.  A registration carried in-band named the next
        epoch, which ``tracker`` takes even if it pointed at ``final`` already.
        """
        old = tracker.next_hop
        if tracker.is_local or final == tracker.address or (old == final and not registered):
            return
        tracker.point_to(final)
        if not registered:
            self._notify_pointer(final, tracker.address, tracker.epoch, register=True)
        if old not in (None, final) and not released:
            self._notify_pointer(old, tracker.address, tracker.epoch, register=False)

    def reclaim(self, tracker: Tracker) -> None:
        """Have ``tracker``'s unchanged next hop register it again, at a new epoch.

        For a request that may have handed ``tracker`` over and then
        failed: the hop may have run it and discarded ``tracker`` before
        the reply was lost, or may not have read it yet, and a hop nobody
        is registered at can be collected under a live reference.  The
        hop's discard names the epoch the request carried, older than this
        registration's, so it loses whenever it runs.
        """
        if tracker.next_hop is not None:
            tracker.epoch = next_epoch(tracker.epoch)
            self._notify_pointer(tracker.next_hop, tracker.address, tracker.epoch, register=True)

    def release(self, holder: TrackerAddress, pointer: Pointer) -> None:
        """Undo ``holder``'s :meth:`~repro.complet.tracker.Tracker.take_over`
        of ``pointer``, whose call ended elsewhere: discard it there at the
        epoch that registered it."""
        address, epoch = pointer
        self._notify_pointer(holder, address, next_epoch(epoch), register=False)

    def pointer_from(self, tracker: Tracker, core: str, epoch: int) -> TrackerAddress | None:
        """The tracker of ``core`` registered at ``tracker`` at ``epoch``, to hand over.

        None unless exactly one is: a requester that registered again since
        has given up on the request.
        """
        # A snapshot: one-way updates change the set from other threads.
        found = [
            pointer
            for pointer, held in tuple(tracker.remote_pointers.items())
            if pointer.core == core and held == epoch
        ]
        return found[0] if len(found) == 1 else None

    def repair_dead_core(
        self, failed: str, relocated: dict[object, TrackerAddress]
    ) -> int:
        """Fix every local tracker whose next hop is the dead Core ``failed``.

        ``relocated`` maps original complet ids to the tracker address
        each one was recovered behind.  Trackers for recovered complets
        are re-pointed there (with pointer bookkeeping, so collection
        stays accurate); trackers for complets that went down with the
        Core are marked dangling, turning later calls into a typed
        :class:`~repro.errors.DanglingReferenceError` instead of a hang
        against a dead host.  Returns the number of trackers touched.
        """
        repaired = 0
        for tracker in self.core.repository.trackers():
            if tracker.next_hop is None or tracker.next_hop.core != failed:
                continue
            replacement = relocated.get(tracker.target_id)
            if replacement is not None and replacement != tracker.address:
                self.shorten(tracker, replacement, released=True)
            else:
                tracker.mark_dangling()
            repaired += 1
        return repaired

    def repair_revived(self, hosted: dict[object, TrackerAddress]) -> int:
        """Un-dangle local trackers whose target turned out to be alive.

        ``hosted`` maps complet ids to the tracker address now hosting
        them — typically the local trackers of a revived Core whose
        complets were written off by a degraded recovery.  Dangling is
        terminal for a genuinely destroyed complet, but a false-positive
        failure verdict (a healed partition) leaves live complets behind
        dangling references; this re-points them.  Returns the number of
        trackers repaired.
        """
        repaired = 0
        for tracker in self.core.repository.trackers():
            if not tracker.is_dangling:
                continue
            replacement = hosted.get(tracker.target_id)
            if replacement is None or replacement == tracker.address:
                continue
            self.shorten(tracker, replacement)
            repaired += 1
        return repaired

    # -- pointer bookkeeping -------------------------------------------------------------

    def _notify_pointer(
        self, target: TrackerAddress, pointer: TrackerAddress, epoch: int, *, register: bool
    ) -> None:
        """Tell ``target`` that ``pointer`` forwards to it at ``epoch``, or no longer does.

        A registration is a request, answered once ``target`` holds it: a
        tracker sweep that runs after it returns cannot overtake it and
        collect ``target`` under a live reference.  A discard goes one-way.
        """
        if target.core == self.core.name:
            self._apply_pointer_update(target.serial, pointer, epoch, register)
            return
        send = self.core.peer.request if register else self.core.peer.notify
        try:
            send(target.core, MessageKind.TRACKER_UPDATE, (target.serial, pointer, epoch, register))
        except CoreError:
            # Best effort: an unreachable Core cannot be told.  A dropped
            # unregister only delays collection there; a dropped register
            # lets the pointee be collected under a live reference.
            logger.debug(
                "pointer update to %s dropped (unreachable)", target.core, exc_info=True
            )

    def unregister_remote_pointer(
        self, target: TrackerAddress, pointer: TrackerAddress, epoch: int
    ) -> None:
        """Tell ``target``'s Core that ``pointer``, at ``epoch``, no longer forwards to it."""
        self._notify_pointer(target, pointer, epoch, register=False)

    def _apply_pointer_update(
        self, serial: int, pointer: TrackerAddress, epoch: int, register: bool
    ) -> None:
        tracker = self.core.repository.tracker_by_serial(serial)
        if tracker is not None:
            tracker.note_pointer(pointer, epoch, registered=register)

    # -- message handlers ------------------------------------------------------------------

    def _handle_lookup(self, src: str, body: object) -> tuple[str, TrackerAddress | None]:
        serial, pointers = body  # type: ignore[misc]
        tracker = self.core.repository.tracker_by_serial(serial)
        if tracker is None or (tracker.next_hop is None and not tracker.is_local):
            return ("dangling", None)
        if tracker.is_local:
            tracker.take_over(pointers)
            return ("local", None)
        if serial in self._resolving:
            return ("forward", tracker.next_hop)
        # Collapse the remainder of the chain on the caller's behalf:
        # resolve to the final tracker (shortening this tracker as a side
        # effect) and answer with the target's address directly, so the
        # caller repoints in one hop instead of walking every forwarder.
        self._resolving.add(serial)
        try:
            final = self.resolve_final(tracker, pointers)
        except DanglingReferenceError:
            return ("dangling", None)
        except (CoreError, CompletError):
            # Downstream unreachable or looping — fall back to the plain
            # one-hop answer and let the caller cope.
            return ("forward", tracker.next_hop)
        finally:
            self._resolving.discard(serial)
        # The walk registered the requester, last, at the final.
        requester, epoch = pointers[-1]
        tracker.note_pointer(requester, epoch, registered=False)
        return ("final", final)

    def _handle_update(self, src: str, body: object) -> None:
        serial, pointer, epoch, register = body  # type: ignore[misc]
        self._apply_pointer_update(serial, pointer, epoch, register)


def _class_ref(cls: type) -> str:
    from repro.complet.anchor import qualified_class_ref

    return qualified_class_ref(cls)
