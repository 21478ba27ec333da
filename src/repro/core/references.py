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
A one-way TRACKER_UPDATE is left only where no message of the operation
reaches the Core that must learn (collection, failure repairs, a token
materialized at a new Core, a stale arrival pointing at a third Core, the
old hop of a walk that started or was forwarded past it) and after a
request that may have handed a tracker over failed
(:meth:`ReferenceHandler.reclaim`); a reclaim that reaches the hop while
its handler still runs cancels the handover
(:meth:`ReferenceHandler.handing_over`).  Where a walk starts is the
Core's :mod:`~repro.core.locator` strategy's choice.
"""

from __future__ import annotations

import collections
import logging
import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.complet.anchor import resolve_class_ref
from repro.complet.stub import Stub, stub_class_for
from repro.complet.tokens import CloneToken, InGroupToken, RefToken, StampToken
from repro.complet.tracker import Tracker, TrackerAddress
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


class Handover:
    """A handler's hold on a requester's pointer; see :meth:`ReferenceHandler.handing_over`."""

    __slots__ = ("settled",)

    def __init__(self) -> None:
        #: Set by the handler once the final tracker registered the pointer.
        self.settled = False


class ReferenceHandler:
    """One Core's reference-handling unit."""

    def __init__(self, core: "Core") -> None:
        self.core = core
        #: Serials with a lookup in flight; guards the recursive collapse
        #: in :meth:`_handle_lookup` against chain cycles re-entering it.
        self._resolving: set[int] = set()
        #: ``(serial, pointer)`` pairs a handler here is handing over, with
        #: how many handlers do, and those registered again meanwhile.
        self._in_flight: collections.Counter = collections.Counter()
        self._reclaimed: set[tuple[int, TrackerAddress]] = set()
        self._handovers_lock = threading.Lock()
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
                self._notify_pointer(token.last_known, tracker.address, register=True)
                tracker.point_to(token.last_known)
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

    def resolve_final(
        self, tracker: Tracker, carried: tuple[TrackerAddress, ...] = ()
    ) -> TrackerAddress:
        """Walk the chain to the tracker colocated with the target.

        The walk starts where the Core's locator says: the tracker's next
        hop, or the home registry's record of the target.  It hands its
        pointers over: every TRACKER_LOOKUP carries the trackers that
        re-point at the final — ``carried`` (a collapsing hop's
        requesters), then ``tracker`` — the hop that answers ``local``
        registers them all, and a hop that answers ``final`` discards its
        requester.  Re-pointing ``tracker`` then posts nothing, unless the
        walk went past its old hop (it started elsewhere, or a ``forward``
        answer sent it on), which must still be told.
        """
        if tracker.is_local:
            return tracker.address
        address = self.core.locator.first_hop(tracker)
        pointers = (*carried, tracker.address)
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

        Both Cores' pointer sets must learn it: ``final``'s tracker gains
        ``tracker`` before the re-point, the previously pointed-at one
        loses it after.  ``registered`` and ``released`` say the message
        that brought ``final`` already did either; what is left goes as one
        TRACKER_UPDATE each.
        """
        if tracker.is_local or tracker.next_hop == final or final == tracker.address:
            return
        old = tracker.next_hop
        if not registered:
            self._notify_pointer(final, tracker.address, register=True)
        tracker.point_to(final)
        if old is not None and not released:
            self._notify_pointer(old, tracker.address, register=False)

    def reclaim(self, tracker: Tracker) -> None:
        """Have ``tracker``'s unchanged next hop register it again.

        For a request that may have handed ``tracker`` over and then
        failed: the hop may have run it and discarded ``tracker`` before
        the reply was lost, or may still be running it, and a hop nobody
        is registered at can be collected under a live reference.  A
        duplicate registration is harmless, and one that arrives while
        the hop's handler runs cancels its discard (:meth:`handing_over`).
        """
        if tracker.next_hop is not None:
            self._notify_pointer(tracker.next_hop, tracker.address, register=True)

    def pointer_from(self, tracker: Tracker, core: str) -> TrackerAddress | None:
        """The tracker of ``core`` that points at ``tracker``, to hand over.

        None unless exactly one is registered.
        """
        # A snapshot: one-way updates change the set from other threads.
        found = [pointer for pointer in tuple(tracker.remote_pointers) if pointer.core == core]
        return found[0] if len(found) == 1 else None

    @contextmanager
    def handing_over(self, tracker: Tracker, pointer: TrackerAddress | None) -> Iterator[Handover]:
        """Run a handler that may hand ``pointer``, registered at ``tracker``, over.

        The handler sets ``settled`` once the final tracker has registered
        ``pointer`` and the answer naming it is about to go back; on exit
        ``tracker`` then lets ``pointer`` go.  Unless ``pointer`` was
        registered again while the handler ran: its requester gave up on
        the request (a deadline passed meanwhile), still points here, and
        :meth:`reclaim`\\ ed it.  The final then keeps a registration it
        may not need, which only delays collection there.  Without a
        ``pointer`` there is nothing to hand over.
        """
        handover = Handover()
        if pointer is None:
            yield handover
            return
        key = (tracker.address.serial, pointer)
        with self._handovers_lock:
            self._in_flight[key] += 1
        try:
            yield handover
        finally:
            with self._handovers_lock:
                reclaimed = key in self._reclaimed
                self._in_flight[key] -= 1
                if not self._in_flight[key]:
                    del self._in_flight[key]
                    self._reclaimed.discard(key)
                if handover.settled and not reclaimed:
                    tracker.remote_pointers.discard(pointer)

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
                self._notify_pointer(replacement, tracker.address, register=True)
                tracker.point_to(replacement)
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
            self._notify_pointer(replacement, tracker.address, register=True)
            tracker.point_to(replacement)
            repaired += 1
        return repaired

    # -- pointer bookkeeping -------------------------------------------------------------

    def _notify_pointer(
        self, target: TrackerAddress, pointer: TrackerAddress, *, register: bool
    ) -> None:
        if target.core == self.core.name:
            self._apply_pointer_update(target.serial, pointer, register)
            return
        try:
            self.core.peer.notify(
                target.core,
                MessageKind.TRACKER_UPDATE,
                (target.serial, pointer, register),
            )
        except CoreError:
            # Best effort: an unreachable Core cannot be told.  A dropped
            # unregister only delays collection there; a dropped register
            # lets the pointee be collected under a live reference.
            logger.debug(
                "pointer update to %s dropped (unreachable)", target.core, exc_info=True
            )

    def unregister_remote_pointer(
        self, target: TrackerAddress, pointer: TrackerAddress
    ) -> None:
        """Tell ``target``'s Core that ``pointer`` no longer forwards to it."""
        self._notify_pointer(target, pointer, register=False)

    def _apply_pointer_update(
        self, serial: int, pointer: TrackerAddress, register: bool
    ) -> None:
        tracker = self.core.repository.tracker_by_serial(serial)
        if tracker is None:
            return
        if not register:
            tracker.remote_pointers.discard(pointer)
            return
        with self._handovers_lock:
            if (serial, pointer) in self._in_flight:
                self._reclaimed.add((serial, pointer))
            # A tracker is not pointed at by the tracker it points at: such
            # a registration was overtaken by a move that settled it.
            if pointer != tracker.next_hop:
                tracker.remote_pointers.add(pointer)

    # -- message handlers ------------------------------------------------------------------

    def _handle_lookup(self, src: str, body: object) -> tuple[str, TrackerAddress | None]:
        serial, pointers = body  # type: ignore[misc]
        tracker = self.core.repository.tracker_by_serial(serial)
        if tracker is None or (tracker.next_hop is None and not tracker.is_local):
            return ("dangling", None)
        if tracker.is_local:
            tracker.remote_pointers.update(p for p in pointers if p != tracker.address)
            return ("local", None)
        if serial in self._resolving:
            return ("forward", tracker.next_hop)
        # Collapse the remainder of the chain on the caller's behalf:
        # resolve to the final tracker (shortening this tracker as a side
        # effect) and answer with the target's address directly, so the
        # caller repoints in one hop instead of walking every forwarder.
        self._resolving.add(serial)
        try:
            # The requester, last, is registered at the final by the walk.
            with self.handing_over(tracker, pointers[-1]) as handover:
                final = self.resolve_final(tracker, pointers)
                handover.settled = True
        except DanglingReferenceError:
            return ("dangling", None)
        except (CoreError, CompletError):
            # Downstream unreachable or looping — fall back to the plain
            # one-hop answer and let the caller cope.
            return ("forward", tracker.next_hop)
        finally:
            self._resolving.discard(serial)
        return ("final", final)

    def _handle_update(self, src: str, body: object) -> None:
        serial, pointer, register = body  # type: ignore[misc]
        self._apply_pointer_update(serial, pointer, register)


def _class_ref(cls: type) -> str:
    from repro.complet.anchor import qualified_class_ref

    return qualified_class_ref(cls)
