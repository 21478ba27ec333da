"""The Reference Handler: materializing, tracking, and shortening references.

This unit of Figure 1 realizes complet references at runtime:

- it turns wire tokens back into live stubs wired to Core-local trackers
  (:meth:`ReferenceHandler.materialize`);
- it walks tracker chains to locate a target (:meth:`locate`) and
  shortens chains so later interactions are direct (:meth:`shorten`);
- it maintains the distributed remote-pointer sets that make
  unreferenced trackers collectable.

Pointer bookkeeping is *eager* by default — every repoint sends small
one-way notifications so the pointed-at Cores know who references them —
and can be disabled per Core (``eager_pointer_updates=False``) for the
ablation benchmark.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING

from repro.complet.anchor import resolve_class_ref
from repro.complet.stub import Stub, stub_class_for
from repro.complet.tokens import CloneToken, InGroupToken, RefToken, StampToken
from repro.complet.tracker import Tracker, TrackerAddress
from repro.errors import (
    CompletError,
    CoreError,
    DanglingReferenceError,
    SerializationError,
    StampResolutionError,
)
from repro.net.messages import MessageKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.core import Core

logger = logging.getLogger(__name__)

#: Hard limit on chain walks; a longer chain indicates a routing loop.
MAX_CHAIN_HOPS = 64


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
            if token.last_known.core == self.core.name:
                # The token points back at this very Core; adopt the
                # referenced tracker's knowledge instead of forwarding to
                # ourselves.
                local = self.core.repository.tracker_by_serial(token.last_known.serial)
                if local is not None and local is not tracker and local.next_hop is not None:
                    tracker.point_to(local.next_hop)
            else:
                tracker.point_to(token.last_known)
                self._notify_pointer(token.last_known, tracker.address, register=True)
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

    def resolve_final(self, tracker: Tracker) -> TrackerAddress:
        """Walk the chain to the tracker colocated with the target.

        When the location registry is enabled, the home Core is asked
        first — one message, independent of migration history — and the
        chain is only walked when the registry has no answer.
        """
        if tracker.is_local:
            return tracker.address
        address, final = self.first_hop(tracker)
        if final:
            return address
        for _ in range(MAX_CHAIN_HOPS):
            state, next_hop = self.core.peer.request(
                address.core, MessageKind.TRACKER_LOOKUP, address.serial
            )
            if state == "local":
                self.shorten(tracker, address)
                return address
            if state == "final":
                # The queried tracker collapsed the rest of the chain on
                # our behalf and answered with the target's own address.
                assert next_hop is not None
                self.shorten(tracker, next_hop)
                return next_hop
            if state == "forward":
                assert next_hop is not None
                address = next_hop
                continue
            raise DanglingReferenceError(
                f"reference to {tracker.target_id} dangles at {address}"
            )
        raise CompletError(
            f"tracker chain for {tracker.target_id} exceeds {MAX_CHAIN_HOPS} hops; "
            "routing loop suspected"
        )

    def first_hop(self, tracker: Tracker) -> tuple[TrackerAddress, bool]:
        """Where the chain of a remote ``tracker`` starts, and whether that is its end.

        No message, unless the location registry is enabled: then the
        home Core is asked, and its answer is final.  A request sent
        to the first hop is forwarded by a Core the target has left.
        """
        if self.core.use_location_registry:
            registered = self.core.locator.resolve(tracker.target_id)
            if registered is not None and registered != tracker.address:
                self.shorten(tracker, registered)
                return registered, True
        if tracker.next_hop is None:
            raise DanglingReferenceError(
                f"reference to {tracker.target_id} dangles: target was destroyed"
            )
        return tracker.next_hop, False

    def shorten(self, tracker: Tracker, final: TrackerAddress) -> None:
        """Point ``tracker`` directly at ``final`` (§3.1 chain shortening).

        The previously pointed-at tracker is told it lost a pointer and
        the final tracker is told it gained one, so both Cores' garbage
        collection stays accurate.
        """
        if tracker.is_local or tracker.next_hop == final:
            return
        if final == tracker.address:
            return
        old = tracker.next_hop
        tracker.point_to(final)
        if old is not None and old != final:
            self._notify_pointer(old, tracker.address, register=False)
        self._notify_pointer(final, tracker.address, register=True)

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
                tracker.point_to(replacement)
                self._notify_pointer(replacement, tracker.address, register=True)
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
            tracker.point_to(replacement)
            self._notify_pointer(replacement, tracker.address, register=True)
            repaired += 1
        return repaired

    # -- pointer bookkeeping -------------------------------------------------------------

    def _notify_pointer(
        self, target: TrackerAddress, pointer: TrackerAddress, *, register: bool
    ) -> None:
        if not self.core.eager_pointer_updates:
            return
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
            # Best-effort bookkeeping: an unreachable Core merely delays
            # tracker collection there.
            logger.debug(
                "pointer update to %s dropped (unreachable)", target.core, exc_info=True
            )

    def register_pointer(self, tracker: Tracker, pointer: TrackerAddress) -> None:
        tracker.remote_pointers.add(pointer)

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
        if register:
            tracker.remote_pointers.add(pointer)
        else:
            tracker.remote_pointers.discard(pointer)

    # -- message handlers ------------------------------------------------------------------

    def _handle_lookup(self, src: str, serial: object) -> tuple[str, TrackerAddress | None]:
        assert isinstance(serial, int)
        tracker = self.core.repository.tracker_by_serial(serial)
        if tracker is None:
            return ("dangling", None)
        if tracker.is_local:
            return ("local", None)
        if tracker.next_hop is not None:
            if serial not in self._resolving:
                # Collapse the remainder of the chain on the caller's
                # behalf: resolve to the final tracker (shortening this
                # tracker as a side effect) and answer with the target's
                # address directly, so the caller repoints in one hop
                # instead of walking every forwarder itself.
                self._resolving.add(serial)
                try:
                    final = self.resolve_final(tracker)
                except DanglingReferenceError:
                    return ("dangling", None)
                except (CoreError, CompletError):
                    # Downstream unreachable or looping — fall back to
                    # the plain one-hop answer and let the caller cope.
                    return ("forward", tracker.next_hop)
                finally:
                    self._resolving.discard(serial)
                return ("final", final)
            return ("forward", tracker.next_hop)
        return ("dangling", None)

    def _handle_update(self, src: str, body: object) -> None:
        serial, pointer, register = body  # type: ignore[misc]
        self._apply_pointer_update(serial, pointer, register)


def _class_ref(cls: type) -> str:
    from repro.complet.anchor import qualified_class_ref

    return qualified_class_ref(cls)
