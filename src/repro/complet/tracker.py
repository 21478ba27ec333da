"""Trackers: the location-transparency half of a complet reference.

The paper splits the classic proxy into a *stub* (local, interface-
identical to the anchor) and a *tracker* (one per target complet per
Core) that knows where the target actually is.  A tracker either holds
the target's anchor directly (the complet is local) or points at the
tracker of the next Core along the target's migration path.  Chains of
trackers form as a complet hops between Cores and are shortened on the
return path of every invocation; trackers that end up pointed at by
nobody become garbage (§3.1).

Trackers are runtime objects and never cross the network; the wire form
is :class:`TrackerAddress`.
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Iterable
from dataclasses import dataclass

from repro.errors import CompletError
from repro.util.ids import CompletId, TrackerId

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.complet.anchor import Anchor
    from repro.complet.stub import Stub


@dataclass(frozen=True, slots=True)
class TrackerAddress:
    """Wire-format address of a tracker: (hosting core, tracker id)."""

    core: str
    serial: int

    @property
    def tracker_id(self) -> TrackerId:
        return TrackerId(self.core, self.serial)

    def __str__(self) -> str:
        return f"{self.core}/t{self.serial}"

    def __reduce__(self):
        # Rides every TRACKER_LOOKUP and its answer: two positional fields
        # pickle in about half the time of the slotted dataclass state.
        return (TrackerAddress, (self.core, self.serial))


#: A tracker address at one of its epochs: what a pointer update names.
Pointer = tuple[TrackerAddress, int]

#: Discards a tracker remembers, oldest forgotten first.
TOMBSTONES = 64

#: Pointer updates arrive on many threads: each is a compare, then a write.
_POINTERS_LOCK = threading.Lock()


def next_epoch(epoch: int) -> int:
    """The epoch a tracker at ``epoch`` takes when it re-points.

    A pointer handed over in-band is registered at it, since its tracker
    re-points on the answer, and a release of that registration names it.
    """
    return epoch + 1


class Tracker:
    """One Core's view of where a target complet lives.

    Invariant: at any time a tracker is in exactly one of three states —

    - *local*: ``local_anchor`` is set, the complet lives on this Core;
    - *forwarding*: ``next_hop`` addresses the tracker of another Core;
    - *dangling*: the target was destroyed (invocations raise).
    """

    def __init__(
        self,
        tracker_id: TrackerId,
        target_id: CompletId,
        anchor_ref: str,
    ) -> None:
        self.tracker_id = tracker_id
        self.target_id = target_id
        #: ``module:qualname`` of the target's anchor class (for stub and
        #: stamp materialization without the live object).
        self.anchor_ref = anchor_ref
        self.local_anchor: "Anchor | None" = None
        self.next_hop: TrackerAddress | None = None
        #: Bumped whenever ``next_hop`` changes (and by a reclaim): every
        #: registration and discard of this tracker names it.
        self.epoch = 0
        #: Remote trackers known to forward to this tracker, each with the
        #: epoch that registered it, so unreferenced trackers can be
        #: collected; and the epoch of each one's last discard.
        self.remote_pointers: dict[TrackerAddress, int] = {}
        self._discarded: dict[TrackerAddress, int] = {}
        #: Live local stubs delegating to this tracker.
        self._stubs: "weakref.WeakSet[Stub]" = weakref.WeakSet()
        #: Invocations served locally / forwarded onward (for profiling).
        self.served_invocations = 0
        self.forwarded_invocations = 0

    # -- state ------------------------------------------------------------------

    @property
    def is_local(self) -> bool:
        return self.local_anchor is not None

    @property
    def is_forwarding(self) -> bool:
        return self.next_hop is not None

    @property
    def is_dangling(self) -> bool:
        return self.local_anchor is None and self.next_hop is None

    @property
    def address(self) -> TrackerAddress:
        return TrackerAddress(self.tracker_id.core, self.tracker_id.serial)

    def point_to_local(self, anchor: "Anchor") -> None:
        """The target complet now lives on this Core."""
        self.local_anchor = anchor
        self.next_hop = None
        self.epoch = next_epoch(self.epoch)

    def point_to(self, address: TrackerAddress) -> None:
        """The target complet is (believed to be) reachable via ``address``."""
        if address == self.address:
            raise CompletError(f"tracker {self.tracker_id} cannot forward to itself")
        self.local_anchor = None
        self.next_hop = address
        self.epoch = next_epoch(self.epoch)

    def mark_dangling(self) -> None:
        """The target complet was destroyed."""
        self.local_anchor = None
        self.next_hop = None
        self.epoch = next_epoch(self.epoch)

    # -- pointer bookkeeping -------------------------------------------------

    def note_pointer(self, pointer: TrackerAddress, epoch: int, *, registered: bool) -> None:
        """Apply a registration or a discard of ``pointer``, sent at its ``epoch``.

        The newest update of each pointer wins, a discard winning a tie, so
        one that arrives after a newer one is dropped: the order of arrival
        does not matter.
        """
        if pointer == self.address:
            return
        with _POINTERS_LOCK:
            held = self.remote_pointers.get(pointer, -1)
            discarded = self._discarded.get(pointer, -1)
            if registered and epoch > held and epoch > discarded:
                self.remote_pointers[pointer] = epoch
                self._discarded.pop(pointer, None)
            elif not registered and epoch >= held and epoch > discarded:
                self.remote_pointers.pop(pointer, None)
                self._discarded[pointer] = epoch
                if len(self._discarded) > TOMBSTONES:
                    del self._discarded[next(iter(self._discarded))]

    def take_over(self, pointers: Iterable[Pointer]) -> None:
        """Register ``pointers`` handed over here: each re-points at its next epoch."""
        for pointer, epoch in pointers:
            self.note_pointer(pointer, next_epoch(epoch), registered=True)

    def attach_stub(self, stub: "Stub") -> None:
        self._stubs.add(stub)

    @property
    def live_stub_count(self) -> int:
        return len(self._stubs)

    @property
    def is_collectable(self) -> bool:
        """True when nothing points at this tracker any more.

        A tracker is garbage when it does not host the complet locally,
        no local stub delegates to it, and no remote tracker forwards to
        it — the condition the paper states for post-shortening cleanup.
        """
        return (
            not self.is_local
            and self.live_stub_count == 0
            and not self.remote_pointers
        )

    def __repr__(self) -> str:
        if self.is_local:
            where = "local"
        elif self.next_hop is not None:
            where = f"-> {self.next_hop}"
        else:
            where = "dangling"
        return f"<Tracker {self.tracker_id} for {self.target_id} {where}>"
