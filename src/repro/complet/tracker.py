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

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import CompletError
from repro.util.ids import CompletId, TrackerId

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
        #: Addresses of remote trackers known to forward to this tracker;
        #: maintained by the reference handler so unreferenced trackers
        #: can be collected.
        self.remote_pointers: set[TrackerAddress] = set()
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

    def point_to(self, address: TrackerAddress) -> None:
        """The target complet is (believed to be) reachable via ``address``."""
        if address == self.address:
            raise CompletError(f"tracker {self.tracker_id} cannot forward to itself")
        self.local_anchor = None
        self.next_hop = address

    def mark_dangling(self) -> None:
        """The target complet was destroyed."""
        self.local_anchor = None
        self.next_hop = None

    # -- pointer bookkeeping -------------------------------------------------

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
