"""The Complet Repository: complets and trackers hosted by one Core.

The repository owns the two Core-local tables of Figure 1's "Complet
Repository" box: the complets currently living on this Core, and the
trackers this Core keeps for complets it references.  It enforces the
scalability invariant of §3.1 — *at most one tracker per target complet
per Core* — and implements tracker garbage collection ("trackers that
are not pointed at all after shortening become available for garbage
collection").
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.complet.anchor import Anchor, anchor_type_name, execution_context, qualified_class_ref
from repro.complet.tracker import Tracker
from repro.errors import CompletError
from repro.util.ids import CompletId, IdGenerator, TrackerId

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.core import Core


class Repository:
    """Complets and trackers of one Core."""

    def __init__(self, core: "Core") -> None:
        self._core = core
        self._complets: dict[CompletId, Anchor] = {}
        self._trackers: dict[int, Tracker] = {}
        self._tracker_by_target: dict[CompletId, Tracker] = {}
        self.begin_life(0)
        #: Trackers collected so far (for the GC experiments).
        self.collected_trackers = 0

    def begin_life(self, life: int) -> None:
        """Number complets and trackers from ``life``'s range (a respawn's count)."""
        self._complet_serials = IdGenerator.for_life(life)
        self._tracker_serials = IdGenerator.for_life(life)

    # -- complet lifecycle -------------------------------------------------------

    def install_new(self, anchor_cls: type[Anchor], args: tuple, kwargs: dict) -> Tracker:
        """Construct a brand-new complet on this Core and return its tracker.

        The anchor's constructor runs with this Core in context, so it
        can itself instantiate further complets.
        """
        with execution_context(self._core, None):
            anchor = anchor_cls(*args, **kwargs)
        if anchor._complet_id is not None:
            raise CompletError(f"anchor {anchor!r} is already installed")
        anchor._complet_id = self.new_complet_id(anchor)
        return self._host(anchor)

    def adopt(self, anchor: Anchor) -> Tracker:
        """Install a complet that arrived by movement (identity preserved)."""
        if anchor._complet_id is None:
            raise CompletError(f"arriving anchor {anchor!r} has no complet id")
        return self._host(anchor)

    def _host(self, anchor: Anchor) -> Tracker:
        complet_id = anchor.complet_id
        if complet_id in self._complets:
            raise CompletError(f"complet {complet_id} is already hosted here")
        self._complets[complet_id] = anchor
        tracker = self.tracker_for(complet_id, qualified_class_ref(type(anchor)))
        tracker.point_to_local(anchor)
        return tracker

    def release(self, complet_id: CompletId) -> Anchor:
        """Drop a complet that has departed; its tracker stays (forwarding)."""
        try:
            return self._complets.pop(complet_id)
        except KeyError:
            raise CompletError(f"complet {complet_id} is not hosted at this Core") from None

    def destroy(self, complet_id: CompletId) -> None:
        """Remove a complet permanently; its tracker becomes dangling."""
        self.release(complet_id)
        tracker = self._tracker_by_target.get(complet_id)
        if tracker is not None:
            tracker.mark_dangling()

    def new_complet_id(self, anchor: Anchor) -> CompletId:
        """Mint a fresh complet identity born on this Core."""
        return CompletId(
            birth_core=self._core.name,
            serial=self._complet_serials.next(),
            type_name=anchor_type_name(type(anchor)),
        )

    # -- lookup ---------------------------------------------------------------------

    def get(self, complet_id: CompletId) -> Anchor | None:
        return self._complets.get(complet_id)

    def hosts(self, complet_id: CompletId) -> bool:
        return complet_id in self._complets

    def complet_ids(self) -> list[CompletId]:
        return list(self._complets)

    def anchors(self) -> Iterator[Anchor]:
        return iter(list(self._complets.values()))

    def find_by_str(self, complet_id_str: str) -> Anchor | None:
        """Resolve a hosted complet from the display form of its id.

        Used by the administration surface (shell, scripts, viewer),
        which refers to complets by string.
        """
        for complet_id, anchor in self._complets.items():
            if str(complet_id) == complet_id_str or complet_id.short() == complet_id_str:
                return anchor
        return None

    def find_by_type(self, anchor_cls: type) -> list[Anchor]:
        """Local complets whose anchor is an instance of ``anchor_cls``.

        Results are ordered by complet serial so stamp resolution is
        deterministic.
        """
        matches = [a for a in self._complets.values() if isinstance(a, anchor_cls)]
        matches.sort(key=lambda a: (a.complet_id.birth_core, a.complet_id.serial))
        return matches

    def __len__(self) -> int:
        return len(self._complets)

    # -- trackers ---------------------------------------------------------------------

    def tracker_for(self, target_id: CompletId, anchor_ref: str) -> Tracker:
        """The unique tracker for ``target_id`` at this Core (creating it)."""
        tracker = self._tracker_by_target.get(target_id)
        if tracker is None:
            tracker_id = TrackerId(self._core.name, self._tracker_serials.next())
            tracker = Tracker(tracker_id, target_id, anchor_ref)
            self._trackers[tracker_id.serial] = tracker
            self._tracker_by_target[target_id] = tracker
        return tracker

    def tracker_by_serial(self, serial: int) -> Tracker | None:
        return self._trackers.get(serial)

    def existing_tracker(self, target_id: CompletId) -> Tracker | None:
        return self._tracker_by_target.get(target_id)

    def trackers(self) -> list[Tracker]:
        return list(self._trackers.values())

    def tracker_count(self) -> int:
        return len(self._trackers)

    def collect_trackers(self) -> int:
        """Drop every tracker nothing points at; return how many were dropped.

        A collected tracker that was still forwarding tells its pointee
        it is gone, so chains of garbage trackers collapse under repeated
        collection (one Core per pass — the cluster harness iterates to a
        fixpoint).
        """
        removable = [t for t in self._trackers.values() if t.is_collectable]
        for tracker in removable:
            del self._trackers[tracker.tracker_id.serial]
            existing = self._tracker_by_target.get(tracker.target_id)
            if existing is tracker:
                del self._tracker_by_target[tracker.target_id]
            if tracker.next_hop is not None:
                self._core.references.unregister_remote_pointer(
                    tracker.next_hop, tracker.address, tracker.epoch
                )
        self.collected_trackers += len(removable)
        return len(removable)
