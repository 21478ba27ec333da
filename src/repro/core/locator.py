"""Where a search for a complet starts: the locating strategy of a Core.

The paper follows tracker chains (§3.1); :class:`Locator`, the default,
does too.  :class:`LocationRegistry` builds what §7 leaves as future
work, "a global location-independent naming scheme, which will present an
alternative to tracking complet objects using chains": each complet's
*birth Core* (named in its :class:`~repro.util.ids.CompletId`) is its
home registrar, each arrival posts it one LOCATION_UPDATE, and a walk
starts at the home's record (one LOCATION_QUERY) rather than at the
tracker's next hop.  The record is only a start: after a dropped update
it names a Core the complet has left, whose tracker sends the walk on.
The registry survives dead Cores on the migration path, depends on the
home, and costs one update per move (the ``tracking_modes`` bench area).

A strategy makes the three locating choices of the units that route:
where a walk starts (:meth:`Locator.first_hop`), where a call goes after
an unreachable hop (:meth:`Locator.recover_route`), and what an arrival
announces (:meth:`Locator.announce`).  Every Core serves registrar
traffic for the complets born on it, whatever its strategy: homes cannot
know where their offspring's references live, and recovery republishes.
Pick per Core with ``Core(..., locator=LocationRegistry)``.
"""

from __future__ import annotations

import logging

from repro.complet.tracker import Tracker, TrackerAddress
from repro.errors import CompletError, CoreError, DanglingReferenceError
from repro.net.messages import MessageKind
from repro.util.ids import CompletId

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.core import Core

logger = logging.getLogger(__name__)


class Locator:
    """Tracker chains (§3.1), and this Core's slice of the home registry."""

    def __init__(self, core: "Core") -> None:
        self.core = core
        #: Authoritative locations of complets born on this Core.
        self._locations: dict[CompletId, TrackerAddress] = {}
        core.peer.register(MessageKind.LOCATION_UPDATE, self._handle_update)
        core.peer.register(MessageKind.LOCATION_QUERY, self._handle_query)

    # -- the strategy --------------------------------------------------------------

    def first_hop(self, tracker: Tracker) -> TrackerAddress:
        """Where a walk from the remote ``tracker`` starts: its next hop."""
        if tracker.next_hop is None:
            raise DanglingReferenceError(
                f"reference to {tracker.target_id} dangles: target was destroyed"
            )
        return tracker.next_hop

    def recover_route(self, tracker: Tracker) -> TrackerAddress | None:
        """Where a call goes once the forward to ``tracker``'s next hop failed, or None.

        A re-walk, which helps only when the chain no longer runs through
        the failed hop (it was shortened, or failed downstream of it).
        """
        failed = tracker.next_hop
        try:
            final = self.core.references.resolve_final(tracker)
        except (CoreError, CompletError):
            return None
        return final if final != failed else None

    def announce(self, addresses: dict[CompletId, TrackerAddress]) -> None:
        """Complets arrived behind ``addresses``: a chain needs nobody told."""

    # -- home registrar --------------------------------------------------------------

    def publish(self, complet_id: CompletId, address: TrackerAddress) -> None:
        """Tell the home that ``complet_id`` lives behind ``address``: one-way, best effort."""
        if complet_id.birth_core == self.core.name:
            self._locations[complet_id] = address
            return
        try:
            self.core.peer.notify(
                complet_id.birth_core,
                MessageKind.LOCATION_UPDATE,
                (complet_id, address),
            )
        except CoreError:
            logger.debug(
                "location update for %s dropped (home %s unreachable)",
                complet_id,
                complet_id.birth_core,
            )

    def resolve(self, complet_id: CompletId) -> TrackerAddress | None:
        """The home's record of ``complet_id``; None if it has none or is unreachable."""
        if complet_id.birth_core == self.core.name:
            return self._locations.get(complet_id)
        try:
            answer = self.core.peer.request(
                complet_id.birth_core, MessageKind.LOCATION_QUERY, complet_id
            )
        except CoreError:
            return None
        assert answer is None or isinstance(answer, TrackerAddress)
        return answer

    def forget_core(self, core_name: str) -> int:
        """Drop every record naming ``core_name``, declared dead; returns the count.

        The complets are republished from where recovery restores them.
        """
        stale = [
            complet_id
            for complet_id, address in self._locations.items()
            if address.core == core_name
        ]
        for complet_id in stale:
            del self._locations[complet_id]
        return len(stale)

    # -- message handlers -------------------------------------------------------------

    def _handle_update(self, src: str, body: object) -> None:
        complet_id, address = body  # type: ignore[misc]
        self._locations[complet_id] = address

    def _handle_query(self, src: str, complet_id: object) -> TrackerAddress | None:
        assert isinstance(complet_id, CompletId)
        return self._locations.get(complet_id)


class LocationRegistry(Locator):
    """The home registry (§7 future work): walks start at the home's record."""

    def first_hop(self, tracker: Tracker) -> TrackerAddress:
        """The home's record, unless it has none or names ``tracker``, which the target left."""
        registered = self.resolve(tracker.target_id)
        if registered is not None and registered != tracker.address:
            return registered
        return super().first_hop(tracker)

    def recover_route(self, tracker: Tracker) -> TrackerAddress | None:
        """The home's record, unless it is the failed hop; ``tracker`` re-points there."""
        registered = self.resolve(tracker.target_id)
        if registered is None or registered == tracker.next_hop:
            return None
        self.core.references.shorten(tracker, registered)
        return registered

    def announce(self, addresses: dict[CompletId, TrackerAddress]) -> None:
        """Tell each arrival's home where it lives now."""
        for complet_id, address in addresses.items():
            self.publish(complet_id, address)
