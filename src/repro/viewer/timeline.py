"""Movement timelines: a space-time view of complet locations.

The Figure 4 monitor tracks movements live; this extension keeps the
history and renders it — per complet, which Core hosted it during which
interval of virtual time — giving experiments a one-glance picture of
how a layout evolved::

    movement timeline (t=0.0 .. 60.0)
    client  c1 ................ c2 .........................
    server  c2 ........................................ safe

Build one from a cluster's event stream (it subscribes to arrivals and
departures at every connected Core) or feed it events manually.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.core import Core
from repro.core.events import COMPLET_ARRIVED, COMPLET_DEPARTED, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster


@dataclass(slots=True)
class Residency:
    """One complet's stay at one Core."""

    core: str
    since: float
    until: float | None = None  # None while current

    def overlaps(self, start: float, end: float) -> bool:
        finish = self.until if self.until is not None else float("inf")
        return self.since < end and finish > start


@dataclass(slots=True)
class _History:
    complet: str
    type_name: str
    residencies: list[Residency] = field(default_factory=list)

    def current(self) -> Residency | None:
        if self.residencies and self.residencies[-1].until is None:
            return self.residencies[-1]
        return None


class MovementTimeline:
    """Recorder + renderer of complet residency history."""

    def __init__(self, cluster: "Cluster", home: str | None = None) -> None:
        self.cluster = cluster
        self.core: Core = cluster.core(home) if home is not None else cluster.seat
        self._histories: dict[str, _History] = {}
        self._subscriptions: list[tuple[str, int]] = []

    # -- recording -----------------------------------------------------------------

    def watch_all(self) -> None:
        """Subscribe to movement events at every running Core."""
        for name in self.cluster.running_names():
            for event_name in (COMPLET_ARRIVED, COMPLET_DEPARTED):
                handle = self.core.events.subscribe_remote(name, event_name, self.record)
                self._subscriptions.append(handle)

    def track(self, complet_id: str, type_name: str, core: str, *, since: float | None = None) -> None:
        """Seed the initial residency of a complet (before any move)."""
        start = since if since is not None else self.cluster.now
        history = self._histories.setdefault(
            complet_id, _History(complet_id, type_name)
        )
        history.residencies.append(Residency(core, start))

    def record(self, event: Event) -> None:
        """Fold one arrival/departure event into the history."""
        complet_id = event.data.get("complet")
        if complet_id is None:
            return
        history = self._histories.setdefault(
            complet_id, _History(complet_id, event.data.get("type", ""))
        )
        if event.name == COMPLET_ARRIVED:
            current = history.current()
            if current is not None:
                current.until = event.time
            history.residencies.append(Residency(event.origin, event.time))
        elif event.name == COMPLET_DEPARTED:
            current = history.current()
            if current is not None and current.core == event.origin:
                current.until = event.time

    # -- queries --------------------------------------------------------------------------

    def residencies(self, complet_id: str) -> list[Residency]:
        history = self._histories.get(complet_id)
        return list(history.residencies) if history else []

    def location_at(self, complet_id: str, time: float) -> str | None:
        """Where a complet was at a given virtual instant."""
        for residency in self.residencies(complet_id):
            finish = residency.until if residency.until is not None else float("inf")
            if residency.since <= time < finish:
                return residency.core
        return None

    def move_count(self, complet_id: str) -> int:
        return max(0, len(self.residencies(complet_id)) - 1)

    # -- rendering ------------------------------------------------------------------------------

    def render(self, *, width: int = 60, start: float = 0.0, end: float | None = None) -> str:
        """ASCII space-time chart: one row per complet, labels at moves."""
        horizon = end if end is not None else max(self.cluster.now, start + 1e-9)
        span = max(horizon - start, 1e-9)
        label_width = max(
            (len(self._label(h)) for h in self._histories.values()), default=4
        )
        lines = [f"movement timeline (t={start:g} .. {horizon:g})"]
        for key in sorted(self._histories):
            history = self._histories[key]
            row = [" "] * width
            for residency in history.residencies:
                if not residency.overlaps(start, horizon):
                    continue
                finish = residency.until if residency.until is not None else horizon
                lo = int((max(residency.since, start) - start) / span * (width - 1))
                hi = int((min(finish, horizon) - start) / span * (width - 1))
                for i in range(lo, hi + 1):
                    row[i] = "."
                label = residency.core
                for offset, ch in enumerate(label):
                    if lo + offset < width:
                        row[lo + offset] = ch
            lines.append(f"{self._label(history):<{label_width}}  {''.join(row)}")
        return "\n".join(lines)

    @staticmethod
    def _label(history: _History) -> str:
        return history.type_name or history.complet

    def disconnect(self) -> None:
        for handle in self._subscriptions:
            self.core.events.unsubscribe_remote(handle)
        self._subscriptions.clear()
