"""The layout monitor (Figure 4, textual).

Connects to multiple Cores through the admin and event interfaces and
offers the GUI's capabilities:

- :meth:`LayoutMonitor.render` — the current layout of every connected
  Core (the GUI's main panel);
- live tracking — subscribes to arrival/departure/retype/shutdown
  events at every connected Core and appends them to a feed;
- :meth:`LayoutMonitor.references` — per-complet reference properties
  (relocator type, invocation counts, traffic);
- manipulation — :meth:`move_complet` (the GUI's drag-and-drop) and
  :meth:`retype_reference`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.admin import CoreAdmin
from repro.core.core import Core
from repro.core.events import (
    COMPLET_ARRIVED,
    COMPLET_DEPARTED,
    CORE_SHUTDOWN,
    REFERENCE_RETYPED,
    Event,
)
from repro.errors import CoreError
from repro.viewer.render import render_events, render_layout, render_references

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster

_TRACKED_EVENTS = (COMPLET_ARRIVED, COMPLET_DEPARTED, CORE_SHUTDOWN, REFERENCE_RETYPED)


class LayoutMonitor:
    """A monitor attached to a cluster at one home Core."""

    def __init__(self, cluster: "Cluster", home: str | None = None) -> None:
        self.cluster = cluster
        self.core: Core = cluster.core(home) if home is not None else cluster.seat
        #: Live feed of observed events, rendered lines in arrival order.
        self.feed: list[str] = []
        self._subscriptions: list[tuple[str, int]] = []
        self._connected: list[str] = []

    # -- connection -------------------------------------------------------------------

    def connect(self, *core_names: str) -> None:
        """Start live tracking of the given Cores (default in :meth:`watch_all`)."""
        for name in core_names:
            if name in self._connected:
                continue
            for event_name in _TRACKED_EVENTS:
                handle = self.core.events.subscribe_remote(
                    name, event_name, self._on_event
                )
                self._subscriptions.append(handle)
            self._connected.append(name)

    def watch_all(self) -> None:
        """Connect to every running Core of the cluster."""
        self.connect(*self.cluster.running_names())

    def disconnect(self) -> None:
        for handle in self._subscriptions:
            try:
                self.core.events.unsubscribe_remote(handle)
            except CoreError:
                pass
        self._subscriptions.clear()
        self._connected.clear()

    def _on_event(self, event: Event) -> None:
        self.feed.append(str(event))

    # -- panels -----------------------------------------------------------------------------

    def snapshots(self) -> list[dict]:
        """Admin snapshots of every running Core, in name order."""
        names = sorted(self.cluster.running_names())
        return [CoreAdmin(self.core, name).snapshot() for name in names]

    def render(self) -> str:
        """The main layout panel."""
        title = f"FarGo layout (t={self.cluster.now:.2f})"
        return render_layout(self.snapshots(), title=title)

    def render_feed(self, limit: int = 20) -> str:
        """The live event feed panel."""
        return render_events(self.feed, limit=limit)

    def references(self, core_name: str, complet_id: str) -> str:
        """The reference-properties panel for one complet."""
        rows = CoreAdmin(self.core, core_name).references(complet_id)
        return render_references(complet_id, rows)

    def render_links(self) -> str:
        """The network panel: configured links and observed traffic.

        The GUI of Figure 4 annotates references with "average network
        bandwidth"; this panel shows the underlying link matrix.
        """
        from repro.util.bytesize import human_bytes

        transport = self.cluster.transport
        names = self.cluster.running_names()
        # Configured bandwidth/latency only exist where the backend
        # models links (simnet); every backend shows observed traffic and
        # live reachability.
        link_model = getattr(transport, "link", None)
        lines = ["links (bandwidth / latency / observed traffic):"]
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                forward = transport.link_stats(a, b)
                backward = transport.link_stats(b, a)
                traffic = human_bytes(forward.bytes + backward.bytes)
                state = "up" if transport.can_reach(a, b) else "DOWN"
                if link_model is not None:
                    link = link_model(a, b)
                    lines.append(
                        f"  {a:<10} <-> {b:<10} {link.bandwidth / 1000:8.0f} KB/s  "
                        f"{link.latency * 1000:6.1f} ms  "
                        f"{traffic:>10}  {state}"
                    )
                else:
                    lines.append(
                        f"  {a:<10} <-> {b:<10} {'unmodelled':>8}  "
                        f"{traffic:>10}  {state}"
                    )
        if len(lines) == 1:
            lines.append("  (no links)")
        return "\n".join(lines)

    # -- manipulation ----------------------------------------------------------------------------

    def move_complet(self, core_name: str, complet_id: str, destination: str) -> None:
        """Drag-and-drop: move a complet between Cores."""
        CoreAdmin(self.core, core_name).move(complet_id, destination)

    def retype_reference(
        self, core_name: str, complet_id: str, target_id: str, type_name: str
    ) -> None:
        """Change the relocator of one outgoing reference."""
        CoreAdmin(self.core, core_name).retype(complet_id, target_id, type_name)

    def profile(self, core_name: str, service: str, **params) -> float:
        """Read a profiling value of a connected Core (instant interface)."""
        return CoreAdmin(self.core, core_name).profile_instant(service, **params)
