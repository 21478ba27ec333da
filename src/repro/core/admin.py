"""Typed administration facade over the ADMIN_QUERY protocol.

:meth:`Core.admin` is the wire-level surface: a string operation name
plus keyword arguments, dispatched by ``_admin_op`` at the target Core.
That surface is what travels in ``ADMIN_QUERY`` envelopes and stays
stringly-typed by necessity; everything *above* it — the shell, the
viewer, scripts, tests — should go through :class:`CoreAdmin` instead,
which gives each operation a real signature:

    cluster.admin("beta").references(complet_id)
    cluster.admin("beta").retype(complet_id, target_id, "pull")
    cluster.admin("beta").snapshot()

A ``CoreAdmin`` is bound to a *via* Core (the administrator's seat,
which issues the query) and a *target* Core name; when the two are the
same, the operation runs locally without network traffic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.complet.tracker import TrackerAddress
    from repro.core.core import Core
    from repro.util.ids import CompletId


class CoreAdmin:
    """Typed handle for administering one (possibly remote) Core."""

    __slots__ = ("via", "target")

    def __init__(self, via: "Core", target: str | None = None) -> None:
        self.via = via
        self.target = target if target is not None else via.name

    def _op(self, operation: str, **kwargs) -> object:
        return self.via.admin(self.target, operation, **kwargs)

    # -- layout ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Layout snapshot: complets, names, trackers, active profiles."""
        result = self._op("snapshot")
        assert isinstance(result, dict)
        return result

    def complets(self) -> list[str]:
        """Ids of the complets hosted at the target Core."""
        result = self._op("complets")
        assert isinstance(result, list)
        return result

    def move(self, complet: str, destination: str) -> None:
        """Move a complet hosted at the target Core to ``destination``."""
        self._op("move", complet=complet, destination=destination)

    def collect_trackers(self) -> int:
        """Run one tracker-GC pass at the target Core; trackers collected."""
        result = self._op("collect_trackers")
        assert isinstance(result, int)
        return result

    # -- references ------------------------------------------------------------

    def references(self, complet: str) -> list[dict]:
        """Describe a hosted complet's outgoing references."""
        result = self._op("references", complet=complet)
        assert isinstance(result, list)
        return result

    def retype(self, complet: str, target: str, type_name: str) -> bool:
        """Retype a hosted complet's outgoing reference by target id."""
        result = self._op("retype", complet=complet, target=target, type=type_name)
        assert isinstance(result, bool)
        return result

    # -- monitoring ------------------------------------------------------------

    def watch(
        self,
        service: str,
        op: str,
        threshold: float,
        *,
        interval: float = 1.0,
        event_name: str | None = None,
        repeat: bool = False,
        **params,
    ) -> int:
        """Install a threshold watch at the target Core; returns its id."""
        result = self._op(
            "watch",
            service=service,
            op=op,
            threshold=threshold,
            interval=interval,
            event_name=event_name,
            repeat=repeat,
            params=params,
        )
        assert isinstance(result, int)
        return result

    def unwatch(self, watch_id: int) -> None:
        self._op("unwatch", watch_id=watch_id)

    def services(self) -> list[str]:
        """Profiling services known at the target Core."""
        result = self._op("services")
        assert isinstance(result, list)
        return result

    def profile_instant(self, service: str, **params) -> float:
        result = self._op("profile_instant", service=service, params=params)
        assert isinstance(result, float)
        return result

    def profile_history(self, service: str, **params) -> list[tuple[float, float]]:
        result = self._op("profile_history", service=service, params=params)
        assert isinstance(result, list)
        return result

    # -- persistence & recovery ------------------------------------------------

    def checkpoint(self, complet: str) -> bytes:
        """Snapshot a complet hosted at the target Core to portable bytes."""
        result = self._op("checkpoint", complet=complet)
        assert isinstance(result, bytes)
        return result

    def restore(self, data: bytes, *, keep_identity: bool = False) -> str:
        """Restore snapshot bytes at the target Core; returns the new id."""
        result = self._op("restore_complet", data=data, keep_identity=keep_identity)
        assert isinstance(result, str)
        return result

    def detector_state(self) -> dict:
        """Per-peer liveness verdicts of the target Core's failure detector.

        Empty when no detector is attached there.
        """
        result = self._op("detector")
        assert isinstance(result, dict)
        return result

    def supervisor_state(self) -> dict:
        """Per-child supervision state at the target Core.

        Restart counts, backoff state, and last exit cause for every
        supervised child process; empty when no
        :class:`~repro.cluster.supervisor.Supervisor` is attached there
        (only the multi-process driver Core carries one).
        """
        result = self._op("supervisor")
        assert isinstance(result, dict)
        return result

    def hosted_trackers(self) -> dict:
        """CompletId -> local TrackerAddress for the target's hosted complets."""
        result = self._op("hosted_trackers")
        assert isinstance(result, dict)
        return result

    def hosted_tracker(self, complet: "CompletId") -> "TrackerAddress | None":
        """The target's local TrackerAddress for ``complet`` if it hosts it, else None."""
        return self._op("hosted_tracker", complet=complet)  # type: ignore[return-value]

    def add_peer(self, peer: str, address: tuple) -> None:
        """Update the target Core's address book for a (re)spawned peer."""
        self._op("add_peer", peer=peer, address=tuple(address))

    def repair_trackers(self, failed: str, relocated: dict) -> int:
        """Repair trackers at the target Core that forward to a dead Core."""
        result = self._op("repair_trackers", failed=failed, relocated=relocated)
        assert isinstance(result, int)
        return result

    def locator_forget(self, core: str) -> int:
        """Drop the target Core's location records naming a dead Core."""
        result = self._op("locator_forget", core=core)
        assert isinstance(result, int)
        return result

    # -- observability ---------------------------------------------------------

    def metrics(self) -> dict:
        """The target Core's metrics-registry snapshot."""
        result = self._op("metrics")
        assert isinstance(result, dict)
        return result

    def store(self) -> dict:
        """The target Core's object-store view.

        ``{"enabled": False}`` when that Core runs without a store;
        otherwise its resolve-cache counters under ``"client"`` and the
        backing store's entry table and statistics under ``"store"``.
        """
        result = self._op("store")
        assert isinstance(result, dict)
        return result

    def spans(self) -> list[dict]:
        """The target Core's finished spans, as plain dicts, oldest first."""
        result = self._op("spans")
        assert isinstance(result, list)
        return result

    def set_tracing(self, enabled: bool) -> None:
        """Toggle span recording at the target Core."""
        self._op("set_tracing", enabled=enabled)

    def clear_spans(self) -> None:
        self._op("clear_spans")

    def __repr__(self) -> str:
        return f"<CoreAdmin {self.target} via {self.via.name}>"
