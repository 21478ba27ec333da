"""The administration surface of a Core: every operation, declared once.

An admin operation is one public method of :class:`CoreAdmin`: its
signature is what callers see, its body is what runs *at the target
Core*.  A ``CoreAdmin`` is bound to a *via* Core (the administrator's
seat, which issues the query) and a *target* Core name:

    cluster.admin("beta").references(complet_id)
    cluster.admin("beta").retype(complet_id, target_id, "pull")
    cluster.admin("beta").snapshot()

When the two are the same Core the body runs in place: no envelope, no
virtual time, also at a Core that has shut down.  Otherwise the call
travels as an ``ADMIN_QUERY`` with the body ``(method name, keywords)``
and the target runs what :data:`OPERATIONS` — the table built from the
methods, the only thing a name from the wire is looked up in — holds
under that name.  :meth:`chaos` alone travels as ``CHAOS``, the kind a
cut link or a partition does not stop, so what cuts a child off can
heal it again.  :meth:`Core.admin` is the same table by hand:
``core.admin("beta", "retype", complet=..., target=..., type="pull")``.
"""

from __future__ import annotations

import functools
import inspect
from collections.abc import Callable

from repro.complet.relocators import relocator_from_name
from repro.complet.stub import Stub, stub_meta, stub_target_id
from repro.errors import CompletError
from repro.net.messages import MessageKind

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from typing import TypeVar

    from repro.complet.anchor import Anchor
    from repro.complet.tracker import TrackerAddress
    from repro.core.core import Core
    from repro.util.ids import CompletId

    _T = TypeVar("_T")

#: Operation name -> ``at_target(admin, keywords)``, one per public method of CoreAdmin.
OPERATIONS: dict[str, Callable[["CoreAdmin", dict], object]] = {}


def dispatch(admin: "CoreAdmin", operation: str, keywords: dict) -> object:
    """Operation ``operation`` by name: sent to the target, or looked up and run here."""
    if admin.target != admin.via.name:
        kind = MessageKind.CHAOS if operation == "chaos" else MessageKind.ADMIN_QUERY
        return admin.via.peer.request(admin.target, kind, (operation, keywords))
    at_target = OPERATIONS.get(operation)
    if at_target is None:
        raise CompletError(f"unknown admin operation {operation!r}")
    return at_target(admin, keywords)


def _operations(cls: type[_T]) -> type[_T]:
    """Make every public method of ``cls`` an admin operation, under its own name.

    Keywords travel under the parameter names; a ``**params`` parameter
    travels as one nested ``params={...}``.  All of it is worked out
    here, once; a call only fills a dict.
    """

    def declare(body: Callable[..., object]) -> Callable[..., object]:
        parameters = list(inspect.signature(body).parameters.values())[1:]
        positional = [p.name for p in parameters if p.kind is p.POSITIONAL_OR_KEYWORD]
        nested = next((p.name for p in parameters if p.kind is p.VAR_KEYWORD), None)
        named = {p.name for p in parameters if p.name != nested}

        def at_target(admin: "CoreAdmin", keywords: dict) -> object:
            if nested is not None:
                keywords = dict(keywords)
                keywords.update(keywords.pop(nested, {}))
            return body(admin, **keywords)

        @functools.wraps(body)
        def call(self: "CoreAdmin", *args: object, **kwargs: object) -> object:
            if self.target == self.via.name:
                return body(self, *args, **kwargs)
            keywords: dict = dict(zip(positional, args, strict=False))
            if nested is not None:
                keywords[nested] = {key: kwargs.pop(key) for key in kwargs.keys() - named}
            keywords.update(kwargs)
            return dispatch(self, body.__name__, keywords)

        OPERATIONS[body.__name__] = at_target
        return call

    for name, body in list(vars(cls).items()):
        if inspect.isfunction(body) and not name.startswith("_"):
            setattr(cls, name, declare(body))
    return cls


@_operations
class CoreAdmin:
    """Typed handle for administering one (possibly remote) Core.

    An operation's body always runs on a handle whose ``via`` is the
    Core it administers.  Three operations also answer to the Python
    name their callers use (``restore``, ``detector_state``,
    ``supervisor_state``); the method's own name is what travels.
    """

    __slots__ = ("via", "target")

    def __init__(self, via: "Core", target: str | None = None) -> None:
        self.via = via
        self.target = target if target is not None else via.name

    def _hosted(self, complet: str) -> "Anchor":
        anchor = self.via.repository.find_by_str(complet)
        if anchor is None:
            raise CompletError(f"Core {self.via.name!r} does not host complet {complet!r}")
        return anchor

    def _outgoing(self, complet: str) -> list[Stub]:
        from repro.complet.closure import compute_closure

        return compute_closure(self._hosted(complet)).outgoing

    # -- layout ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Layout snapshot: complets, names, trackers, active profiles."""
        return self.via.snapshot()

    def complets(self) -> list[str]:
        """Ids of the complets hosted at the target Core."""
        return [str(complet_id) for complet_id in self.via.repository.complet_ids()]

    def move(self, complet: str, destination: str) -> bool:
        """Move a complet hosted at the target Core to ``destination``; whether it moved."""
        return self.via.move(self._hosted(complet), destination)

    def collect_trackers(self) -> int:
        """Run one tracker-GC pass at the target Core; trackers collected."""
        return self.via.repository.collect_trackers()

    def shutdown(self, delay: float = 0.0) -> None:
        """Shut the target Core down, ``delay`` seconds from now.

        A small delay lets the reply reach a remote requester before the
        Core leaves the network and closes its listener (the
        multi-process launcher's use).
        """
        if delay > 0.0:
            self.via.scheduler.call_after(delay, self.via.shutdown)
        else:
            self.via.shutdown()

    # -- references ------------------------------------------------------------

    def references(self, complet: str) -> list[dict]:
        """Describe a hosted complet's outgoing references."""
        rows = []
        for stub in self._outgoing(complet):
            meta = stub_meta(stub)
            rows.append(
                {
                    "target": str(stub_target_id(stub)),
                    "type": meta.type_name,
                    "invocations": meta.invocation_count,
                    "bytes": meta.bytes_transferred,
                    "local": meta.is_local,
                }
            )
        return rows

    def retype(self, complet: str, target: str, type: str) -> bool:
        """Retype a hosted complet's outgoing reference by target id."""
        for stub in self._outgoing(complet):
            if str(stub_target_id(stub)) == target:
                stub_meta(stub).set_relocator(relocator_from_name(type))
                return True
        raise CompletError(f"complet {complet!r} has no reference to {target!r}")

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
        return self.via.monitor.watch(
            service, op, threshold,
            interval=interval, event_name=event_name, repeat=repeat, **params,
        )

    def unwatch(self, watch_id: int) -> None:
        self.via.monitor.unwatch(watch_id)

    def services(self) -> list[str]:
        """Profiling services known at the target Core."""
        return self.via.profiler.services()

    def profile_instant(self, service: str, **params) -> float:
        return self.via.profiler.instant(service, **params)

    def profile_start(self, service: str, *, interval: float = 1.0, **params) -> tuple:
        """Start (or join) continuous profiling at the target Core; the profile's key."""
        return self.via.profiler.start(service, interval=interval, **params)

    def profile_history(self, service: str, **params) -> list[tuple[float, float]]:
        return self.via.profiler.history(service, **params)

    # -- persistence & recovery ------------------------------------------------

    def checkpoint(self, complet: str) -> bytes:
        """Snapshot a complet hosted at the target Core to portable bytes."""
        from repro.core import persistence

        return persistence.snapshot(self.via, self._hosted(complet)).to_bytes()

    def restore_complet(self, data: bytes, *, keep_identity: bool = False) -> "CompletId":
        """Restore snapshot bytes at the target Core; returns the revival's id.

        The one restore: the sanitizer stamps it and its location is
        published.  ``keep_identity`` reclaims the original identity,
        refused with a typed error while a live copy is known.
        """
        from repro.core.persistence import Snapshot
        from repro.recovery.checkpoint import restore_record

        snapshot = Snapshot.from_bytes(data)
        return restore_record(self.via, snapshot, keep_identity=keep_identity)

    restore = restore_complet

    def publish(self, event: str, **data) -> None:
        """Publish monitor event ``event`` on the target Core's bus."""
        self.via.events.publish(event, **data)

    def detector(self) -> dict:
        """Per-peer liveness verdicts of the target Core's failure detector.

        Empty when no detector is attached there.
        """
        detector = self.via.detector
        return detector.state() if detector is not None else {}  # type: ignore[attr-defined]

    detector_state = detector

    def supervisor(self) -> dict:
        """Per-child supervision state at the target Core.

        Restart counts, backoff state, and last exit cause for every
        supervised child process; empty when no
        :class:`~repro.cluster.supervisor.Supervisor` is attached there
        (only the multi-process driver Core carries one).
        """
        supervisor = self.via.supervisor
        return supervisor.state() if supervisor is not None else {}  # type: ignore[attr-defined]

    supervisor_state = supervisor

    def hosted_trackers(self) -> dict:
        """CompletId -> local TrackerAddress for the target's hosted complets.

        The supervisor repairs survivors' trackers toward a reborn Core
        with exactly this map.
        """
        hosted = {}
        for complet_id in self.via.repository.complet_ids():
            address = self.hosted_tracker(complet_id)
            if address is not None:
                hosted[complet_id] = address
        return hosted

    def hosted_tracker(self, complet: "CompletId") -> "TrackerAddress | None":
        """The target's local TrackerAddress for ``complet`` if it hosts it, else None."""
        tracker = self.via.repository.existing_tracker(complet)
        return tracker.address if tracker is not None and tracker.is_local else None

    def add_peer(self, peer: str, address: tuple) -> None:
        """Update the target Core's address book for a (re)spawned peer.

        Stale pooled connections to it are invalidated.
        """
        add_peer = getattr(self.via.peer.transport, "add_peer", None)
        if add_peer is None:
            raise CompletError(f"transport of Core {self.via.name!r} has no address book")
        add_peer(peer, tuple(address))

    def chaos(self, hook: str, args: tuple = (), **params) -> None:
        """Apply chaos hook ``hook`` — ``set_link``, ``partition`` or
        ``heal_partition`` — to the target Core's transport."""
        if hook not in ("set_link", "partition", "heal_partition"):
            raise CompletError(f"{hook!r} is not a chaos hook")
        getattr(self.via.peer.transport, hook)(*args, **params)

    def repair_trackers(self, failed: str, relocated: dict) -> int:
        """Repair trackers at the target Core that forward to a dead Core."""
        return self.via.references.repair_dead_core(failed, relocated)

    def forwarding_to(self, core: str) -> list:
        """Ids of the complets whose tracker at the target Core forwards to ``core``."""
        return [
            tracker.target_id
            for tracker in self.via.repository.trackers()
            if tracker.next_hop is not None and tracker.next_hop.core == core
        ]

    def locator_forget(self, core: str) -> int:
        """Drop the target Core's location records naming a dead Core."""
        return self.via.locator.forget_core(core)

    def reconcile(self, homes: dict) -> dict:
        """A revived Core gives up its copies of complets that live elsewhere.

        Each complet of ``homes`` (id -> the tracker address it lives
        behind) is dropped at the target and its tracker forwards there.
        The complets the target still hosts are republished and returned
        as ``hosted_trackers()`` does.
        """
        repository = self.via.repository
        for complet_id, home in homes.items():
            repository.release(complet_id)
            tracker = repository.existing_tracker(complet_id)
            assert tracker is not None  # the one it hosted the complet behind
            tracker.point_to(home)
        hosted = self.hosted_trackers()
        for complet_id, address in hosted.items():
            self.via.locator.publish(complet_id, address)
        return hosted

    def repair_revived(self, hosted: dict) -> int:
        """Re-point the target's dangling trackers at complets ``hosted`` alive after all."""
        return self.via.references.repair_revived(hosted)

    # -- observability ---------------------------------------------------------

    def metrics(self) -> dict:
        """The target Core's metrics-registry snapshot."""
        return self.via.metrics.snapshot()

    def store(self) -> dict:
        """The target Core's object-store view.

        ``{"enabled": False}`` when that Core runs without a store;
        otherwise its resolve-cache counters under ``"client"`` and the
        backing store's entry table and statistics under ``"store"``.
        """
        client = self.via.store_client
        if client is None:
            return {"enabled": False}
        store = client.store.snapshot()
        return {"enabled": True, "client": client.stats_snapshot(), "store": store}

    def spans(self) -> list[dict]:
        """The target Core's finished spans, as plain dicts, oldest first."""
        return [span.to_dict() for span in self.via.tracer.spans()]

    def set_tracing(self, enabled: bool) -> None:
        """Toggle span recording at the target Core."""
        self.via.tracer.enabled = bool(enabled)

    def clear_spans(self) -> None:
        self.via.tracer.clear()

    def __repr__(self) -> str:
        return f"<CoreAdmin {self.target} via {self.via.name}>"
