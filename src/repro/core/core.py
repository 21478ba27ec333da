"""The Core: FarGo's stationary per-node runtime (Figure 1).

A Core hosts complets and provides the Core API of the paper: complet
instantiation (local and remote), movement, reference reflection
(``get_meta_ref``), naming, profiling, monitor events, and
administration.  Cores never move; complets move between them, and the
process boundaries of the application change as they do.
"""

from __future__ import annotations

import pickle

from repro.complet.anchor import Anchor, qualified_class_ref, resolve_class_ref
from repro.complet.marshal import CloneStreamCache
from repro.complet.continuation import Continuation
from repro.complet.metaref import MetaRef
from repro.complet.relocators import relocator_from_name
from repro.complet.stub import Stub, stub_class_for, stub_core, stub_meta, stub_tracker
from repro.core.admin import OPERATIONS, CoreAdmin, dispatch
from repro.core.events import CALL_RETRIED, CORE_SHUTDOWN, ONEWAY_FAILED, EventBus
from repro.core.invocation import InvocationUnit
from repro.core.locator import Locator
from repro.core.movement import MovementUnit
from repro.core.naming import NamingService
from repro.core.references import ReferenceHandler
from repro.core.repository import Repository
from repro.errors import CompletError, CoreDownError, NotAStubError
from repro.metrics.registry import MetricsRegistry
from repro.monitor.events import MonitorEventEngine
from repro.monitor.profiler import Profiler
from repro.net.messages import Envelope, MessageKind
from repro.net.peer import PeerInterface
from repro.net.retry import RetryPolicy
from repro.net.serializer import PLAIN
from repro.net.transport import Transport
from repro.sim.scheduler import Scheduler
from repro.store.proxy import DEFAULT_OFFLOAD_THRESHOLD, StoreClient
from repro.store.store import ObjectStore
from repro.trace.tracer import Tracer

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.sanitizer import LayoutSanitizer
    from repro.monitor.profiler import ProfilingSession
    from repro.util.ids import CompletId


class Core:
    """One stationary runtime node."""

    def __init__(
        self,
        name: str,
        transport: Transport,
        scheduler: Scheduler,
        *,
        locator: type[Locator] = Locator,
        profile_cache_ttl: float = 1.0,
        retry_policy: RetryPolicy | None = None,
        rpc_timeout: float | None = None,
        tracing: bool = False,
        store: "ObjectStore | None" = None,
        store_threshold: int | None = None,
    ) -> None:
        self.name = name
        self.scheduler = scheduler
        #: Default retry policy for this Core's outgoing cross-Core calls.
        self.retry_policy = retry_policy
        self.is_running = True

        self.peer = PeerInterface(name, transport)
        if retry_policy is not None:
            self.peer.configure_retry(retry_policy)
        if rpc_timeout is not None:
            self.peer.configure_timeout(rpc_timeout)
        #: Observability: span recorder + unified metrics, shared with the
        #: RPC endpoint so every cross-Core envelope carries trace context.
        self.tracer = Tracer(name, scheduler.clock, enabled=tracing)
        self.metrics = MetricsRegistry(name)
        self.peer.endpoint.tracer = self.tracer
        self.peer.endpoint.metrics = self.metrics
        #: Large-payload offloading: when a store is attached, the marshal
        #: layer ships payloads above the threshold as store proxies.
        self.store_client: StoreClient | None = None
        if store is not None:
            self.store_client = StoreClient(
                store,
                threshold=(
                    store_threshold
                    if store_threshold is not None
                    else DEFAULT_OFFLOAD_THRESHOLD
                ),
                metrics=self.metrics,
                tracer=self.tracer,
            )
        self.repository = Repository(self)
        #: Memoized clone streams keyed by (complet id, stamp mode); the
        #: marshal layer consults and fills this (see CloneStreamCache).
        self.marshal_cache = CloneStreamCache()
        self.events = EventBus(self)
        self.profiler = Profiler(self, cache_ttl=profile_cache_ttl)
        self.monitor = MonitorEventEngine(self)
        self.references = ReferenceHandler(self)
        #: Where walks start, calls re-route and arrivals are announced:
        #: tracker chains, or the home registry (:mod:`repro.core.locator`).
        self.locator = locator(self)
        self.invocation = InvocationUnit(self)
        self.movement = MovementUnit(self)
        self.naming = NamingService(self)
        #: Heartbeat-based failure detector, attached by the recovery
        #: layer (:meth:`repro.cluster.Cluster.enable_recovery`) or, at a
        #: multi-process driver, by the Supervisor.  Every Core answers
        #: heartbeats whether or not it runs a detector.
        self.detector: object | None = None
        #: Shared dynamic race detector, attached by the cluster when
        #: built with ``sanitize=True`` (:mod:`repro.analysis.sanitizer`).
        self.sanitizer: "LayoutSanitizer | None" = None
        #: Process supervisor, attached by
        #: :class:`repro.cluster.supervisor.Supervisor` to the Core it
        #: drives re-admission from (the multi-process driver).
        self.supervisor: object | None = None

        self.peer.register(MessageKind.HEARTBEAT, self._handle_heartbeat)
        self.peer.register_raw(MessageKind.INSTANTIATE, self._handle_instantiate)
        self.peer.register_raw(MessageKind.PROFILE_PROBE, self._handle_probe)
        self.peer.register(MessageKind.CHAOS, self._handle_chaos)
        # Last on purpose: the multi-process launcher takes an answered admin
        # query to mean every handler of this Core is registered.
        self.peer.register(MessageKind.ADMIN_QUERY, self._handle_admin)
        self.peer.endpoint.on_oneway_error = self._on_oneway_error
        self.peer.endpoint.on_retry = self._on_call_retried

    # -- fault-tolerance events ------------------------------------------------------

    def _on_oneway_error(self, envelope: Envelope, error: BaseException) -> None:
        """A one-way message failed in one of this Core's handlers."""
        if envelope.kind is MessageKind.EVENT_NOTIFY:
            # Do not publish an event about a failed event delivery:
            # two Cores with broken listeners would ping-pong forever.
            return
        self.events.publish(
            ONEWAY_FAILED,
            kind=envelope.kind.value,
            source=envelope.src,
            error=repr(error),
        )

    def _on_call_retried(
        self,
        dst: str,
        kind: MessageKind,
        attempt: int,
        delay: float,
        error: BaseException,
    ) -> None:
        """An outgoing call failed and is about to be retried."""
        self.events.publish(
            CALL_RETRIED,
            destination=dst,
            kind=kind.value,
            attempt=attempt,
            delay=delay,
            error=repr(error),
        )

    # -- Core API: instantiation ---------------------------------------------------------

    def instantiate(self, anchor_cls: type[Anchor], *args, at: str | None = None, **kwargs) -> Stub:
        """Create a complet of ``anchor_cls`` and return a stub for it.

        ``at`` asks another Core to host the new complet (remote
        instantiation); constructor arguments then travel by value.
        """
        require_running(self)
        stub_cls = stub_class_for(anchor_cls)
        return stub_cls(*args, _core=self, _at=at, **kwargs)

    def instantiate_remote(
        self, anchor_cls: type[Anchor], at: str, args: tuple, kwargs: dict
    ) -> object:
        """Ask Core ``at`` to construct a complet; returns its wire token.

        Used by the stub constructor; applications normally call
        :meth:`instantiate` with ``at=``.
        """
        payload = self.invocation.marshaler.dumps(
            (qualified_class_ref(anchor_cls), args, kwargs)
        )
        reply = self.peer.request_raw(at, MessageKind.INSTANTIATE, payload)
        return PLAIN.loads(reply)

    def _handle_instantiate(self, src: str, payload: bytes) -> bytes:
        anchor_ref, args, kwargs = self.invocation.marshaler.loads(payload)  # type: ignore[misc]
        anchor_cls = resolve_class_ref(anchor_ref)
        if not (isinstance(anchor_cls, type) and issubclass(anchor_cls, Anchor)):
            raise CompletError(f"{anchor_ref!r} is not an anchor class")
        tracker = self.repository.install_new(anchor_cls, args, kwargs)
        from repro.complet.relocators import Link
        from repro.complet.tokens import RefToken

        token = RefToken(tracker.target_id, tracker.anchor_ref, tracker.address, Link())
        return pickle.dumps(token)

    # -- Core API: reflection --------------------------------------------------------------

    @staticmethod
    def get_meta_ref(stub: Stub) -> MetaRef:
        """The meta reference reifying ``stub``'s complet reference (§3.2)."""
        if not isinstance(stub, Stub):
            raise NotAStubError(
                f"get_meta_ref expects a complet reference, got {type(stub).__name__}"
            )
        return stub_meta(stub)

    def retype_reference(self, stub: Stub, relocator_name: str) -> None:
        """Change a reference's relocation type by name (shell/scripts)."""
        self.get_meta_ref(stub).set_relocator(relocator_from_name(relocator_name))

    @staticmethod
    def new_reference(stub: Stub) -> Stub:
        """A fresh, independent reference to the same complet.

        The new stub shares the Core-local tracker (one per target per
        Core) but has its own meta reference — default ``link`` type,
        zeroed statistics — so it can be retyped without affecting the
        original.  This is how a program holds two differently-typed
        references to one complet (e.g. a ``link`` master path and a
        ``duplicate`` replication path).
        """
        from repro.complet.relocators import Link

        if not isinstance(stub, Stub):
            raise NotAStubError(
                f"new_reference expects a complet reference, got {type(stub).__name__}"
            )
        return type(stub)._fargo_from_tracker(
            stub_core(stub), stub_tracker(stub), Link()
        )

    # -- Core API: movement -------------------------------------------------------------------

    def move(
        self,
        target: Stub | Anchor | "CompletId",
        destination: str,
        continuation: str | None = None,
        args: tuple = (),
        kwargs: dict | None = None,
    ) -> bool:
        """Move a complet (§3.3), optionally with a continuation method;
        False when it was at ``destination`` already."""
        require_running(self)
        cont = None
        if continuation is not None:
            cont = Continuation(continuation, tuple(args), dict(kwargs or {}))
        return self.movement.move(target, destination, cont)

    # -- Core API: naming convenience -------------------------------------------------------------

    def bind(self, name: str, stub: Stub, *, replace: bool = False) -> None:
        self.naming.bind(name, stub, replace=replace)

    def lookup(self, name: str) -> Stub:
        return self.naming.lookup(name)

    # -- Core API: profiling convenience ---------------------------------------------------------

    def profile_instant(self, service: str, **params) -> float:
        return self.profiler.instant(service, **params)

    def profile(self, service: str, interval: float = 1.0, **params) -> "ProfilingSession":
        """Open a continuous-monitoring session (preferred API).

        Use as a context manager — ``with core.profile("coreCPU") as s:
        ... s.value`` — or call ``s.stop()`` explicitly.
        """
        return self.profiler.session(service, interval=interval, **params)

    def profile_get(self, service: str, **params) -> float:
        return self.profiler.get(service, **params)

    # -- lifecycle -----------------------------------------------------------------------------------

    def shutdown(self) -> None:
        """Shut this Core down.

        Fires ``coreShutdown`` first — synchronously, so listeners (e.g.
        the reliability rule of §4.3) can still move complets off this
        Core — then cancels all profiling and leaves the network.
        """
        if not self.is_running:
            return
        self.events.publish(CORE_SHUTDOWN, core=self.name)
        self.monitor.shutdown()
        self.profiler.shutdown()
        self.is_running = False
        self.peer.close()
        if self.store_client is not None:
            # A Core is freed only by a full cyclic collection; its cached
            # payloads need not wait for one.
            self.store_client.clear_cache()

    # -- administration (shell, viewer, scripts) ----------------------------------------------------

    def snapshot(self) -> dict:
        """Local layout snapshot: complets, names, trackers."""
        complets = []
        for complet_id in self.repository.complet_ids():
            complets.append(
                {
                    "id": str(complet_id),
                    "type": complet_id.type_name,
                    "short": complet_id.short(),
                }
            )
        return {
            "core": self.name,
            "complets": complets,
            "names": self.naming.names(),
            "tracker_count": self.repository.tracker_count(),
            "active_profiles": self.profiler.active_profiles(),
        }

    def admin(self, core_name: str, operation: str, **kwargs) -> object:
        """Run an administration operation on this or a remote Core."""
        return dispatch(CoreAdmin(self, core_name), operation, kwargs)

    def _handle_admin(self, src: str, body: object) -> object:
        operation, kwargs = body  # type: ignore[misc]
        return dispatch(CoreAdmin(self), operation, kwargs)

    def _handle_chaos(self, src: str, body: object) -> object:
        # The kind that crosses cut links and partitions runs the chaos hook and nothing else.
        _operation, kwargs = body  # type: ignore[misc]
        return OPERATIONS["chaos"](CoreAdmin(self), kwargs)

    def _handle_probe(self, src: str, payload: bytes) -> bytes:
        # Echo probe: first 8 bytes carry the size already received; the
        # reply is intentionally tiny so the request leg dominates.
        return b"ok"

    def _handle_heartbeat(self, src: str, body: object) -> str:
        """Answer a failure-detector ping; reachability is the answer."""
        return self.name

    def __repr__(self) -> str:
        state = "up" if self.is_running else "down"
        return f"<Core {self.name} ({state}, {len(self.repository)} complets)>"


def require_running(core: Core) -> None:
    """Guard helper for components that must not act on a stopped Core."""
    if not core.is_running:
        raise CoreDownError(f"Core {core.name!r} has been shut down")
