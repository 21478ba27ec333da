"""The Cluster: a set of Cores over one transport and clock.

The transport backend is pluggable (``transport=`` below): the default
is the deterministic simulated network; ``transport="tcp"`` gives every
Core its own real TCP hub (one listener socket per Core, loopback
wiring), which is the in-process variant of the multi-process deployment
in :mod:`repro.cluster.launch`.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from collections.abc import Callable, Iterable, Iterator
from typing import TYPE_CHECKING

from repro.complet.anchor import Anchor
from repro.complet.stub import Stub, stub_core, stub_target_id, stub_tracker
from repro.core.admin import CoreAdmin
from repro.core.core import Core
from repro.errors import ConfigurationError, CoreNotFoundError
from repro.metrics.registry import merge_snapshots
from repro.net.batching import BatchingTransport, BatchPolicy
from repro.net.retry import RetryPolicy
from repro.net.simnet import SimTransport
from repro.net.tcp import TcpTransport
from repro.net.transport import NetworkStats, Transport, TransportGroup
from repro.store import FileStore, InMemoryStore, ObjectStore
from repro.sim.clock import Clock, RealClock, VirtualClock
from repro.sim.scheduler import Scheduler
from repro.trace.export import Trace, assemble_traces, chrome_trace_json
from repro.trace.tracer import Span

#: Factory signature for ``transport=``: builds one hub per Core.
TransportFactory = Callable[[str, Scheduler], Transport]

#: Granularity of the real-clock :meth:`Cluster.advance` pump.
_PUMP_INTERVAL = 0.02

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.recovery import (
        CheckpointManager,
        CheckpointStore,
        DetectorConfig,
        RecoveryManager,
    )


class Cluster:
    """A deployment of Cores sharing a clock and a network.

    The cluster is the experimenter's handle: it creates Cores, shapes
    links, advances virtual time, injects failures, and reads network
    accounting.  Application code only ever sees Cores and stubs.
    """

    def __init__(
        self,
        names: Iterable[str] = (),
        *,
        bandwidth: float = 1_000_000.0,
        latency: float = 0.01,
        clock: Clock | None = None,
        transport: str | Transport | TransportFactory = "sim",
        eager_pointer_updates: bool = True,
        use_location_registry: bool = False,
        profile_cache_ttl: float = 1.0,
        retry_policy: RetryPolicy | None = None,
        rpc_timeout: float | None = None,
        tracing: bool = False,
        store: "str | bool | ObjectStore | None" = None,
        store_threshold: int | None = None,
        batching: "bool | BatchPolicy" = False,
        sanitize: bool = False,
    ) -> None:
        """``transport`` selects the substrate:

        - ``"sim"`` (default) — one shared deterministic
          :class:`~repro.net.simnet.SimTransport`; ``bandwidth`` and
          ``latency`` configure its default links.
        - ``"tcp"`` — a real :class:`~repro.net.tcp.TcpTransport` hub
          per Core on loopback; the clock defaults to a
          :class:`~repro.sim.clock.RealClock` and :meth:`advance`
          becomes a real-time pump.
        - a :class:`~repro.net.transport.Transport` instance — shared
          by every Core (it must host multiple nodes).
        - a callable ``(name, scheduler) -> Transport`` — builds one
          hub per Core; hubs exposing ``local_address``/``add_peer``
          (the TCP shape) are wired to each other automatically.

        ``store`` enables large-payload offloading (:mod:`repro.store`):
        ``"memory"`` (or ``True``) shares one
        :class:`~repro.store.InMemoryStore` across the Cores, ``"file"``
        a cluster-owned :class:`~repro.store.FileStore` in a temporary
        directory (removed by :meth:`close`), or pass an
        :class:`~repro.store.ObjectStore` instance.  ``store_threshold``
        overrides the per-Core offload threshold in bytes.

        ``batching`` wraps every transport hub in a
        :class:`~repro.net.batching.BatchingTransport`; pass ``True``
        for the default :class:`~repro.net.batching.BatchPolicy` or a
        policy instance for custom flush thresholds.

        ``sanitize`` attaches a shared
        :class:`~repro.analysis.sanitizer.LayoutSanitizer`: every move,
        restore, and retype is stamped with a vector clock, concurrent
        conflicting operations are recorded as races
        (``cluster.sanitizer.races``, the ``sanitizer.races`` metric,
        and FG410 diagnostics from :meth:`analyze`).  In-process
        backends only.
        """
        if clock is None:
            clock = RealClock() if transport == "tcp" else VirtualClock()
        self.scheduler = Scheduler(clock)
        #: Per-Core hubs (empty when one shared transport carries all Cores).
        self.transports: dict[str, Transport] = {}
        self._shared_transport: Transport | None = None
        self._transport_factory: TransportFactory | None = None
        if transport == "sim":
            self._shared_transport = SimTransport(
                self.scheduler,
                default_bandwidth=bandwidth,
                default_latency=latency,
            )
        elif transport == "tcp":
            self._transport_factory = lambda name, scheduler: TcpTransport(scheduler)
        elif isinstance(transport, Transport):
            self._shared_transport = transport
        elif callable(transport):
            self._transport_factory = transport
        else:
            raise ConfigurationError(
                f"transport must be 'sim', 'tcp', a Transport, or a factory; "
                f"got {transport!r}"
            )
        self._batch_policy: BatchPolicy | None = None
        if batching:
            self._batch_policy = (
                batching if isinstance(batching, BatchPolicy) else BatchPolicy()
            )
            if self._shared_transport is not None:
                self._shared_transport = BatchingTransport(
                    self._shared_transport, self._batch_policy
                )
        self._store: ObjectStore | None = None
        self._owned_store_dir: str | None = None
        self._owns_store = False
        if store is True:
            store = "memory"
        if store in (None, False):
            pass
        elif store == "memory":
            self._store = InMemoryStore()
            self._owns_store = True
        elif store == "file":
            root = tempfile.mkdtemp(prefix="repro-store-")
            self._store = FileStore(root)
            self._owned_store_dir = root
            self._owns_store = True
        elif isinstance(store, ObjectStore):
            self._store = store
        else:
            raise ConfigurationError(
                f"store must be 'memory', 'file', an ObjectStore, or None; "
                f"got {store!r}"
            )
        self._store_threshold = store_threshold
        self._eager_pointer_updates = eager_pointer_updates
        self._use_location_registry = use_location_registry
        self._profile_cache_ttl = profile_cache_ttl
        self._retry_policy = retry_policy
        self._rpc_timeout = rpc_timeout
        self._tracing = tracing
        self.cores: dict[str, Core] = {}
        #: Recovery layer, attached by :meth:`enable_recovery`.
        self.recovery: "RecoveryManager | None" = None
        self.checkpoints: "CheckpointManager | None" = None
        self._detector_config: "DetectorConfig | None" = None
        #: Script engines attached to this cluster (interaction analysis
        #: reads their installed scripts).
        self._engines: list = []
        #: Shared dynamic race detector (``sanitize=True``), or None.
        self.sanitizer = None
        if sanitize:
            from repro.analysis.sanitizer import LayoutSanitizer

            self.sanitizer = LayoutSanitizer()
        for name in names:
            self.add_core(name)

    # -- construction ---------------------------------------------------------------

    def add_core(self, name: str, **core_kwargs) -> Core:
        """Create and register a new Core."""
        core_kwargs.setdefault("eager_pointer_updates", self._eager_pointer_updates)
        core_kwargs.setdefault("use_location_registry", self._use_location_registry)
        core_kwargs.setdefault("profile_cache_ttl", self._profile_cache_ttl)
        core_kwargs.setdefault("retry_policy", self._retry_policy)
        core_kwargs.setdefault("rpc_timeout", self._rpc_timeout)
        core_kwargs.setdefault("tracing", self._tracing)
        core_kwargs.setdefault("store", self._store)
        core_kwargs.setdefault("store_threshold", self._store_threshold)
        hub = self._transport_for(name)
        core = Core(name, hub, self.scheduler, **core_kwargs)
        core.sanitizer = self.sanitizer
        self.cores[name] = core
        if self._shared_transport is None:
            self._wire_hub(name, hub)
        if self._detector_config is not None:
            self._attach_detector(core)
        if self.checkpoints is not None:
            self.checkpoints.attach(core)
        if self.recovery is not None:
            self.recovery.attach(core)
        return core

    def _transport_for(self, name: str) -> Transport:
        if self._shared_transport is not None:
            return self._shared_transport
        assert self._transport_factory is not None
        hub = self._transport_factory(name, self.scheduler)
        if self._batch_policy is not None:
            hub = BatchingTransport(hub, self._batch_policy)
        self.transports[name] = hub
        return hub

    def _wire_hub(self, name: str, hub: Transport) -> None:
        """Teach per-Core hubs each other's addresses (TCP-shaped hubs)."""
        local_address = getattr(hub, "local_address", None)
        if local_address is None:
            return
        address = local_address(name)
        for other, other_hub in self.transports.items():
            if other == name:
                continue
            other_hub.add_peer(name, address)  # type: ignore[attr-defined]
            hub.add_peer(other, other_hub.local_address(other))  # type: ignore[attr-defined]

    @property
    def transport(self) -> Transport:
        """The cluster-wide transport view.

        The shared hub when one transport carries every Core; otherwise
        a :class:`~repro.net.transport.TransportGroup` over the per-Core
        hubs (fresh each access, so it tracks Cores added later).
        """
        if self._shared_transport is not None:
            return self._shared_transport
        return TransportGroup(dict(self.transports))

    def core(self, name: str) -> Core:
        try:
            return self.cores[name]
        except KeyError:
            raise CoreNotFoundError(f"cluster has no Core named {name!r}") from None

    def __getitem__(self, name: str) -> Core:
        return self.core(name)

    def __iter__(self) -> Iterator[Core]:
        return iter(self.cores.values())

    def core_names(self) -> list[str]:
        return sorted(self.cores)

    def running_cores(self) -> list[Core]:
        return [core for core in self.cores.values() if core.is_running]

    # -- time ---------------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.scheduler.clock.now()

    def advance(self, seconds: float) -> None:
        """Let ``seconds`` of cluster time pass, firing due timers.

        On a virtual clock this is a deterministic sweep.  On a real
        clock (the TCP backend) it becomes a pump: sleep in small steps
        and fire whatever has come due, so the same test code drives
        samplers, watches, and detectors on both backends.
        """
        if self.scheduler.clock.is_virtual:
            self.scheduler.advance(seconds)
            return
        deadline = time.monotonic() + seconds
        while True:
            self.scheduler.fire_due()
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                return
            time.sleep(min(_PUMP_INTERVAL, remaining))

    def drain(self) -> None:
        """Run everything already due — deferred continuations and any
        work they cascade into — without moving time forward.

        A continuation that moves its complet again schedules the next
        continuation at the (network-advanced) current instant; the
        reentrant sweep keeps extending until the cascade is dry.
        """
        self.scheduler.advance(0.0)

    # -- topology and failures -------------------------------------------------------------

    def set_link(self, a: str, b: str, **kwargs) -> None:
        self.transport.set_link(a, b, **kwargs)

    def partition(self, *groups: set[str]) -> None:
        self.transport.partition(*groups)

    def heal_partition(self) -> None:
        self.transport.heal_partition()

    def is_core_up(self, name: str) -> bool:
        """Whether ``name`` is attached to the transport and not down."""
        return self.transport.is_up(name)

    def can_reach(self, src: str, dst: str) -> bool:
        """Whether transport-level traffic from ``src`` reaches ``dst``."""
        return self.transport.can_reach(src, dst)

    def shutdown_core(self, name: str) -> None:
        self.core(name).shutdown()

    # -- liveness and recovery ------------------------------------------------------------

    def enable_recovery(
        self,
        *,
        detector: "DetectorConfig | None" = None,
        auto_recover: bool = True,
        store: "CheckpointStore | None" = None,
    ) -> "RecoveryManager":
        """Turn on liveness detection, checkpointing, and recovery.

        Attaches a heartbeat :class:`~repro.recovery.FailureDetector` to
        every running Core (and to Cores added later), a cluster-wide
        :class:`~repro.recovery.CheckpointManager` (protect complets
        with ``cluster.checkpoints.protect(stub, policy)``), and a
        :class:`~repro.recovery.RecoveryManager` that reacts to
        ``coreFailed`` verdicts — automatically unless
        ``auto_recover=False``, in which case recovery runs only when
        asked (``cluster.recovery.recover_core(...)`` or a layout
        script's ``failover`` action).

        ``store`` is where checkpoints go: a fresh in-memory
        :class:`~repro.recovery.CheckpointStore` by default, or pass
        ``CheckpointStore(path)`` for a durable directory — the shape the
        multi-process supervisor shares with its children.
        """
        from repro.recovery import (
            CheckpointManager,
            DetectorConfig,
            RecoveryManager,
        )

        self._detector_config = detector if detector is not None else DetectorConfig()
        self.checkpoints = CheckpointManager(self, store=store)
        self.recovery = RecoveryManager(
            self, self.checkpoints, auto_recover=auto_recover
        )
        for core in self.cores.values():
            self._attach_detector(core)
        return self.recovery

    def _attach_detector(self, core: Core) -> None:
        from repro.recovery import FailureDetector

        if not core.is_running or core.detector is not None:
            return
        config = self._detector_config
        assert config is not None

        def peers() -> list[str]:
            return [name for name in self.core_names() if name != core.name]

        core.detector = FailureDetector(core, peers, config)

    # -- application conveniences -------------------------------------------------------------

    def instantiate(self, anchor_cls: type[Anchor], at: str, *args, **kwargs) -> Stub:
        """Create a complet on Core ``at`` and return its stub."""
        return self.core(at).instantiate(anchor_cls, *args, **kwargs)

    def move(self, stub: Stub, destination: str) -> None:
        """Move the complet behind ``stub`` to Core ``destination``."""
        core = stub_core(stub)
        assert core is not None
        core.move(stub, destination)

    def move_via_host(self, stub: Stub, destination: str) -> None:
        """Ask the complet's *current host* to move it (no forwarding).

        ``move`` routes through the stub's Core, whose tracker gets
        shortened while locating the host; driving the move from the
        host itself leaves every other Core's tracker untouched — the
        way genuine tracker chains form (Figure 2).
        """
        target_id = stub_target_id(stub)
        host = self._find_host(target_id)
        if host is None:
            raise CoreNotFoundError(f"no running Core hosts {target_id}")
        self.core(host).move(target_id, destination)

    def locate(self, stub: Stub) -> str:
        """Name of the Core currently hosting ``stub``'s complet.

        Falls back to a cluster-wide search when the stub's own Core has
        shut down (references die with their Core; the harness can still
        answer the question).
        """
        core = stub_core(stub)
        if core is not None and core.is_running:
            return core.references.locate(stub_tracker(stub))
        target_id = stub_target_id(stub)
        host = self._find_host(target_id)
        if host is None:
            raise CoreNotFoundError(f"no running Core hosts {target_id}")
        return host

    def stub_at(self, core_name: str, stub: Stub) -> Stub:
        """A fresh reference to ``stub``'s complet, wired to ``core_name``.

        Needed when the Core a stub was wired to shuts down: references
        die with their Core (they live inside complets or programs hosted
        there), so a surviving program re-acquires the complet from a
        living Core.
        """
        from repro.complet.relocators import Link
        from repro.complet.tokens import RefToken

        target_id = stub_target_id(stub)
        via = self.core(core_name)
        if via.repository.hosts(target_id):
            return via.references.stub_for_local(target_id)
        host = self._find_host(target_id)
        if host is None:
            raise CoreNotFoundError(f"no running Core hosts {target_id}")
        anchor_ref = stub_tracker(stub).anchor_ref
        address = self.core(host).repository.tracker_for(target_id, anchor_ref).address
        token = RefToken(target_id, anchor_ref, address, Link())
        return via.references.materialize(token)

    def _find_host(self, target_id) -> str | None:
        for core in self.running_cores():
            if core.repository.hosts(target_id):
                return core.name
        return None

    def complets_at(self, name: str) -> list[str]:
        return [str(cid) for cid in self.core(name).repository.complet_ids()]

    def collect_all_trackers(self) -> int:
        """Run tracker GC to a fixpoint across all Cores; total collected.

        Collecting a forwarding tracker releases its pointee, which may
        make trackers on other Cores collectable, so the sweep repeats
        until a pass collects nothing.
        """
        total = 0
        while True:
            collected = sum(
                core.repository.collect_trackers() for core in self.running_cores()
            )
            total += collected
            if collected == 0:
                return total

    # -- administration ------------------------------------------------------------------------

    def admin(self, target: str, *, via: str | None = None) -> CoreAdmin:
        """A typed administration handle for Core ``target``.

        ``via`` names the Core issuing the queries (the administrator's
        seat); it defaults to the target itself, in which case the
        operations run locally.
        """
        via_core = self.core(via) if via is not None else self.core(target)
        return CoreAdmin(via_core, target)

    def register_engine(self, engine) -> None:
        """Attach a :class:`~repro.script.ScriptEngine` for analysis.

        Engines self-register on construction; :meth:`analyze` reads
        their installed scripts for the interaction checks.
        """
        if engine not in self._engines:
            self._engines.append(engine)

    def analyze(
        self,
        script: str | None = None,
        *,
        expected_args: int | None = None,
        plan=None,
    ) -> list:
        """Static diagnostics for the cluster's current state.

        Runs the relocation-semantics checker over the live reference
        graph, the movability checker over every hosted anchor, and the
        interaction checker (FG401–FG404, cross-script FG108) over every
        installed script; with ``script`` it also verifies the candidate
        layout script against the actual topology (Core and complet
        names resolve) and includes it in the interaction set.  ``plan``
        — a :class:`~repro.analysis.MovePlan` — is vetted against the
        topology and the installed rules (FG405–FG409).  When the
        cluster runs with ``sanitize=True``, every race the sanitizer
        has observed so far is reported as FG410.  Returns a sorted
        list of :class:`repro.analysis.Diagnostic`.
        """
        from repro.analysis import (
            TopologyInfo,
            check_anchor_live,
            check_interaction,
            check_plan,
            check_relocation,
            check_script,
            script_set_effects,
            sort_diagnostics,
        )

        topology = TopologyInfo.from_cluster(self)
        diagnostics = list(check_relocation(self))
        for core in self.running_cores():
            for anchor in core.repository.anchors():
                diagnostics.extend(check_anchor_live(anchor, hosted_at=core.name))
        if script is not None:
            diagnostics.extend(
                check_script(
                    script,
                    topology=topology,
                    expected_args=expected_args,
                )
            )
        installed = [
            pair for engine in self._engines for pair in engine.installed
        ]
        pool = list(installed)
        if script is not None:
            pool.append((script, "<candidate>"))
        if pool:
            diagnostics.extend(check_interaction(pool, topology=topology))
        if plan is not None:
            diagnostics.extend(
                check_plan(plan, topology, effects=script_set_effects(installed))
            )
        if self.sanitizer is not None:
            diagnostics.extend(self.sanitizer.diagnostics())
        return sort_diagnostics(diagnostics)

    # -- observability -------------------------------------------------------------------------

    def set_tracing(self, enabled: bool) -> None:
        """Toggle span recording on every Core (including ones added later)."""
        self._tracing = enabled
        for core in self.cores.values():
            core.tracer.enabled = enabled

    def spans(self) -> list[Span]:
        """Every finished span of every Core, ordered by start time."""
        collected: list[Span] = []
        for core in self.cores.values():
            collected.extend(core.tracer.spans())
        collected.sort(key=lambda span: (span.start, span.span_id))
        return collected

    def traces(self) -> dict[str, Trace]:
        """Cluster-wide span trees, keyed by trace id."""
        return assemble_traces(self.spans())

    def clear_spans(self) -> None:
        for core in self.cores.values():
            core.tracer.clear()

    def chrome_trace_json(self, *, indent: int | None = None) -> str:
        """All spans in Chrome ``trace_event`` JSON (about://tracing)."""
        return chrome_trace_json(self.spans(), indent=indent)

    def metrics_snapshot(self) -> dict:
        """Per-Core metrics snapshots plus the cluster-wide aggregate."""
        per_core = [core.metrics.snapshot() for core in self.cores.values()]
        return {"cores": per_core, "cluster": merge_snapshots(per_core)}

    @property
    def store(self) -> "ObjectStore | None":
        """The shared object store, or ``None`` when offloading is off."""
        return self._store

    def store_snapshot(self) -> dict:
        """Object-store state: backend contents plus per-Core client stats.

        ``{"enabled": False}`` when the cluster runs without a store;
        otherwise the store's entry table and statistics under
        ``"store"`` and each Core's resolve-cache counters under
        ``"cores"``.
        """
        if self._store is None:
            return {"enabled": False}
        return {
            "enabled": True,
            "store": self._store.snapshot(),
            "cores": {
                name: core.store_view() for name, core in self.cores.items()
            },
        }

    def _batching_transports(self) -> list[BatchingTransport]:
        hubs: list[Transport | None] = [self._shared_transport]
        hubs.extend(self.transports.values())
        return [hub for hub in hubs if isinstance(hub, BatchingTransport)]

    def batch_snapshot(self) -> dict:
        """Aggregated envelope-batching statistics across all hubs."""
        hubs = self._batching_transports()
        if not hubs:
            return {"enabled": False}
        merged = {
            "batches": 0,
            "batched_messages": 0,
            "passthrough_posts": 0,
            "dropped_messages": 0,
            "flush_triggers": {},
        }
        for hub in hubs:
            snap = hub.batch_stats.snapshot()
            for key in ("batches", "batched_messages",
                        "passthrough_posts", "dropped_messages"):
                merged[key] += snap[key]
            for trigger, count in snap["flush_triggers"].items():
                merged["flush_triggers"][trigger] = (
                    merged["flush_triggers"].get(trigger, 0) + count
                )
        batches = merged["batches"]
        merged["mean_occupancy"] = (
            round(merged["batched_messages"] / batches, 6) if batches else 0.0
        )
        return {"enabled": True, **merged}

    def flush_batches(self) -> None:
        """Flush every pending batch queue now (test/benchmark barriers)."""
        for hub in self._batching_transports():
            hub.flush_all()

    # -- accounting -----------------------------------------------------------------------------

    @property
    def stats(self) -> NetworkStats:
        return self.transport.stats

    def reset_stats(self) -> None:
        """Zero the global network accounting (per-experiment measurement)."""
        self.transport.reset_stats()

    def shutdown_all(self) -> None:
        for core in self.running_cores():
            core.shutdown()

    def close(self) -> None:
        """Shut every Core down and release the transport(s).

        A no-op beyond :meth:`shutdown_all` on the simulated backend;
        on TCP it closes listener sockets and joins the loop threads.
        """
        self.shutdown_all()
        if self._shared_transport is not None:
            self._shared_transport.close()
        for hub in self.transports.values():
            hub.close()
        if self._store is not None and self._owns_store:
            self._store.close()
        if self._owned_store_dir is not None:
            shutil.rmtree(self._owned_store_dir, ignore_errors=True)
            self._owned_store_dir = None

    def __repr__(self) -> str:
        return f"<Cluster {self.core_names()} t={self.now:.3f}>"
