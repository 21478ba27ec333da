"""The Cluster: one handle on a deployment of Cores, wherever they run.

``transport=`` picks the deployment shape (docs/TRANSPORT.md): every Core
in this process over the deterministic simulated network (``"sim"``, the
default), every Core in this process on one real TCP hub, a listener
each (``"tcp"``), or every Core in an OS process of its own with a driver Core
here (``"procs"``, :mod:`repro.cluster.launch`).  What the cluster
*observes* — where a complet is, what a Core hosts, its metrics, spans
and store view — it asks through :class:`~repro.core.admin.CoreAdmin`,
which answers without a hop for a Core of this process and over the wire
for a child, so those members are written once and work on all three;
recovery and checkpoints (:meth:`Cluster.enable_recovery`) are written
the same way.  What still reads a Core's objects (``cluster[name]``,
analysis, the sanitizer) refuses, typed, for a Core that is not in this
process.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Iterator

from repro.cluster.launch import CoreProcesses
from repro.complet.anchor import Anchor
from repro.complet.stub import Stub, stub_core, stub_target_id, stub_tracker
from repro.core.admin import CoreAdmin
from repro.core.core import Core
from repro.core.events import CORE_SHUTDOWN
from repro.errors import ConfigurationError, CoreError, CoreNotFoundError, TransportError
from repro.metrics.registry import merge_snapshots
from repro.net.simnet import SimTransport
from repro.net.tcp import TcpTransport
from repro.net.transport import NetworkStats, Transport
from repro.store import FileStore, InMemoryStore, ObjectStore
from repro.sim.clock import Clock, RealClock, VirtualClock
from repro.sim.scheduler import Scheduler
from repro.trace.export import Trace, assemble_traces, chrome_trace_json
from repro.trace.tracer import Span

#: Granularity of the real-clock :meth:`Cluster.advance` pump.
_PUMP_INTERVAL = 0.02

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.layout import LayoutJournal
    from repro.util.ids import CompletId
    from repro.recovery import Checkpointer, CheckpointStore, DetectorConfig, RecoveryManager


class Cluster:
    """A deployment of Cores sharing a clock and a network.

    The cluster is the experimenter's handle: it creates Cores, shapes
    links, advances virtual time, injects failures, and reads network
    accounting.  Application code only ever sees Cores and stubs.  A
    program that places its complets from :attr:`seat` with ``_at=`` and
    looks at the deployment through the cluster's observations runs
    unchanged on every ``transport=``.
    """

    def __init__(
        self,
        names: Iterable[str] = (),
        *,
        bandwidth: float = 1_000_000.0,
        latency: float = 0.01,
        clock: Clock | None = None,
        transport: "str | CoreProcesses" = "sim",
        store: "str | ObjectStore | None" = None,
        sanitize: bool = False,
        **core_options,
    ) -> None:
        """``transport`` selects the substrate:

        - ``"sim"`` (default) — one shared deterministic
          :class:`~repro.net.simnet.SimTransport`; ``bandwidth`` and
          ``latency`` configure its default links.
        - ``"tcp"`` — one real :class:`~repro.net.tcp.TcpTransport` hub
          on loopback, which gives every Core a listener of its own, so
          their traffic crosses real sockets; the clock defaults to a
          :class:`~repro.sim.clock.RealClock` and :meth:`advance`
          becomes a real-time pump.
        - ``"procs"`` — every named Core in an OS process of its own
          (:class:`~repro.cluster.launch.CoreProcesses`) and a driver
          Core in this one, the only Core :meth:`core` can hand out.
          Pass a not-yet-started ``CoreProcesses`` instead to choose its
          checkpoint directory; either way the cluster starts it, keeps
          it as :attr:`processes` and stops it in :meth:`close`.

        ``store`` enables large-payload offloading (:mod:`repro.store`):
        ``"memory"`` shares one :class:`~repro.store.InMemoryStore` across
        the Cores, ``"file"`` a cluster-owned
        :class:`~repro.store.FileStore` in a temporary directory (removed
        by :meth:`close`), or pass an :class:`~repro.store.ObjectStore`
        instance.  Processes share a directory and nothing else: on
        ``procs`` only ``"file"``.

        ``sanitize`` attaches a shared
        :class:`~repro.analysis.sanitizer.LayoutSanitizer`: every move,
        restore, and retype is stamped with a vector clock, concurrent
        conflicting operations are recorded as races
        (``cluster.sanitizer.races``, the ``sanitizer.races`` metric,
        and FG410 diagnostics from :meth:`analyze`).  In-process
        backends only.

        ``core_options`` are the keyword options of
        :class:`~repro.core.core.Core` (``rpc_timeout``, ``retry_policy``,
        ``tracing``, ``store_threshold``, ``locator``, ...), given to every
        Core the cluster builds.  On ``procs`` the
        launcher builds them, so only ``tracing`` is taken there.
        """
        unknown = core_options.keys() - Core.__init__.__kwdefaults__.keys()
        if unknown:
            raise TypeError(f"Cluster() got unexpected keyword arguments {sorted(unknown)}")
        self._core_options = core_options
        names = list(names)
        if transport == "procs":
            transport = CoreProcesses(names)
        #: The multi-process deployment behind ``transport="procs"``, else None.
        self.processes = procs = transport if isinstance(transport, CoreProcesses) else None
        if procs is not None:
            # Refused before anything is started: what needs an object shared
            # with, or an option handed to, a Core of another process.
            refused = {
                "a CoreProcesses that is already started": procs.driver is not None,
                f"names {names} beside a CoreProcesses of {procs.names}":
                    names and names != procs.names,
                "clock= (every process runs on its own real clock)": clock is not None,
                "sanitize=True (the Cores share one LayoutSanitizer object)": sanitize,
                f"store={store!r} (processes share a directory: 'file', or the "
                "CoreProcesses' own store_dir)":
                    store not in (None, "file") or (store and procs.store_dir),
                f"Core options {sorted(core_options.keys() - {'tracing'})} (the launcher "
                "builds the Cores)": core_options.keys() - {"tracing"},
            }
            for what, applies in refused.items():
                if applies:
                    raise ConfigurationError(f"transport='procs' cannot take {what}")
        elif transport not in ("sim", "tcp"):
            raise ConfigurationError(
                f"transport must be 'sim', 'tcp', 'procs' or a CoreProcesses; got {transport!r}"
            )
        self._store: ObjectStore | None = None
        self._owned_store_dir: str | None = None
        self._owns_store = False
        if store is None:
            pass
        elif store == "memory":
            self._store = InMemoryStore()
            self._owns_store = True
        elif store == "file":
            import tempfile  # with shutil, bz2 and lzma: 0.7 MiB no Core without a file store needs

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
        #: The one transport of the deployment: the simulated network, the
        #: TCP hub every Core of this process is on, or on ``procs`` the
        #: driver's hub (set once the children are up).
        self.transport: Transport
        if transport == "sim":
            self.scheduler = Scheduler(clock if clock is not None else VirtualClock())
            self.transport = SimTransport(
                self.scheduler, default_bandwidth=bandwidth, default_latency=latency
            )
        elif transport == "tcp":
            self.scheduler = Scheduler(clock if clock is not None else RealClock())
            self.transport = TcpTransport(self.scheduler)
        #: The Cores of this process: all of them, or on ``procs`` the driver.
        self.cores: dict[str, Core] = {}
        #: Recovery layer, attached by :meth:`enable_recovery`.
        self.recovery: "RecoveryManager | None" = None
        #: Core name -> the Checkpointer :meth:`enable_recovery` started there
        #: (on ``procs`` each child runs its own, and this stays empty).
        self.checkpoints: "dict[str, Checkpointer]" = {}
        self._detector_config: "DetectorConfig | None" = None
        #: Script engines attached to this cluster (interaction analysis
        #: reads their installed scripts).
        self._engines: list = []
        self._layout_history: "LayoutJournal | None" = None
        #: Shared dynamic race detector (``sanitize=True``), or None.
        self.sanitizer = None
        if sanitize:
            from repro.analysis.sanitizer import LayoutSanitizer

            self.sanitizer = LayoutSanitizer()
        if procs is not None:
            self._start_processes(procs)
        else:
            for name in names:
                self.add_core(name)

    # -- construction ---------------------------------------------------------------

    def _start_processes(self, procs: CoreProcesses) -> None:
        """Start the children; their driver is this process's one Core."""
        procs.store_dir = procs.store_dir or self._owned_store_dir
        try:
            procs.start()
        except BaseException:
            self.close()  # the store directory, if the cluster made one
            raise
        assert procs.driver is not None and procs.transport is not None
        self.scheduler = procs.driver.scheduler
        self.cores[procs.driver.name] = procs.driver
        self.transport = procs.transport
        if self._core_options.get("tracing"):
            self.set_tracing(True)

    def _local(self, what: str) -> dict[str, Core]:
        """The Cores, for ``what`` reads their objects: refused on ``procs``."""
        if self.processes is not None:
            raise ConfigurationError(
                f"{what} needs every Core in this process; on transport='procs' "
                f"only {self.seat.name!r} is, and admin(name) reaches the others"
            )
        return self.cores

    def add_core(self, name: str, **core_kwargs) -> Core:
        """Create and register a new Core (the cluster's options unless overridden)."""
        self._local("add_core()")
        options = {**self._core_options, "store": self._store, **core_kwargs}
        core = Core(name, self.transport, self.scheduler, **options)
        core.sanitizer = self.sanitizer
        self.cores[name] = core
        if self._detector_config is not None:
            self._attach_detector(core)
        if self.recovery is not None:
            self.recovery.attach(core)
            self._start_checkpointer(core)
        return core

    @property
    def transports(self) -> dict[str, TcpTransport]:
        """The TCP hub of this process under :attr:`seat`'s name, listed
        once; ``{}`` on the simulated network."""
        if isinstance(self.transport, TcpTransport) and self.cores:
            return {self.seat.name: self.transport}
        return {}

    def core(self, name: str) -> Core:
        """Core ``name`` of this process; a child's is reached by :meth:`admin`."""
        try:
            return self.cores[name]
        except KeyError:
            why = "runs in a child process" if name in self._children() else "is not in the cluster"
            raise CoreNotFoundError(f"Core {name!r} {why}") from None

    def __getitem__(self, name: str) -> Core:
        return self.core(name)

    def __iter__(self) -> Iterator[Core]:
        return iter(self._local("iteration").values())

    @property
    def seat(self) -> Core:
        """Where the experimenter sits: the driver on ``procs``, else the first Core by name."""
        return self.core(min(self.cores, default=""))

    def _children(self) -> dict:
        """Child Core name -> process handle (``procs`` while started, else empty)."""
        return self.processes.processes if self.processes is not None else {}

    def core_names(self) -> list[str]:
        return sorted([*self.cores, *(self.processes.names if self.processes is not None else ())])

    def running_names(self) -> list[str]:
        """The Cores that are up: not shut down, and a child's process not exited."""
        local = [name for name, core in self.cores.items() if core.is_running]
        return local + [name for name, child in self._children().items() if child.poll() is None]

    def running_cores(self) -> list[Core]:
        return [core for core in self._local("running_cores()").values() if core.is_running]

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
        self._chaos("set_link", a, b, **kwargs)

    def partition(self, *groups: set[str]) -> None:
        self._chaos("partition", *groups)

    def heal_partition(self) -> None:
        self._chaos("heal_partition")

    def _chaos(self, hook: str, *args, **kwargs) -> None:
        """Apply a transport chaos hook at the hub of this process, then at
        every running child's, so the children refuse what it cuts too."""
        getattr(self.transport, hook)(*args, **kwargs)
        for name in self.running_names():
            if name not in self.cores:
                self.admin(name).chaos(hook, args, **kwargs)

    def _exited(self, name: str) -> bool:
        """Whether ``name`` is a child whose process has exited (waitpid says so)."""
        child = self._children().get(name)
        return child is not None and child.poll() is not None

    def is_core_up(self, name: str) -> bool:
        """Whether ``name`` is attached to the transport and not down: a child
        whose process has exited is down, whatever an address book says."""
        return not self._exited(name) and self.transport.is_up(name)

    def can_reach(self, src: str, dst: str) -> bool:
        """Whether transport-level traffic from ``src`` reaches ``dst``; never
        to or from a child whose process has exited."""
        return not (self._exited(src) or self._exited(dst)) and self.transport.can_reach(src, dst)

    def shutdown_core(self, name: str) -> None:
        """Graceful shutdown (``coreShutdown`` fires first); a child exits 0."""
        # Any positive delay lets a child write the reply before it leaves.
        self.admin(name).shutdown(delay=1e-9 if name in self._children() else 0.0)

    def crash_core(self, name: str) -> None:
        """Hard crash, no shutdown event: the node stops answering, and a
        child's process is SIGKILLed.  This process's hub refuses the node
        at once (on ``procs`` until a respawn brings it up again)."""
        child = self._children().get(name)
        if child is not None:
            child.kill()
        self.transport.set_node_down(name)

    def revive_core(self, name: str) -> None:
        """Bring a crashed Core's node back up.  A child is not revived here:
        its process is gone, and a Supervisor is what respawns it."""
        if name in self._children():
            raise ConfigurationError(
                f"revive_core({name!r}) on transport='procs': a Supervisor respawns a child"
            )
        self.transport.set_node_down(name, down=False)

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
        every running Core (and to Cores added later), starts a
        :class:`~repro.recovery.Checkpointer` there that checkpoints every
        complet the Core hosts (every second of the cluster clock, and on
        each arrival or restore; :attr:`checkpoints`), and a
        :class:`~repro.recovery.RecoveryManager` that reacts to
        ``coreFailed`` verdicts — automatically unless
        ``auto_recover=False``, in which case recovery runs only when
        asked (``cluster.recovery.recover_core(...)`` or a layout
        script's ``failover`` action).

        ``store`` is where checkpoints go: a fresh in-memory
        :class:`~repro.recovery.CheckpointStore` by default, or pass
        ``CheckpointStore(path)`` for a durable directory.

        On ``procs`` the store is ``CheckpointStore(checkpoint_dir)``, the
        directory the children's own checkpointers sweep their complets
        into, and no detector is attached here: a
        :class:`~repro.cluster.supervisor.Supervisor` runs the one at
        :attr:`seat`, and publishes ``coreFailed`` there for a child whose
        restart budget is spent.  There the deployment needs a
        ``checkpoint_dir`` and neither ``detector`` nor ``store`` is taken.
        """
        from repro.recovery import CheckpointStore, DetectorConfig, RecoveryManager

        procs = self.processes
        if procs is not None:
            if procs.checkpoint_dir is None or detector is not None or store is not None:
                raise ConfigurationError(
                    "enable_recovery() on transport='procs' reads the children's checkpoint_dir "
                    "and takes no detector= or store=: the Supervisor is the liveness source there"
                )
            store = CheckpointStore(procs.checkpoint_dir)
        else:
            self._detector_config = detector if detector is not None else DetectorConfig()
        self.recovery = RecoveryManager(
            self, store if store is not None else CheckpointStore(), auto_recover=auto_recover
        )
        if procs is None:
            for core in self.cores.values():
                self._attach_detector(core)
                self._start_checkpointer(core)
        return self.recovery

    def _start_checkpointer(self, core: Core) -> None:
        """Start ``core``'s checkpointer over the recovery store, in place of
        one an earlier :meth:`enable_recovery` started."""
        from repro.recovery import Checkpointer

        assert self.recovery is not None
        if core.name in self.checkpoints:
            self.checkpoints.pop(core.name).stop()
        if core.is_running:
            self.checkpoints[core.name] = Checkpointer(core, self.recovery.store).start()

    def _attach_detector(self, core: Core) -> None:
        from repro.recovery import FailureDetector

        if not core.is_running or core.detector is not None:
            return
        config = self._detector_config
        assert config is not None

        def peers() -> list[str]:
            return [name for name in self.core_names() if name != core.name]

        def stop(event) -> None:
            if event.data.get("core") == core.name:
                timer.cancel()

        core.detector = detector = FailureDetector(core, peers, config)
        # The heartbeat cadence: one round per interval until the Core shuts down.
        timer = self.scheduler.call_every(config.interval, detector.tick)
        core.events.subscribe(CORE_SHUTDOWN, stop)

    # -- application conveniences -------------------------------------------------------------

    def instantiate(self, anchor_cls: type[Anchor], at: str, *args, **kwargs) -> Stub:
        """Create a complet on Core ``at`` and return its stub."""
        return self.core(at).instantiate(anchor_cls, *args, **kwargs)

    def move(self, stub: Stub, destination: str) -> bool:
        """Move the complet behind ``stub`` to Core ``destination``; whether it moved."""
        core = stub_core(stub)
        assert core is not None
        return core.move(stub, destination)

    def move_via_host(self, stub: Stub, destination: str) -> bool:
        """Ask the complet's *current host* to move it (no forwarding).

        ``move`` routes through the stub's Core, whose tracker gets
        shortened while locating the host; driving the move from the
        host itself leaves every other Core's tracker untouched — the
        way genuine tracker chains form (Figure 2).
        """
        target_id = stub_target_id(stub)
        return self.admin(self.find_host(target_id)).move(str(target_id), destination)

    def locate(self, stub: Stub) -> str:
        """Name of the Core currently hosting ``stub``'s complet.

        Falls back to a cluster-wide search when the stub's own Core has
        shut down (references die with their Core; the harness can still
        answer the question).
        """
        core = stub_core(stub)
        if core is not None and core.is_running:
            return core.references.locate(stub_tracker(stub))
        return self.find_host(stub_target_id(stub))

    def stub_at(self, core_name: str, stub: Stub) -> Stub:
        """A fresh reference to ``stub``'s complet, wired to ``core_name``.

        Needed when the Core a stub was wired to shuts down: references
        die with their Core (they live inside complets or programs hosted
        there), so a surviving program re-acquires the complet from a
        living Core — one of this process, which is where stubs live.
        """
        from repro.complet.relocators import Link
        from repro.complet.tokens import RefToken

        target_id = stub_target_id(stub)
        via = self.core(core_name)
        if self.admin(core_name).hosted_tracker(target_id) is not None:
            return via.references.stub_for_local(target_id)
        address = self.admin(self.find_host(target_id)).hosted_tracker(target_id)
        token = RefToken(target_id, stub_tracker(stub).anchor_ref, address, Link())
        return via.references.materialize(token)

    def find_host(self, complet: "CompletId | str") -> str:
        """The first running Core hosting ``complet``: its id, or the string
        form of it that the shell and scripts speak."""
        for name in self.running_names():
            admin = self.admin(name)
            if isinstance(complet, str):
                hosts = complet in admin.complets()
            else:
                hosts = admin.hosted_tracker(complet) is not None
            if hosts:
                return name
        raise CoreNotFoundError(f"no running Core hosts {complet}")

    def complets_at(self, name: str) -> list[str]:
        return self.admin(name).complets()

    def collect_all_trackers(self) -> int:
        """Run tracker GC to a fixpoint across the up Cores; total collected.

        Collecting a forwarding tracker releases its pointee, which may
        make trackers on other Cores collectable, so the sweep repeats
        until a pass collects nothing.
        """
        total = 0
        while True:
            collected = sum(
                self.admin(name).collect_trackers()
                for name in filter(self.is_core_up, self.running_names())
            )
            total += collected
            if collected == 0:
                return total

    # -- administration ------------------------------------------------------------------------

    def admin(self, target: str, *, via: str | None = None) -> CoreAdmin:
        """A typed administration handle for Core ``target``.

        ``via`` names the Core issuing the queries (the administrator's
        seat); it defaults to the target itself, in which case the
        operations run locally with no envelope sent, and for a child
        process to :attr:`seat`.
        """
        if via is None:
            via = self.seat.name if target in self._children() else target
        return CoreAdmin(self.core(via), target)

    def register_engine(self, engine) -> None:
        """Attach a :class:`~repro.script.ScriptEngine` for analysis.

        Engines self-register on construction; :meth:`analyze` reads
        their installed scripts for the interaction checks.
        """
        if engine not in self._engines:
            self._engines.append(engine)

    @property
    def layout_history(self) -> "LayoutJournal":
        """The bounded journal of every plan the layout executor ran here
        (:mod:`repro.analysis.layout`): trigger, solver, steps, cost."""
        if self._layout_history is None:
            from repro.analysis.layout import LayoutJournal

            self._layout_history = LayoutJournal()
        return self._layout_history

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
        script checker over every installed script, with the arguments it
        was run with, and over the candidate ``script``, if given, at
        ``<candidate>``, resolving Core and complet names in the topology;
        then over all of them as one set (FG401–FG404,
        :func:`~repro.analysis.check_script_set`), every rule run on the
        cluster's :class:`~repro.analysis.LayoutModel`.
        It reads live anchors, so it refuses on ``procs``.  ``plan``
        — a :class:`~repro.analysis.MovePlan` — is vetted against the
        topology and the installed rules (FG405–FG409).  When the
        cluster runs with ``sanitize=True``, every race the sanitizer
        has observed so far is reported as FG410.  Returns a sorted
        list of :class:`repro.analysis.Diagnostic`.
        """
        from repro.analysis import (
            LayoutModel,
            TopologyInfo,
            check_anchor_live,
            check_plan,
            check_relocation,
            check_script_set,
            script_set_effects,
            sort_diagnostics,
        )

        self._local("analyze()")
        topology = TopologyInfo.from_cluster(self)
        model = LayoutModel.of(self)
        diagnostics = list(check_relocation(model))
        for core in self.running_cores():
            for anchor in core.repository.anchors():
                diagnostics.extend(check_anchor_live(anchor, hosted_at=core.name))
        installed = [record for engine in self._engines for record in engine.installed]
        candidate = [(script, "<candidate>", expected_args)] if script is not None else []
        each, together = check_script_set(
            [(source, label, len(args)) for source, label, args in installed] + candidate,
            topology=topology,
            model=model,
        )
        diagnostics.extend(d for report in each for d in report)
        diagnostics.extend(together)
        if plan is not None:
            rules = script_set_effects([(source, label) for source, label, _ in installed])
            diagnostics.extend(check_plan(plan, topology, effects=rules))
        if self.sanitizer is not None:
            diagnostics.extend(self.sanitizer.diagnostics())
        return sort_diagnostics(diagnostics)

    # -- observability -------------------------------------------------------------------------

    def _ask(self, question: Callable[[CoreAdmin], object]) -> dict:
        """``question(admin)`` per Core that answers, by name: every Core of
        this process, shut down or not, and every child that is reachable."""
        answers = {name: question(self.admin(name)) for name in self.cores}
        for name in self.running_names():
            if name not in self.cores:
                try:
                    answers[name] = question(self.admin(name))
                except (CoreError, TransportError):
                    pass  # died since the poll, or not yet listening again
        return answers

    def set_tracing(self, enabled: bool) -> None:
        """Toggle span recording on every Core (including ones added later)."""
        self._core_options["tracing"] = enabled
        self._ask(lambda admin: admin.set_tracing(enabled))

    def spans(self) -> list[Span]:
        """Every finished span of every Core, ordered by start time."""
        collected = [
            Span(**fields) for spans in self._ask(CoreAdmin.spans).values() for fields in spans
        ]
        collected.sort(key=lambda span: (span.start, span.span_id))
        return collected

    def traces(self) -> dict[str, Trace]:
        """Cluster-wide span trees, keyed by trace id."""
        return assemble_traces(self.spans())

    def clear_spans(self) -> None:
        self._ask(CoreAdmin.clear_spans)

    def chrome_trace_json(self, *, indent: int | None = None) -> str:
        """All spans in Chrome ``trace_event`` JSON (about://tracing)."""
        return chrome_trace_json(self.spans(), indent=indent)

    def metrics_snapshot(self) -> dict:
        """Per-Core metrics snapshots plus the cluster-wide aggregate."""
        per_core = list(self._ask(CoreAdmin.metrics).values())
        return {"cores": per_core, "cluster": merge_snapshots(per_core)}

    @property
    def store(self) -> "ObjectStore | None":
        """The shared object store (on ``procs`` the cluster's own handle on
        the shared directory), or ``None`` when the cluster set none up."""
        return self._store

    def store_snapshot(self) -> dict:
        """Object-store state: backend contents plus per-Core client stats.

        ``{"enabled": False}`` when the Cores run without a store;
        otherwise the store's entry table and statistics, as the
        :attr:`seat` sees them, under ``"store"`` and each Core's
        resolve-cache counters under ``"cores"``.
        """
        views = self._ask(CoreAdmin.store)
        seat_view = views[self.seat.name]
        if not seat_view["enabled"]:
            return {"enabled": False}
        return {"enabled": True, "store": seat_view["store"], "cores": views}

    # -- accounting -----------------------------------------------------------------------------

    @property
    def stats(self) -> NetworkStats:
        return self.transport.stats

    def reset_stats(self) -> None:
        """Zero the global network accounting (per-experiment measurement)."""
        self.transport.reset_stats()

    def shutdown_all(self) -> None:
        for core in self._local("shutdown_all()").values():
            core.shutdown()  # a no-op at a Core that already has

    def close(self) -> None:
        """Shut every Core down and release the transport.

        A no-op beyond :meth:`shutdown_all` on the simulated backend;
        on TCP it closes listener sockets and joins the hub's threads, and
        on ``procs`` it first ends the child processes.
        """
        if self.processes is not None:
            self.processes.stop()  # the children, then the driver and its hub
        else:
            self.shutdown_all()
            self.transport.close()
        if self._store is not None and self._owns_store:
            self._store.close()
        if self._owned_store_dir is not None:
            import shutil

            shutil.rmtree(self._owned_store_dir, ignore_errors=True)
            self._owned_store_dir = None

    def __repr__(self) -> str:
        return f"<Cluster {self.core_names()} t={self.now:.3f}>"
