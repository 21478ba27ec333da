"""Stateful property testing: random interleavings, checked against the layout model.

Hypothesis drives arbitrary sequences of the operations a real
deployment performs — instantiating the workload complets (counters, data
sources and the workers that read them, pipeline stages, printers and the
desktops that print on them), moving them from the driver or from their
host, retyping a holder's reference through ``CoreAdmin.retype``,
invoking through any reference, creating references at other Cores,
tracker GC, and crashing a Core and recovering it — and steps a
:class:`~repro.analysis.model.LayoutModel` beside the cluster.  The model
is the oracle: after every step :func:`~repro.analysis.model.layout_mismatches`
finds nothing (each running Core's hosted set and each holder's
reference rows: target, type, and whether the target is local), the
step's outcome is the model's (whether a move moved, an invocation's
success, a counter's value, or the typed error the model names: a stamp
with nowhere to rebind, a crashed host), and the runtime's own
bookkeeping holds: every Core keeps at most one tracker per target,
tracker GC never breaks a live reference, and every remote-pointer set
mirrors the next hops that point at it
(:func:`tests.pointers.pointer_set_violations`).  A ``duplicate`` copy gets
its id from the runtime: the model names it until the holder's rows show
the id (:meth:`LayoutModel.rename`).

Every rule goes through the deployment handle only, so the same machine
runs on the simulated network, on the in-process TCP hub and on Cores in OS
processes of their own.  The workload complets are preloaded in every
``procs`` child.  A stamp's ``link`` fallback is set on the reference
itself, which only a Core of this process can do: ``procs`` retypes to
the ``error`` fallback alone.  The tracker invariant looks inside the
Cores of this process: all of them on ``sim`` and ``tcp``, the driver on
``procs``.  The pointer sets of the running Cores are checked after every
step on ``sim`` and on ``tcp``, with no pause between steps: over TCP a
step whose one-way updates (discards) are still in flight is not looked
at, and the next step starts at once, so an update overtaken by a later
step's messages is overtaken, a tracker sweep included.  A registration
is answered before the step that sent it goes on, so no sweep overtakes
one.  On ``procs`` the sets live in the children.

The crash comes at step :data:`CRASH_AFTER` of every run, at a Core other
than the seat, just after its complets are checkpointed; the runtime's
recovery is the model's input, and each restored counter counts what it
did (the model's ``calls``).  On
``sim`` and ``tcp`` (``enable_recovery()``) the ``RecoveryManager``
restores them on a survivor and the Core stays down: moves to it fail
typed, references held there are dead with it, and no reference is
made (``Cluster.stub_at`` may find a crashed Core's stale copy).  On
``procs`` a ``Supervisor`` respawns the child, which restores them where
they were.  Every other rule runs before it and after it, through chains
of trackers that passed the dead Core.
"""

import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    multiple,
    precondition,
    rule,
)

from repro.analysis.model import LayoutModel, layout_mismatches
from repro.cluster.cluster import Cluster
from repro.cluster.launch import CoreProcesses
from repro.cluster.supervisor import Supervisor
from repro.cluster.workload import (
    Counter,
    Counter_,
    DataSource,
    DataSource_,
    Desktop,
    Desktop_,
    Printer,
    Printer_,
    Stage,
    Stage_,
    Worker,
    Worker_,
)
from repro.complet.closure import compute_closure
from repro.complet.relocators import Stamp
from repro.complet.stub import Stub, stub_core, stub_meta
from repro.errors import FarGoError
from repro.net.messages import MessageKind
from repro.net.serializer import PLAIN
from repro.recovery import CheckpointStore
from tests.pointers import eventually, pointer_set_violations

CORES = ["a", "b", "c"]
#: Complets the model may hold, copies included: bounds the population.
POPULATION = 8
#: The step of every run that crashes a Core; twenty more follow it.
CRASH_AFTER = 20
#: What a retype may make of a holder's reference; ``stamp-link`` is a stamp
#: with the ``link`` fallback.
KINDS = ("link", "pull", "duplicate", "stamp", "stamp-link")
#: One invocation per anchor class; the holders call through their reference.
CALLS = {
    Counter_: lambda stub: stub.increment(1),
    DataSource_: lambda stub: stub.checksum(),
    Worker_: lambda stub: stub.work(1),
    Stage_: lambda stub: stub.process(b""),
    Printer_: lambda stub: stub.location(),
    Desktop_: lambda stub: stub.print_report("report"),
}


def _id(stub) -> str:
    return str(stub._fargo_target_id)


def ready(machine) -> bool:
    """Whether the step may be any but the crash: it is not yet due, or done."""
    return machine.steps != CRASH_AFTER or machine.crashed_at is not None


def all_up(machine) -> bool:
    return ready(machine) and not machine.model.crashed


def room(machine) -> bool:
    return ready(machine) and len(machine.model.hosts) < POPULATION


class ClusterMachine(RuleBasedStateMachine):
    TRANSPORT = "sim"
    #: Every reference the program holds.
    references = Bundle("references")

    @initialize()
    def setup(self):
        deployment, self.scratch, self.supervisor = self.TRANSPORT, None, None
        if self.TRANSPORT == "procs":
            self.scratch = tempfile.TemporaryDirectory(prefix="repro-machine-ckpt-")
            deployment = CoreProcesses(CORES, checkpoint_dir=self.scratch.name,
                                       checkpoint_interval=0.05)
        self.cluster = Cluster(CORES, transport=deployment)
        if self.cluster.processes is None:
            self.cluster.enable_recovery()
        else:
            self.supervisor = Supervisor(self.cluster.processes).start()
        self.model = LayoutModel(list(CORES))
        self.steps, self.crashed_at = 0, None
        #: (sender, receiver) of each one-way TRACKER_UPDATE (a discard) a
        #: Core of this process is about to post, and of each one applied.
        self.posted: list = []
        self.landed: list = []
        for core in self.cluster.cores.values():
            endpoint = core.peer.endpoint
            handlers = endpoint._handlers
            handlers[MessageKind.TRACKER_UPDATE] = self._counted(
                handlers[MessageKind.TRACKER_UPDATE], core.name
            )
            endpoint.post = self._counting(endpoint.post, core.name)

    def _counting(self, post, name):
        def count_then_post(dst, kind, payload):
            if kind is MessageKind.TRACKER_UPDATE:
                self.posted.append((name, dst))  # atomic: posts go out on many threads
            return post(dst, kind, payload)

        return count_then_post

    def _counted(self, handler, name):
        def apply_then_count(src, payload):
            result = handler(src, payload)
            _serial, _pointer, _epoch, register = PLAIN.loads(payload)
            if not register:
                self.landed.append((src, name))
            return result

        return apply_then_count

    def teardown(self):
        cluster = getattr(self, "cluster", None)
        if cluster is None:  # the run never got to setup
            return
        try:
            if self.TRANSPORT != "procs":
                assert eventually(self._all_landed)
                assert not pointer_set_violations(self._running())
        finally:
            if self.supervisor is not None:
                self.supervisor.stop()
            cluster.close()
            if self.scratch is not None:
                self.scratch.cleanup()

    def _running(self) -> list:
        """The Cores of this process the model does not have crashed."""
        return [core for core in self.cluster.cores.values() if core.name not in self.model.crashed]

    # -- steps on both ---------------------------------------------------------------

    def _step(self, on_model, on_cluster):
        """One step on the model and on the cluster: the same answer, or the
        typed error the model names."""
        try:
            expected = on_model()
        except FarGoError as error:
            with pytest.raises(type(error)):
                on_cluster()
            return
        assert on_cluster() == expected

    def _create(self, stub_cls, core, *args, **kwargs):
        core = CORES[0] if core in self.model.crashed else core
        stub = stub_cls(*args, _core=self.cluster.seat, _at=core, **kwargs)
        targets = [_id(arg) for arg in args if isinstance(arg, Stub)]
        self.model.create(_id(stub), core, stub_cls._fargo_anchor_cls, targets)
        return stub

    def _bind_copies(self):
        """Give each copy the model named (``<target>'<n>``) the id its holder's rows show."""
        for holder, refs in list(self.model.refs.items()):
            named = [ref.target for ref in refs if "'" in ref.target]
            if named:
                rows = self.cluster.admin(self.model.hosts[holder]).references(holder)
                fresh = [row["target"] for row in rows if row["target"] not in self.model.hosts]
                for old, new in zip(named, fresh):
                    self.model.rename(old, new)

    def _call_chain(self, cid: str) -> list:
        """The complets an invocation of ``cid`` reaches, in call order."""
        chain = [cid]
        while self.model.refs[chain[-1]]:
            chain.append(self.model.refs[chain[-1]][0].target)
        return chain

    def _dead(self, ref) -> bool:
        """Whether ``ref`` is held at a crashed Core: it is gone with it."""
        return stub_core(ref).name in self.model.crashed

    def _invoke(self, ref):
        cid = _id(ref)
        call = CALLS[self.model.classes[cid]]
        try:
            for complet in self._call_chain(cid):
                self.model.invoke(complet)
        except FarGoError as error:
            with pytest.raises(type(error)):
                call(ref)
            return
        result = call(ref)
        if self.model.classes[cid] is Counter_:
            assert result == self.model.calls[cid]

    # -- operations ----------------------------------------------------------------

    @precondition(room)
    @rule(target=references, core=st.sampled_from(CORES))
    def create_counter(self, core):
        return self._create(Counter, core, 0)

    @precondition(room)
    @rule(target=references, core=st.sampled_from(CORES), source_at=st.sampled_from(CORES))
    def create_worker(self, core, source_at):
        source = self._create(DataSource, source_at, size=64)
        return multiple(source, self._create(Worker, core, source))

    @precondition(room)
    @rule(target=references, homes=st.lists(st.sampled_from(CORES), min_size=1, max_size=3))
    def create_pipeline(self, homes):
        """Stages at ``homes``, head first, each holding the next."""
        stages = [None]
        for home in reversed(homes):
            stages.append(self._create(Stage, home, stages[-1], cost_bytes=1))
        return multiple(*stages[1:])

    @precondition(room)
    @rule(target=references, core=st.sampled_from(CORES), printer_at=st.sampled_from(CORES))
    def create_desktop(self, core, printer_at):
        printer = self._create(Printer, printer_at, printer_at)
        return multiple(printer, self._create(Desktop, core, printer))

    @precondition(room)
    @rule(target=references, core=st.sampled_from(CORES))
    def create_printer(self, core):
        return self._create(Printer, core, core)

    @precondition(ready)
    @rule(ref=references, destination=st.sampled_from(CORES))
    def move_from_driver(self, ref, destination):
        if not self._dead(ref):
            self._step(
                lambda: self.model.move(_id(ref), destination),
                lambda: self.cluster.move(ref, destination),
            )
            self._bind_copies()

    @precondition(ready)
    @rule(ref=references, destination=st.sampled_from(CORES))
    def move_from_host(self, ref, destination):
        # Cluster.move_via_host takes a crashed Core's stale copy for the
        # host: after the crash, ask the host the model names.
        cid = _id(ref)
        host = self.cluster.admin(self.model.hosts[cid])
        self._step(
            lambda: self.model.move(cid, destination),
            lambda: host.move(cid, destination) if self.model.crashed
            else self.cluster.move_via_host(ref, destination),
        )
        self._bind_copies()

    @precondition(lambda self: ready(self) and any(self.model.refs.values()))
    @rule(pick=st.integers(min_value=0, max_value=7), kind=st.sampled_from(KINDS))
    def retype(self, pick, kind):
        """Retype a holder's reference (a worker's, a stage's, a desktop's,
        or a copy's) through the administration handle of its host."""
        holders = [cid for cid, refs in self.model.refs.items() if refs]
        source = holders[pick % len(holders)]
        host, target = self.model.hosts[source], self.model.refs[source][0].target
        if kind.startswith("stamp") and self.model.classes[source] is Stage_:
            return  # a stage rebound by type could close a cycle process() never leaves
        if kind == "stamp-link":
            if host not in self.cluster.cores:
                return
            anchor = self.cluster.cores[host].repository.find_by_str(source)
            (stub,) = compute_closure(anchor).outgoing
            stub_meta(stub).set_relocator(Stamp(fallback="link"))
            self.model.retype(source, target, "stamp", fallback="link")
            return
        assert self.cluster.admin(host).retype(source, target, kind)
        self.model.retype(source, target, kind)

    @precondition(ready)
    @rule(ref=references)
    def invoke(self, ref):
        if not self._dead(ref):
            self._invoke(ref)

    @precondition(all_up)
    @rule(target=references, ref=references, at=st.sampled_from(CORES))
    def alias_reference(self, ref, at):
        """A second reference to the same complet, wired elsewhere: at any
        Core of this process (stubs live where the program does)."""
        if at not in self.cluster.cores:
            at = self.cluster.seat.name
        return self.cluster.stub_at(at, ref)

    @precondition(ready)
    @rule()
    def sweep_trackers(self):
        self.cluster.collect_all_trackers()

    @precondition(ready)
    @rule()
    def time_passes(self):
        self.cluster.advance(1.0 if self.cluster.scheduler.clock.is_virtual else 0.001)

    @precondition(lambda self: not ready(self))
    @rule(core=st.sampled_from(CORES[1:]))
    def crash_core(self, core):
        """Checkpoint ``core``, crash it, and feed its recovery to the model."""
        self.crashed_at = self.steps
        if self.supervisor is None:
            self.cluster.checkpoints[core].sweep()
        else:  # until the child's own sweeps have taken each complet there once more
            store = CheckpointStore(self.scratch.name)

            def newest() -> dict:
                return {str(record.complet_id): store.generations(record.complet_id)[-1]["gen"]
                        for record in store.hosted_at(core)}

            taken = newest()
            assert eventually(lambda: all(
                newest().get(cid, 0) > taken.get(cid, 0) for cid in self.model.hosted(core)
            ))
        self.cluster.crash_core(core)
        self.model.crash_core(core)
        if self.supervisor is None:
            r = self.cluster.recovery.recover_core(core)
            breaches = self.model.restore(
                r.failed, r.destination, r.restored, r.degraded, r.skipped, r.unrepaired
            )
        else:
            assert eventually(lambda: self._respawned(core), within=30.0)
            self.model.revive(core)
            breaches = self.model.restore(core, core)
        assert not breaches, breaches

    def _respawned(self, core) -> bool:
        child = self.supervisor.state()["children"][core]
        return child["restarts"] == 1 and child["status"] == "running"

    # -- invariants ---------------------------------------------------------------------

    @invariant()
    def count_steps(self):
        self.steps += 1

    @invariant()
    def layout_matches_model(self):
        mismatches = layout_mismatches(self.model, self.cluster)
        assert not mismatches, mismatches

    @invariant()
    def one_tracker_per_target_per_core(self):
        for core in self.cluster.cores.values():
            seen = set()
            for tracker in core.repository.trackers():
                key = tracker.target_id
                assert key not in seen, (core.name, key)
                seen.add(key)

    @invariant()
    def pointer_sets_mirror_next_hops(self):
        # On procs the sets live in the children.  Nothing waits for posts to
        # land: on sim they have, and over TCP a step that left some in
        # flight is looked at by the next step that leaves none.
        if self.TRANSPORT != "procs" and self._all_landed():
            violations = pointer_set_violations(self._running())
            assert not violations, violations

    def _all_landed(self) -> bool:
        """Whether every one-way pointer update between running Cores has
        landed (registrations are answered; a crashed Core's are lost)."""
        def running(pairs):
            return sorted(pair for pair in pairs if not set(pair) & self.model.crashed)

        return running(self.landed) == running(self.posted)


def machine_on(transport: str, examples: int):
    """The machine's test case on one backend, ``examples`` sequences of 40 steps."""
    machine = type(f"ClusterMachine_{transport}", (ClusterMachine,), {"TRANSPORT": transport})
    case = machine.TestCase
    case.settings = settings(max_examples=examples, stateful_step_count=40, deadline=None)
    return case


TestClusterMachine = machine_on("sim", 25)
# A failure on a real backend is a finding (ROADMAP item 3): fix it or file it
# there with the minimised rule sequence; do not lower the example count.
TestClusterMachineTcp = pytest.mark.tcp(machine_on("tcp", 10))
TestClusterMachineProcs = pytest.mark.tcp(machine_on("procs", 10))
