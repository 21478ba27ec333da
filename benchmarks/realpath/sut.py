"""The system under test: the only module of the benchmark that imports ``repro``.

Everything the benchmark knows about the program is here: the complets
it deploys, the two deployment shapes, the callables the traced run
wraps, the counters it reads and the direct calls of the isolation
probes.  README.md lists the ``repro`` names used; a refactor of the
program that keeps those names keeps the benchmark running.

Child Cores import this module too (by the name ``sut``), because the
anchor classes below must unpickle on the far side of a move.
"""

from __future__ import annotations

import sys
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    raise ImportError(
        f"the program under test is not at {SRC / 'repro'}; run the benchmark "
        "from a checkout of the whole repository"
    )
# Children inherit sys.path as PYTHONPATH: both entries must be on it.
for entry in (str(HERE), str(SRC)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.cluster.cluster import Cluster
from repro.cluster.launch import READY_PREFIX, CoreProcesses
from repro.complet import marshal as marshal_module
from repro.complet.anchor import Anchor
from repro.complet.marshal import (
    InvocationMarshaler,
    MovementMarshaler,
    MovementPlan,
    MovementUnmarshaler,
)
from repro.complet.stub import compile_complet, stub_target_id, stub_tracker
from repro.core.invocation import InvocationUnit
from repro.core.movement import MovementUnit
from repro.core.references import ReferenceHandler
from repro.errors import FarGoError
from repro.monitor.profiler import Profiler
from repro.net import framing
from repro.net.messages import Envelope, MessageKind
from repro.net.rpc import RpcEndpoint
from repro.net.serializer import PLAIN, Serializer
from repro.net.tcp import TcpTransport
from repro.store import FileStore, InMemoryStore, StoreClient

DRIVER = "driver"
#: Bring-ups of a ``procs`` deployment tried before the run gives up.
BRING_UP_ATTEMPTS = 3

#: The layers of the per-layer report: this repository's modules.
LAYERS = (
    "complet.stub",
    "core.invocation",
    "complet.marshal",
    "net.serializer",
    "net.rpc",
    "net.framing",
    "net.tcp",
    "core.movement",
    "core.references",
    "store",
    "monitor.profiler",
)

#: Which layer owns the handler of each message kind; handlers of every
#: other kind are charged to the RPC layer that dispatched them.
HANDLER_LAYER = {
    MessageKind.INVOKE: "core.invocation",
    MessageKind.MOVE_COMPLET: "core.movement",
    MessageKind.MOVE_REQUEST: "core.movement",
    MessageKind.CLONE_REQUEST: "core.movement",
    MessageKind.TRACKER_LOOKUP: "core.references",
    MessageKind.TRACKER_UPDATE: "core.references",
}

#: (layer, owner, attribute) of every public callable the traced run wraps.
WRAP_POINTS = (
    ("core.invocation", InvocationUnit, "invoke_stub"),
    ("complet.marshal", InvocationMarshaler, "dumps"),
    ("complet.marshal", InvocationMarshaler, "loads"),
    ("complet.marshal", MovementMarshaler, "payload"),
    ("complet.marshal", MovementUnmarshaler, "load"),
    ("complet.marshal", marshal_module, "marshal_clone"),
    ("complet.marshal", marshal_module, "unmarshal_clone"),
    ("net.serializer", Serializer, "dumps"),
    ("net.serializer", Serializer, "loads"),
    ("net.rpc", RpcEndpoint, "call"),
    ("net.rpc", RpcEndpoint, "post"),
    ("net.framing", framing, "encode_request"),
    ("net.framing", framing, "encode_reply"),
    ("net.framing", framing.FrameDecoder, "feed"),
    ("net.tcp", TcpTransport, "send"),
    ("net.tcp", TcpTransport, "post"),
    ("core.movement", MovementUnit, "move"),
    ("core.references", ReferenceHandler, "resolve_final"),
    ("core.references", ReferenceHandler, "shorten"),
    ("core.references", ReferenceHandler, "locate"),
    ("store", StoreClient, "offload"),
    ("store", StoreClient, "resolve"),
    ("store", FileStore, "put"),
    ("store", FileStore, "get"),
    ("store", FileStore, "evict"),
    ("store", InMemoryStore, "put"),
    ("store", InMemoryStore, "get"),
    ("store", InMemoryStore, "evict"),
    ("monitor.profiler", Profiler, "note_invocation"),
    ("monitor.profiler", Profiler, "note_result_bytes"),
    ("monitor.profiler", Profiler, "note_served"),
)


# -- complets the workloads deploy ---------------------------------------------


class Target_(Anchor):
    """The callee of the invoke workloads; ``pad`` gives it a state size."""

    def __init__(self, pad: bytes = b"") -> None:
        self.pad = pad
        self.calls = 0

    def ping(self) -> int:
        self.calls += 1
        return self.calls

    def echo(self, buf: bytes) -> bytes:
        self.calls += 1
        return buf


class Leaf_(Anchor):
    """One pulled member of the movement group: a blob of seeded state."""

    def __init__(self, blob: bytes) -> None:
        self.blob = blob

    def where(self) -> tuple[str, int]:
        return self.core.name, zlib.crc32(self.blob)


class Root_(Anchor):
    """The moved complet; its references to the leaves are retyped to ``pull``."""

    def __init__(self, leaves: list) -> None:
        self.leaves = leaves

    def report(self) -> tuple[str, list[tuple[str, int]]]:
        return self.core.name, [leaf.where() for leaf in self.leaves]


Target = compile_complet(Target_)
Leaf = compile_complet(Leaf_)
Root = compile_complet(Root_)


# -- deployments ---------------------------------------------------------------


class ChildNotReady(RuntimeError):
    """A child Core did not print its READY line."""


class Deployment:
    """A driver Core plus named Cores, in one of the two shapes.

    ``procs``: :class:`CoreProcesses` children, the driver in this
    process.  ``hubs``: a :class:`Cluster` with one TCP hub per Core,
    all in this process, optionally with the cluster's file store.
    """

    def __init__(self, shape: str, names: list[str], store: bool = False) -> None:
        self.shape = shape
        self.names = list(names)
        self._procs: CoreProcesses | None = None
        self._cluster: Cluster | None = None
        #: Why each failed bring-up failed; the run prints them.
        self.failed_bring_ups: list[str] = []
        if shape == "procs":
            if store:
                raise ValueError("child Cores cannot be given a store")
            self._procs = self._bring_up()
            self.driver = self._procs.driver
        elif shape == "hubs":
            self._cluster = Cluster(
                [DRIVER, *self.names], transport="tcp", store="file" if store else None
            )
            self.driver = self._cluster[DRIVER]
        else:
            raise ValueError(f"unknown deployment shape {shape!r}")

    def _bring_up(self) -> CoreProcesses:
        """Start the children; a bring-up that fails is tried again.

        ``CoreProcesses.start`` reserves its ports one after the other
        with ``free_port``, which now and then hands out the same port
        twice (README.md, finding 7); the second child to bind it exits.
        The failed attempt stays inside the timed set-up and is listed in
        ``failed_bring_ups``, which the run prints.
        """
        for _ in range(BRING_UP_ATTEMPTS):
            procs = CoreProcesses(self.names)
            try:
                procs.start()
                self._await_children(procs)
                return procs
            except (FarGoError, ChildNotReady) as exc:
                procs.stop()
                self.failed_bring_ups.append(str(exc))
        raise RuntimeError(
            f"{BRING_UP_ATTEMPTS} bring-ups in a row failed: {self.failed_bring_ups}"
        )

    def _await_children(self, procs: CoreProcesses) -> None:
        """Wait until every child has read its peer list and answers.

        ``CoreProcesses.start`` returns once each listener accepts,
        which is before the child registers its handlers and learns its
        peers; the READY line is printed after both.
        """
        for name in self.names:
            child = procs.processes[name]
            line = child.stdout.readline()
            if not line.startswith(READY_PREFIX):
                # End of file: the child is gone, and its last words say why.
                last_words = child.stderr.read().strip().splitlines()[-1:] if not line else []
                raise ChildNotReady(
                    f"child Core {name!r} said {line!r}, not READY {last_words}"
                )
            procs.driver.admin(name, "complets")

    def core(self, name: str):
        """A Core of this process (every Core of ``hubs``, the driver of ``procs``)."""
        if self._cluster is not None:
            return self._cluster[name]
        if name != DRIVER:
            raise ValueError(f"Core {name!r} lives in a child process")
        return self.driver

    def child_pids(self) -> list[int]:
        if self._procs is None:
            return []
        return [process.pid for process in self._procs.processes.values()]

    def close(self) -> None:
        if self._procs is not None:
            self._procs.stop()
        if self._cluster is not None:
            self._cluster.close()

    # -- populate --------------------------------------------------------------

    def new_target(self, at: str, pad: bytes = b""):
        return Target(pad, _core=self.driver, _at=at)

    def new_group(self, at: str, blobs: list[bytes]):
        """A root at ``at`` holding ``pull`` references to one leaf per blob."""
        leaves = [Leaf(blob, _core=self.driver, _at=at) for blob in blobs]
        root = Root(leaves, _core=self.driver, _at=at)
        for leaf in leaves:
            self.driver.admin(
                at, "retype",
                complet=str(stub_target_id(root)),
                target=str(stub_target_id(leaf)),
                type="pull",
            )
        return root

    # -- operations ------------------------------------------------------------

    def move(self, stub, destination: str) -> None:
        """The paper's ``Core.move`` on a reference, issued at the driver."""
        self.driver.move(stub, destination)

    def host_move(self, host: str, stub, destination: str) -> None:
        """Have ``host`` move the complet it hosts; no other tracker learns."""
        self.driver.admin(
            host, "move", complet=str(stub_target_id(stub)), destination=destination
        )

    def tracker_host(self, stub) -> str:
        """The Core the driver's tracker for ``stub`` points at."""
        tracker = stub_tracker(stub)
        if tracker.is_local:
            return self.driver.name
        return tracker.next_hop.core if tracker.next_hop is not None else ""

    # -- the program's public counters (hubs only) -----------------------------

    def counters(self) -> dict[str, float]:
        """Cluster-wide sums of the counters the per-layer report reads."""
        cluster = self._cluster
        if cluster is None:
            raise ValueError("counters are read in-process: hubs only")
        totals = dict.fromkeys(
            ("messages", "payload_bytes", "lookups", "forwarded",
             "offloaded_bytes", "resolves", "cache_hits"), 0.0,
        )
        for hub in cluster.transports.values():
            totals["messages"] += hub.stats.messages
            totals["payload_bytes"] += hub.stats.bytes
        for core in cluster:
            totals["lookups"] += core.metrics.counter(
                "rpc.calls", kind=MessageKind.TRACKER_LOOKUP.value
            ).value
            totals["forwarded"] += core.invocation.forwarded
            if core.store_client is not None:
                snapshot = core.store_client.stats_snapshot()
                totals["offloaded_bytes"] += snapshot["bytes_saved"]
                totals["resolves"] += snapshot["resolves"]
                totals["cache_hits"] += snapshot["cache_hits"]
        return totals


# -- wrappers for the traced run -----------------------------------------------


def install_wrappers(recorder):
    """Wrap every :data:`WRAP_POINTS` callable and every handler registered
    from now on; returns the function that puts the originals back.

    Install before building the deployment: handlers are wrapped as they
    are passed to ``RpcEndpoint.register`` (which ``PeerInterface.register``
    and ``register_raw`` both call) and ``TcpTransport.register``.
    """
    originals = [(owner, name, getattr(owner, name)) for _, owner, name in WRAP_POINTS]
    originals.append((RpcEndpoint, "register", RpcEndpoint.register))
    originals.append((TcpTransport, "register", TcpTransport.register))
    for layer, owner, name in WRAP_POINTS:
        setattr(owner, name, recorder.wrap(layer, getattr(owner, name)))
    endpoint_register = RpcEndpoint.register
    transport_register = TcpTransport.register

    def register_handler(self, kind, handler):
        layer = HANDLER_LAYER.get(kind, "net.rpc")
        return endpoint_register(self, kind, recorder.wrap(layer, handler))

    def register_node(self, name, handler):
        return transport_register(self, name, recorder.wrap("net.rpc", handler))

    RpcEndpoint.register = register_handler
    TcpTransport.register = register_node

    def restore() -> None:
        for owner, name, original in originals:
            setattr(owner, name, original)

    return restore


# -- isolation probes: direct calls on inputs shaped like the workloads' -------


def _timed(fn, repeats: int) -> list[float]:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return samples


def probes_standalone(small: bytes, bulk: bytes, store_dir: Path, repeats: int):
    """Probes that need no Core: framing, serializer, stores.

    Yields ``(metric name, samples in seconds)``.  ``bulk`` has the size
    of one movement-group stream.
    """
    small_envelope = Envelope("driver", "A", MessageKind.INVOKE, small)
    bulk_envelope = Envelope("A", "B", MessageKind.MOVE_COMPLET, bulk)
    yield "net.framing.encode_small_us", _timed(
        lambda: framing.encode_request(small_envelope, 7), repeats * 20)
    yield "net.framing.encode_bulk_us", _timed(
        lambda: framing.encode_request(bulk_envelope, 7), repeats)
    frame = framing.encode_request(bulk_envelope, 7)
    chunks = [frame[at:at + (1 << 16)] for at in range(0, len(frame), 1 << 16)]

    def decode() -> None:
        decoder = framing.FrameDecoder()
        frames = [f for chunk in chunks for f in decoder.feed(chunk)]
        if len(frames) != 1 or len(frames[0].payload) != len(bulk):
            raise AssertionError("bulk frame did not decode to its payload")

    yield "net.framing.decode_bulk_us", _timed(decode, repeats)
    wire = PLAIN.dumps(bulk)
    yield "net.serializer.dumps_bulk_us", _timed(lambda: PLAIN.dumps(bulk), repeats)
    yield "net.serializer.loads_bulk_us", _timed(lambda: PLAIN.loads(wire), repeats)
    block = bulk[: len(bulk) // 3]
    for label, store in (("file", FileStore(store_dir)), ("memory", InMemoryStore())):
        puts, gets = [], []
        for _ in range(repeats):
            start = time.perf_counter()
            key = store.put(block)
            middle = time.perf_counter()
            data = store.get(key)
            gets.append(time.perf_counter() - middle)
            puts.append(middle - start)
            store.evict(key)
            if len(data) != len(block):
                raise AssertionError(f"{label} store returned {len(data)} bytes")
        store.close()
        yield f"store.{label}_put_us", puts
        yield f"store.{label}_get_us", gets


def probes_transport(small: bytes, bulk: bytes, repeats: int):
    """Bare envelope round trips between two hubs, then two RPC endpoints."""
    hubs = [TcpTransport(), TcpTransport()]
    try:
        hubs[0].register("x", lambda envelope: b"")
        hubs[1].register("y", lambda envelope: envelope.payload[:64])
        hubs[0].add_peer("y", hubs[1].local_address("y"))
        hubs[1].add_peer("x", hubs[0].local_address("x"))

        def echo(payload: bytes) -> None:
            reply = hubs[0].send(Envelope("x", "y", MessageKind.PROFILE_PROBE, payload))
            if reply != payload[:64]:
                raise AssertionError("hub echo returned other bytes")

        echo(small)
        yield "net.tcp.echo_small_us", _timed(lambda: echo(small), repeats * 20)
        yield "net.tcp.echo_bulk_us", _timed(lambda: echo(bulk), repeats)
    finally:
        for hub in hubs:
            hub.close()
    hubs = [TcpTransport(), TcpTransport()]
    try:
        caller = RpcEndpoint("x", hubs[0])
        callee = RpcEndpoint("y", hubs[1])
        callee.register(MessageKind.PROFILE_PROBE, lambda src, payload: payload)
        hubs[0].add_peer("y", hubs[1].local_address("y"))
        hubs[1].add_peer("x", hubs[0].local_address("x"))

        def call() -> None:
            if caller.call("y", MessageKind.PROFILE_PROBE, small) != small:
                raise AssertionError("RPC echo returned other bytes")

        call()
        yield "net.rpc.call_small_us", _timed(call, repeats * 20)
    finally:
        for hub in hubs:
            hub.close()


def probes_cores(blobs: list[bytes], repeats: int):
    """Probes on two in-process Cores: marshalers, local call, small move."""
    deployment = Deployment("hubs", ["A", "B"])
    try:
        core = deployment.driver
        marshaler = InvocationMarshaler(core)
        yield "complet.marshal.invoke_dumps_small_us", _timed(
            lambda: marshaler.dumps(("ping", (), {})), repeats * 20)
        local = deployment.new_target(DRIVER)
        yield "core.invocation.local_us", _timed(local.ping, repeats * 20)

        root = deployment.new_group(DRIVER, blobs)
        anchor = stub_tracker(root).local_anchor

        def group_payload():
            return MovementMarshaler(core, MovementPlan(core, anchor)).payload(None)

        if len(group_payload().members) != len(blobs) + 1:
            raise AssertionError("the probe's group does not pull its leaves")
        yield "complet.marshal.group_payload_us", _timed(group_payload, repeats)
        payload = group_payload()
        receiver = deployment.core("B")
        yield "complet.marshal.group_load_us", _timed(
            lambda: MovementUnmarshaler(receiver, payload).load(), repeats)

        mover = deployment.new_target("A", bytes(1024))
        places = ["B", "A"]
        samples = []
        for index in range(repeats * 4):
            start = time.perf_counter()
            deployment.move(mover, places[index % 2])
            samples.append(time.perf_counter() - start)
            mover.ping()  # shortens the driver's tracker, as the workload's check does
        yield "core.movement.move_small_us", samples
    finally:
        deployment.close()
