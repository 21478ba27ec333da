"""Deterministic bench scenarios, one per ``benchmarks/bench_*.py`` area.

Every scenario drives a freshly built cluster entirely on the virtual
clock and returns a flat ``{metric: number}`` dict.  All quantities are
simulation-derived (virtual seconds, network bytes/messages, serializer
and fan-out counters), so two runs of the same code produce the same
numbers on any machine — the property ``python -m repro.bench --check``
relies on.  Wall-clock time is measured by the runner, reported for
context, and never compared.

The scenarios deliberately mirror the shapes of the pytest-benchmark
files (chains built with ``move_via_host``, pull groups hung off an
anchor attribute, watch-driven monitoring) so a regression caught here
points straight at the corresponding ``benchmarks/bench_<area>.py``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.core import events as core_events
from repro.core.admin import CoreAdmin
from repro.monitor import profiler as monitor_profiler
from repro.net import serializer


@dataclass(frozen=True)
class Scenario:
    """One runnable bench area."""

    name: str
    fn: Callable[[], dict]
    description: str
    #: The metric this area's hot-path fix targets (compared in the
    #: BENCH file's pre-fix/post-fix entries); None for coverage areas.
    targeted_metric: str | None = None
    #: Areas that drive real OS processes run outside the real-clock
    #: ban; their timing metrics must use the ``_wall_seconds`` suffix
    #: so the runner never compares them across machines.
    real_clock: bool = False


def _reset_counters(cluster: Cluster | None = None) -> None:
    serializer.STATS.reset()
    core_events.DISPATCH_STATS.reset()
    monitor_profiler.LISTENER_STATS.reset()
    if cluster is not None:
        cluster.reset_stats()


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def _collect(
    cluster: Cluster | None,
    *,
    ops: int,
    virtual_seconds: float,
    latencies: list[float] | None = None,
) -> dict:
    metrics: dict = {
        "ops": ops,
        "virtual_seconds": round(virtual_seconds, 9),
        "serializer_dumps": serializer.STATS.dumps_calls,
        "serializer_bytes_out": serializer.STATS.bytes_out,
        "serializer_buffers": serializer.STATS.buffers_allocated,
        "event_snapshots_built": core_events.DISPATCH_STATS.snapshots_built,
        "sampler_snapshots_built": monitor_profiler.LISTENER_STATS.snapshots_built,
    }
    if cluster is not None:
        metrics["net_bytes"] = cluster.stats.bytes
        metrics["net_messages"] = cluster.stats.messages
        metrics["net_seconds"] = round(cluster.stats.seconds, 9)
    if virtual_seconds > 0:
        metrics["ops_per_vsec"] = round(ops / virtual_seconds, 6)
    if latencies:
        metrics["latency_p50_vs"] = round(_percentile(latencies, 0.50), 9)
        metrics["latency_p99_vs"] = round(_percentile(latencies, 0.99), 9)
    return metrics


def _pull_group(core, members: int, member_bytes: int):
    """A head complet at ``core`` pulling ``members`` data holders; its stub."""
    from repro.cluster.workload import DataSource, Echo
    from repro.complet.relocators import Pull
    from repro.core.core import Core

    head = Echo("head", _core=core)
    anchor = core.repository.get(head._fargo_target_id)
    anchor.members = [DataSource(member_bytes, _core=core) for _ in range(members)]
    for stub in anchor.members:
        Core.get_meta_ref(stub).set_relocator(Pull())
    return head


def move_peak_ratio(transport: str) -> float:
    """Peak memory one group move allocates, per payload byte (lower is better).

    The group is realpath's ``move_group``: a root pulling three 256 KiB
    leaves between two Cores, over ``"sim"`` or ``"tcp"`` hubs.  The
    ``tracemalloc`` peak above the level before the move counts every
    payload-sized copy alive at once on either side, whatever the host's
    allocator does with them; tier-1 bounds it (tests/integration/
    test_move_memory.py).
    """
    import tracemalloc

    from repro.sim.clock import VirtualClock

    leaves, leaf_bytes = 3, 256 * 1024
    cluster = Cluster(["a", "b"], transport=transport, clock=VirtualClock())
    try:
        root = _pull_group(cluster["a"], leaves, leaf_bytes)
        cluster.move(root, "b")  # connections, thread pools and caches exist from here on
        cluster.move(root, "a")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cluster.move(root, "b")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        cluster.close()
    return round((peak - before) / (leaves * leaf_bytes), 2)


def bulk_bytes_echoes(echoes: int = 8) -> tuple[list[int], int]:
    """Echoes of one 256 KiB ``bytes`` object to a remote complet, over ``store="memory"``.

    Returns the bytes the store hashed during each echo and the bytes the
    network carried over all of them.  A buffer a Core still caches keeps
    its key, so only the first echo hashes, and it hashes the buffer once;
    tier-1 pins that (tests/integration/test_store_matrix.py).
    """
    from repro.cluster.workload import Echo

    cluster = Cluster(["a", "b"], store="memory")
    try:
        echo = Echo("bulk", _core=cluster["a"], _at="b")
        buffer = bytes(range(256)) * 1024
        stats = cluster["a"].store_client.store.stats  # the one store both Cores share
        _reset_counters(cluster)
        hashed = []
        for _ in range(echoes):
            before = stats.bytes_hashed
            assert echo.echo(buffer) == buffer
            hashed.append(stats.bytes_hashed - before)
        return hashed, cluster.stats.bytes
    finally:
        cluster.close()


# -- the four fix-targeted areas -------------------------------------------------------


def marshal() -> dict:
    """Repeated checkpoints of unchanged complets (the memoization case)."""
    from repro.core.persistence import snapshot

    cluster = Cluster(["a", "b"])
    from repro.cluster.workload import DataSource

    sources = [DataSource(2_000, _core=cluster["a"]) for _ in range(8)]
    _reset_counters(cluster)
    t0 = cluster.now
    ops = 0
    for _ in range(25):
        for source in sources:
            snapshot(cluster["a"], source)
            ops += 1
        cluster.advance(0.5)
    return _collect(cluster, ops=ops, virtual_seconds=cluster.now - t0)


def tracker_chains() -> dict:
    """A bulk payload invoked through a 5-hop tracker chain."""
    from repro.cluster.workload import Echo

    cluster = Cluster(["n0", "n1", "n2", "n3", "n4", "n5"])
    echo = Echo("tag", _core=cluster["n0"])
    for dest in ("n1", "n2", "n3", "n4", "n5"):
        cluster.move_via_host(echo, dest)
    payload = "x" * 8_192
    _reset_counters(cluster)
    t0 = cluster.now
    latencies = []
    for _ in range(4):
        start = cluster.now
        echo.echo(payload)
        latencies.append(cluster.now - start)
    return _collect(
        cluster, ops=4, virtual_seconds=cluster.now - t0, latencies=latencies
    )


def invocation() -> dict:
    """Small remote calls in a tight loop (framing overhead dominates)."""
    from repro.cluster.workload import Counter

    cluster = Cluster(["a", "b"])
    counter = Counter(0, _core=cluster["a"])
    cluster.move(counter, "b")
    _reset_counters(cluster)
    t0 = cluster.now
    latencies = []
    for _ in range(200):
        start = cluster.now
        counter.increment()
        latencies.append(cluster.now - start)
    metrics = _collect(
        cluster, ops=200, virtual_seconds=cluster.now - t0, latencies=latencies
    )

    # Bulk-argument segment: a 256 KiB payload echoed through a remote
    # call, inline vs offloaded to the object store.
    from repro.cluster.workload import Echo

    bulk = {}
    payload = "y" * 262_144
    for label, kwargs in (("bulk_eager", {}), ("bulk_store", {"store": "memory"})):
        bulk_cluster = Cluster(["a", "b"], **kwargs)
        echo = Echo("bulk", _core=bulk_cluster["a"])
        bulk_cluster.move(echo, "b")
        _reset_counters(bulk_cluster)
        assert echo.echo(payload) == payload
        bulk[f"{label}_net_bytes"] = bulk_cluster.stats.bytes
        bulk_cluster.close()
    bulk["bulk_store_pct_of_eager"] = round(
        100.0 * bulk["bulk_store_net_bytes"] / bulk["bulk_eager_net_bytes"], 6
    )
    metrics.update(bulk)
    return metrics


def monitoring() -> dict:
    """Event fan-out under load plus watch-driven sampling."""
    from repro.cluster.workload import Echo

    cluster = Cluster(["a", "b"])
    core = cluster["a"]
    seen: list = []
    for _ in range(2):
        core.events.subscribe("*", seen.append)
    for _ in range(3):
        core.events.subscribe("tick", seen.append)
    listener = Echo("listener", _core=cluster["a"])
    core.events.subscribe_complet("tick", listener, "echo")
    core.monitor.watch("completLoad", ">", 0.0, interval=0.5, repeat=True)
    core.monitor.watch("trackerLoad", ">=", 0.0, interval=0.5, repeat=True)
    _reset_counters(cluster)
    t0 = cluster.now
    for sequence in range(300):
        core.events.publish("tick", seq=sequence)
        if sequence % 25 == 24:
            cluster.advance(0.5)
    return _collect(cluster, ops=300, virtual_seconds=cluster.now - t0)


# -- coverage areas (one per remaining bench file) --------------------------------------


def movement() -> dict:
    """A pull group of nine complets ping-ponged between two Cores."""
    cluster = Cluster(["a", "b"])
    head = _pull_group(cluster["a"], 8, 512)
    _reset_counters(cluster)
    t0 = cluster.now
    for destination in ("b", "a", "b", "a", "b", "a"):
        cluster.move(head, destination)
    metrics = _collect(cluster, ops=6, virtual_seconds=cluster.now - t0)
    metrics["move_peak_bytes_per_payload_byte"] = move_peak_ratio("sim")
    return metrics


def tracking_modes() -> dict:
    """Chain-following vs location-registry resolution, side by side."""
    from repro.cluster.workload import Counter
    from repro.core.locator import LocationRegistry, Locator

    results = {}
    for label, locator in (("chain", Locator), ("registry", LocationRegistry)):
        cluster = Cluster(["a", "b", "c", "d"], locator=locator)
        counter = Counter(0, _core=cluster["a"])
        for dest in ("b", "c", "d"):
            cluster.move_via_host(counter, dest)
        _reset_counters(cluster)
        for _ in range(3):
            counter.increment()
        results[f"{label}_messages"] = cluster.stats.messages
        results[f"{label}_bytes"] = cluster.stats.bytes
    results["ops"] = 6
    return results


def recovery() -> dict:
    """Crash-to-verdict detection latency on the virtual clock."""
    from repro.cluster.failures import FailureInjector
    from repro.core.events import CORE_FAILED
    from repro.recovery import DetectorConfig

    cluster = Cluster(["a", "b", "c"])
    cluster.enable_recovery(
        detector=DetectorConfig(interval=0.5, suspect_after=0.75, fail_after=1.5),
        auto_recover=False,
    )
    verdicts: list[float] = []
    cluster["b"].events.subscribe(
        CORE_FAILED, lambda event: verdicts.append(cluster.now)
    )
    _reset_counters(cluster)
    t0 = cluster.now
    crash_at = 2.0
    FailureInjector(cluster).crash_core_at(crash_at, "a")
    cluster.advance(crash_at + 1.5 + 1.1)
    metrics = _collect(cluster, ops=1, virtual_seconds=cluster.now - t0)
    metrics["detection_latency_vs"] = (
        round(verdicts[0] - crash_at, 9) if verdicts else -1.0
    )
    return metrics


def runtime_ops() -> dict:
    """Instantiation, naming, and checkpoint/restore round trips."""
    from repro.core.persistence import restore, snapshot
    from repro.cluster.workload import Echo, Echo_

    cluster = Cluster(["a", "b"])
    _reset_counters(cluster)
    t0 = cluster.now
    ops = 0
    for _ in range(20):
        cluster["a"].instantiate(Echo_, "tag")
        ops += 1
    for _ in range(10):
        cluster["a"].instantiate(Echo_, "tag", at="b")
        ops += 1
    service = Echo("svc", _core=cluster["a"])
    cluster["a"].bind("svc", service)
    for _ in range(10):
        cluster["b"].naming.lookup_at("a", "svc")
        ops += 1
    for _ in range(5):
        restore(cluster["a"], snapshot(cluster["a"], service))
        ops += 1
    return _collect(cluster, ops=ops, virtual_seconds=cluster.now - t0)


def tracing() -> dict:
    """Remote calls with full span recording enabled."""
    from repro.cluster.workload import Counter

    cluster = Cluster(["n1", "n2"], tracing=True)
    counter = Counter(0, _core=cluster["n1"])
    cluster.move(counter, "n2")
    _reset_counters(cluster)
    t0 = cluster.now
    for _ in range(50):
        counter.increment()
    return _collect(cluster, ops=50, virtual_seconds=cluster.now - t0)


def analysis() -> dict:
    """Static checking: scripts, an app module, interactions, and plans.

    ``sanitizer_overhead_pct`` is the wall-clock cost of running the
    move workload with ``Cluster(sanitize=True)`` relative to the same
    workload without it; wall-derived, so recorded for context only.
    """
    import inspect
    import time

    from repro.analysis import (
        MovePlan,
        PlannedMove,
        check_complet_source,
        check_interaction,
        check_plan,
        check_script,
    )
    from repro.cluster import workload
    from repro.cluster.workload import Counter

    script = "\n".join(
        f'on completArrived listenAt [core{i}] do move c{i} to "sink{i}" end'
        for i in range(100)
    )
    diagnostics = 0
    for _ in range(3):
        diagnostics += len(check_script(script))
    diagnostics += len(check_complet_source(inspect.getsource(workload)))

    # Interaction checking over a whole installed set (FG401-FG404).
    racy = "\n".join(
        f'on completArrived do move "c{i % 10}" to "sink{i % 7}" end'
        for i in range(40)
    )
    interaction_diagnostics = len(
        check_interaction([(script, "<a>"), (racy, "<b>")])
    )

    # Plan checking throughput: one 200-step batch, three passes.
    plan = MovePlan(
        [PlannedMove(f"c{i}", f"sink{i % 7}") for i in range(200)],
        name="<bench-plan>",
        locations={f"c{i}": "origin" for i in range(200)},
    )
    plan_ops = 0
    plan_diagnostics = 0
    for _ in range(3):
        plan_diagnostics += len(check_plan(plan))
        plan_ops += len(plan.moves)

    def _move_workload(sanitize: bool) -> float:
        cluster = Cluster(["a", "b"], sanitize=sanitize)
        counter = Counter(0, _core=cluster["a"])
        started = time.perf_counter()
        for _ in range(25):
            cluster.move(counter, "b")
            cluster.move(counter, "a")
        return time.perf_counter() - started

    plain = min(_move_workload(False) for _ in range(3))
    sanitized = min(_move_workload(True) for _ in range(3))
    overhead = 100.0 * (sanitized - plain) / plain if plain > 0 else 0.0

    _reset_counters()
    return {
        "ops": 4,
        "diagnostics_total": diagnostics,
        "interaction_diagnostics_total": interaction_diagnostics,
        "plan_ops": plan_ops,
        "plan_diagnostics_total": plan_diagnostics,
        "sanitizer_overhead_pct": round(overhead, 2),
    }


def adaptive_layout() -> dict:
    """Script-driven colocation under a two-phase affinity workload."""
    from repro.script.interpreter import ScriptEngine
    from repro.cluster.workload import Client, Server

    cluster = Cluster(["site1", "site2"], bandwidth=100_000.0, latency=0.02)
    server1 = Server(reply_size=4_096, _core=cluster["site1"], _at="site1")
    server2 = Server(reply_size=4_096, _core=cluster["site2"], _at="site2")
    client = Client(server1, request_size=2_048, _core=cluster["site1"], _at="site1")
    engine = ScriptEngine(cluster, home="site1")
    engine._globals.update({"c": client, "s1": server1, "s2": server2})
    engine.run(
        "on methodInvokeRate(2) from $c to $s1 do move $c to coreOf $s1 end\n"
        "on methodInvokeRate(2) from $c to $s2 do move $c to coreOf $s2 end"
    )
    _reset_counters(cluster)
    t0 = cluster.now
    ops = 0
    for _ in range(4):
        cluster.stub_at(cluster.locate(client), client).run(4)
        cluster.advance(1.0)
        ops += 4
    host = cluster.core(cluster.locate(client))
    host.repository.get(client._fargo_target_id).server = cluster.stub_at(
        host.name, server2
    )
    for _ in range(4):
        cluster.stub_at(cluster.locate(client), client).run(4)
        cluster.advance(1.0)
        ops += 4
    return _collect(cluster, ops=ops, virtual_seconds=cluster.now - t0)


def pipeline() -> dict:
    """Items through a three-stage pipeline spread over three Cores."""
    from repro.cluster.workload import Stage

    cluster = Cluster(["a", "b", "c"], bandwidth=250_000.0, latency=0.02)
    last = Stage(None, cost_bytes=256, _core=cluster["c"], _at="c")
    middle = Stage(last, cost_bytes=256, _core=cluster["b"], _at="b")
    first = Stage(middle, cost_bytes=256, _core=cluster["a"], _at="a")
    driver = cluster.stub_at("a", first)
    item = b"x" * 512
    _reset_counters(cluster)
    t0 = cluster.now
    latencies = []
    for _ in range(10):
        start = cluster.now
        driver.process(item)
        latencies.append(cluster.now - start)
    return _collect(
        cluster, ops=10, virtual_seconds=cluster.now - t0, latencies=latencies
    )


def script() -> dict:
    """Parse throughput plus rule firing on the event path."""
    from repro.script.interpreter import ScriptEngine
    from repro.script.parser import parse
    from repro.cluster.workload import Counter

    source = "\n".join(
        f'on completArrived listenAt [core{i}] do log "rule{i}" end'
        for i in range(50)
    )
    cluster = Cluster(["a", "b"])
    engine = ScriptEngine(cluster, home="a")
    engine.run('on completArrived listenAt [a] do log "seen" end')
    counter = Counter(0, _core=cluster["a"])
    _reset_counters(cluster)
    t0 = cluster.now
    ops = 0
    for _ in range(20):
        parse(source)
        ops += 1
    for _ in range(5):
        cluster.move(counter, "b")
        cluster.move(counter, "a")
        ops += 2
    return _collect(cluster, ops=ops, virtual_seconds=cluster.now - t0)


def transport() -> dict:
    """SimTransport round-trips vs the TCP codec's per-message overhead.

    The first half drives envelopes through the simulated transport (the
    default backend); the second encodes the very same envelopes with
    the length-prefixed TCP framing and decodes them back, so the area
    pins both the simulated per-message accounting and the wire codec's
    byte overhead.  Everything is counted, nothing timed: deterministic
    on any machine.
    """
    from repro.net import Envelope, MessageKind, SimTransport
    from repro.net import framing
    from repro.sim.clock import VirtualClock
    from repro.sim.scheduler import Scheduler

    scheduler = Scheduler(VirtualClock())
    net = SimTransport(
        scheduler, default_bandwidth=1_000_000.0, default_latency=0.01
    )
    net.register("a", lambda env: b"\x00" + env.payload)
    net.register("b", lambda env: b"\x00")
    payloads = [b"p" * (64 + 16 * i) for i in range(50)]
    _reset_counters()
    t0 = scheduler.clock.now()
    for payload in payloads:
        net.send(
            Envelope(src="b", dst="a", kind=MessageKind.INVOKE, payload=payload)
        )
    metrics = {
        "ops": len(payloads),
        "virtual_seconds": round(scheduler.clock.now() - t0, 9),
        "sim_bytes": net.stats.bytes,
        "sim_messages": net.stats.messages,
    }

    decoder = framing.FrameDecoder()
    frame_bytes = 0
    payload_bytes = 0
    frames_decoded = 0
    for request_id, payload in enumerate(payloads, start=1):
        envelope = Envelope(
            src="b", dst="a", kind=MessageKind.INVOKE, payload=payload
        )
        encoded = framing.encode_request(envelope, request_id)
        encoded += framing.encode_reply(request_id, b"\x00" + payload)
        frame_bytes += len(encoded)
        payload_bytes += 2 * len(payload) + 1
        frames_decoded += len(decoder.feed(encoded))
    metrics["frame_bytes"] = frame_bytes
    metrics["frame_overhead_bytes"] = frame_bytes - payload_bytes
    metrics["frame_overhead_per_msg"] = round(
        (frame_bytes - payload_bytes) / frames_decoded, 6
    )
    metrics["frames_decoded"] = frames_decoded
    metrics["decoder_residue_bytes"] = decoder.pending_bytes
    # The one part of this area on real sockets (a TCP hub on loopback, on
    # the virtual clock): counted in bytes, not timed.
    metrics["move_peak_bytes_per_payload_byte"] = move_peak_ratio("tcp")
    return metrics


def store() -> dict:
    """Large-payload offloading through the object store (repro.store).

    Four segments, all virtual-clock deterministic:

    - a 1 MiB complet moved eagerly vs offloaded (the headline
      transport-byte reduction; ``store_move_pct_of_eager`` is the
      targeted metric, lower is better);
    - the same unchanged complet ping-ponged with the store on —
      content keying makes every re-ship the same digest, so repeat
      destinations resolve from their local cache (copy-on-first-read);
    - a burst of large remote calls where arguments and replies cross
      as proxies;
    - the same burst with one ``bytes`` object as the argument, which is
      offloaded on its own beside the pickle and hashed once in all
      (``bulk_bytes_hashed``; see :func:`bulk_bytes_echoes`).
    """
    from repro.cluster.workload import DataSource, Echo

    metrics: dict = {"ops": 0}

    # Segment 1: one heavy move, eager vs store.
    for label, kwargs in (("eager_move", {}), ("store_move", {"store": "memory"})):
        cluster = Cluster(["a", "b"], **kwargs)
        source = DataSource(1_048_576, _core=cluster["a"])
        _reset_counters(cluster)
        cluster.move(source, "b")
        metrics[f"{label}_net_bytes"] = cluster.stats.bytes
        metrics[f"{label}_net_messages"] = cluster.stats.messages
        metrics["ops"] += 1
        cluster.close()
    metrics["store_move_pct_of_eager"] = round(
        100.0 * metrics["store_move_net_bytes"] / metrics["eager_move_net_bytes"], 6
    )

    # Segment 2: copy-on-first-read.  Four holders each duplicate the
    # *same* unchanged 256 KiB original when moved; the serving Core's
    # clone cache re-marshals identical bytes, content keying maps them
    # to one store entry (dedup puts), and the destination resolves the
    # repeats from its local cache instead of re-reading the store.
    from repro.complet.relocators import Duplicate
    from repro.core.core import Core

    cluster = Cluster(["a", "b", "c"], store="memory")
    original = DataSource(262_144, _core=cluster["a"], _at="c")
    holders = []
    for index in range(4):
        holder = Echo(f"holder{index}", _core=cluster["a"])
        anchor = cluster["a"].repository.get(holder._fargo_target_id)
        anchor.payload_ref = cluster.stub_at("a", original)
        Core.get_meta_ref(anchor.payload_ref).set_relocator(Duplicate())
        holders.append(holder)
    _reset_counters(cluster)
    for holder in holders:
        cluster.move(holder, "b")
        metrics["ops"] += 1
    metrics["pingpong_net_bytes"] = cluster.stats.bytes
    snap = cluster.store_snapshot()
    clients = [view["client"] for view in snap["cores"].values() if view["enabled"]]
    metrics["pingpong_cache_hits"] = sum(c["cache_hits"] for c in clients)
    metrics["pingpong_store_hits"] = sum(c["store_hits"] for c in clients)
    metrics["pingpong_resolve_misses"] = sum(c["misses"] for c in clients)
    metrics["pingpong_bytes_saved"] = sum(c["bytes_saved"] for c in clients)
    metrics["pingpong_dedup_puts"] = snap["store"]["stats"]["dedup_puts"]
    cluster.close()

    # Segment 3: bulk remote calls, argument and reply both offloaded.
    cluster = Cluster(["a", "b"], store="memory")
    echo = Echo("bulk", _core=cluster["a"])
    cluster.move(echo, "b")
    payload = "z" * 131_072
    _reset_counters(cluster)
    t0 = cluster.now
    for _ in range(8):
        assert echo.echo(payload) == payload
        metrics["ops"] += 1
    metrics["bulk_invoke_net_bytes"] = cluster.stats.bytes
    metrics["bulk_invoke_net_messages"] = cluster.stats.messages
    metrics["virtual_seconds"] = round(cluster.now - t0, 9)
    store_backend = cluster.store_snapshot()["store"]["stats"]
    metrics["store_puts"] = store_backend["puts"]
    metrics["store_dedup_puts"] = store_backend["dedup_puts"]
    metrics["store_misses"] = store_backend["misses"]
    cluster.close()

    # Segment 4: the same burst, the argument one 256 KiB bytes object.
    hashed, net_bytes = bulk_bytes_echoes(8)
    metrics["ops"] += len(hashed)
    metrics["bulk_bytes_hashed"] = sum(hashed)
    metrics["bulk_bytes_net_bytes"] = net_bytes
    return metrics


def taskfarm() -> dict:
    """The adaptive task farm application, static placement."""
    from repro.apps.taskfarm import Farm

    cluster = Cluster(["hub", "edge1", "edge2"], bandwidth=500_000.0, latency=0.01)
    farm = Farm(cluster, "hub", ["edge1", "edge2"], batch=4)
    farm.submit(payload_size=4_096, count=12)
    _reset_counters(cluster)
    t0 = cluster.now
    makespan = farm.run_until_drained()
    metrics = _collect(cluster, ops=12, virtual_seconds=cluster.now - t0)
    metrics["makespan_vs"] = round(makespan, 9)
    return metrics


def supervision() -> dict:
    """SIGKILL-to-healed restart of a real child process (MTTR).

    The only real-clock area: it spawns OS processes, kills one, and
    times the supervisor's detect → respawn → restore → repair cycle.
    Timing metrics carry the ``_wall_seconds`` suffix (recorded for
    context, never compared across machines); the counts — restarts,
    restored identities, completed post-rebirth invocations — are
    deterministic and regression-checked.  So is ``interpreter_starts``:
    a second deployment comes up once the first has stopped, and the
    count is of the processes the children of both were forked from (one:
    the template belongs to the process, not to the deployment).
    """
    import os
    import shutil
    import signal as signal_module
    import tempfile
    import time as real_time

    from repro.cluster import CoreProcesses, Supervisor
    from repro.cluster.workload import Counter as WorkCounter

    def forked_from(procs: CoreProcesses) -> set[int]:
        parents = set()
        for child in procs.processes.values():
            with open(f"/proc/{child.pid}/stat", encoding="ascii") as stat:
                parents.add(int(stat.read().rpartition(")")[2].split()[1]))
        return parents

    checkpoint_dir = tempfile.mkdtemp(prefix="repro-bench-supervision-")
    metrics: dict = {}
    try:
        with CoreProcesses(
            ["w1", "w2"], checkpoint_dir=checkpoint_dir, checkpoint_interval=0.1
        ) as procs:
            with Supervisor(procs, poll_interval=0.02) as supervisor:
                counter = WorkCounter(0, _core=procs.driver, _at="w1")
                for _ in range(5):
                    counter.increment()
                original_id = str(counter._fargo_target_id)
                from repro.recovery import CheckpointStore

                store = CheckpointStore(checkpoint_dir)
                deadline = real_time.monotonic() + 20.0
                while not store.hosted_at("w1") and real_time.monotonic() < deadline:
                    real_time.sleep(0.02)
                killed_at = real_time.monotonic()
                os.kill(procs.processes["w1"].pid, signal_module.SIGKILL)
                deadline = real_time.monotonic() + 30.0
                while real_time.monotonic() < deadline:
                    child = supervisor.state()["children"]["w1"]
                    if child["restarts"] >= 1 and child["status"] == "running":
                        break
                    real_time.sleep(0.02)
                healed_at = real_time.monotonic()
                child = supervisor.state()["children"]["w1"]
                post_value = counter.read()  # pre-kill stub, reborn host
                metrics["supervisor_restarts"] = child["restarts"]
                hosted = CoreAdmin(procs.driver, "w1").complets()
                metrics["identity_preserved"] = int(original_id in hosted)
                metrics["post_rebirth_reads"] = int(post_value >= 0)
                metrics["kill_to_healed_wall_seconds"] = round(
                    healed_at - killed_at, 4
                )
                mttr = child["last_mttr"]
                metrics["mttr_wall_seconds"] = round(mttr, 4) if mttr else 0.0
            interpreters = forked_from(procs)
        started_at = real_time.monotonic()
        with CoreProcesses(["w1", "w2"]) as second:
            metrics["second_bring_up_wall_seconds"] = round(
                real_time.monotonic() - started_at, 4
            )
            interpreters |= forked_from(second)
        metrics["interpreter_starts"] = len(interpreters)
    finally:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    return metrics


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "marshal",
            marshal,
            "repeated checkpoints of unchanged complets",
            targeted_metric="serializer_bytes_out",
        ),
        Scenario(
            "tracker_chains",
            tracker_chains,
            "bulk payload invoked through a 5-hop tracker chain",
            targeted_metric="net_bytes",
        ),
        Scenario(
            "invocation",
            invocation,
            "small remote calls in a tight loop",
            targeted_metric="net_bytes",
        ),
        Scenario(
            "monitoring",
            monitoring,
            "event fan-out plus watch-driven sampling",
            targeted_metric="event_snapshots_built",
        ),
        Scenario("movement", movement, "pull-group ping-pong between two Cores"),
        Scenario(
            "tracking_modes",
            tracking_modes,
            "chain-following vs location-registry resolution",
        ),
        Scenario("recovery", recovery, "crash-to-verdict detection latency"),
        Scenario(
            "runtime_ops", runtime_ops, "instantiation, naming, checkpoint/restore"
        ),
        Scenario("tracing", tracing, "remote calls with span recording on"),
        Scenario("analysis", analysis, "static checks of scripts and complet source"),
        Scenario(
            "adaptive_layout",
            adaptive_layout,
            "script-driven colocation under shifting affinity",
        ),
        Scenario("pipeline", pipeline, "items through a spread three-stage pipeline"),
        Scenario("script", script, "parse throughput and rule firing"),
        Scenario(
            "transport",
            transport,
            "simulated transport accounting vs TCP framing overhead",
            targeted_metric="frame_overhead_per_msg",
        ),
        Scenario(
            "store",
            store,
            "large-payload offloading and content-keyed dedup",
            targeted_metric="store_move_pct_of_eager",
        ),
        Scenario("taskfarm", taskfarm, "the task-farm application end to end"),
        Scenario(
            "supervision",
            supervision,
            "SIGKILL-to-healed restart of a real child process (MTTR)",
            real_clock=True,
        ),
    )
}
