"""Deterministic bench scenarios: the one place a benchmark is written.

Every scenario drives freshly built clusters entirely on the virtual
clock and returns a flat ``{metric: number}`` dict.  All quantities are
simulation-derived (virtual seconds, network bytes/messages, serializer
and fan-out counters), so two runs of the same code produce the same
numbers on any machine — the property ``python -m repro.bench --check``
relies on.  Wall-clock time is measured by the runner, reported for
context, and never compared.

An area first measures its own workload (``_collect``), then the series
EXPERIMENTS.md quotes for the paper's claims, each in clusters of its
own, as more flat metrics (``hops4_first_messages``,
``link50k_dynamic_net_seconds``).  The shapes those series must have are
tier-1 tests over :func:`repro.bench.runner.run_area` output
(tests/bench/test_areas.py).  Where an area and a test need the same
workload (:func:`affinity_flip`, :func:`_pipeline`, :func:`_farm`), it
is built here once.
"""

from __future__ import annotations

import gc
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


def _pulling_head(core, members: int, member_bytes: int):
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


def _hopped(names: list[str], hops: int, **options):
    """A cluster over ``names`` and a counter born at the first that hopped
    host-side through the next ``hops``."""
    from repro.cluster.workload import Counter

    cluster = Cluster(names, **options)
    counter = Counter(0, _core=cluster[names[0]])
    for name in names[1 : hops + 1]:
        cluster.move_via_host(counter, name)
    return cluster, counter


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
    gc.collect()  # garbage of what ran before must not be freed mid-move
    cluster = Cluster(["a", "b"], transport=transport, clock=VirtualClock())
    try:
        root = _pulling_head(cluster["a"], leaves, leaf_bytes)
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
    """Repeated checkpoints of unchanged complets (the memoization case),
    then closure size against wire bytes for one move."""
    from repro.cluster.workload import DataSource
    from repro.complet.closure import compute_closure
    from repro.core.persistence import snapshot

    cluster = Cluster(["a", "b"])
    sources = [DataSource(2_000, _core=cluster["a"]) for _ in range(8)]
    _reset_counters(cluster)
    t0 = cluster.now
    ops = 0
    for _ in range(25):
        for source in sources:
            snapshot(cluster["a"], source)
            ops += 1
        cluster.advance(0.5)
    metrics = _collect(cluster, ops=ops, virtual_seconds=cluster.now - t0)
    for size in (1_000, 10_000, 100_000):
        pair = Cluster(["a", "b"])
        source = DataSource(size, _core=pair["a"])
        anchor = pair["a"].repository.get(source._fargo_target_id)
        metrics[f"blob{size}_closure_bytes"] = compute_closure(anchor).size_bytes
        pair.reset_stats()
        pair.move(source, "b")
        metrics[f"blob{size}_wire_bytes"] = pair.stats.bytes
    return metrics


def tracker_chains() -> dict:
    """A bulk payload invoked through a 5-hop tracker chain, then F2/C2:
    a counter that hopped 1, 2, 4 or 8 times, called twice from its birth
    Core (INVOKE messages and seconds per call, trackers collected after)."""
    from repro.cluster.workload import Echo
    from repro.net.messages import MessageKind

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
    metrics = _collect(
        cluster, ops=4, virtual_seconds=cluster.now - t0, latencies=latencies
    )
    for hops in (1, 2, 4, 8):
        chain, counter = _hopped([f"c{i}" for i in range(hops + 1)], hops)
        for call in ("first", "second"):
            invokes, start = chain.stats.by_kind[MessageKind.INVOKE], chain.now
            counter.increment()
            metrics[f"hops{hops}_{call}_messages"] = (
                chain.stats.by_kind[MessageKind.INVOKE] - invokes
            )
            metrics[f"hops{hops}_{call}_seconds"] = round(chain.now - start, 9)
        metrics[f"hops{hops}_trackers_collected"] = chain.collect_all_trackers()
    return metrics


def invocation() -> dict:
    """Small remote calls in a tight loop (framing overhead dominates), a
    bulk argument inline and offloaded, then C1's trackers and payloads."""
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

    # C1: one tracker per target per Core however many references hold it,
    # and the simulated price of a call growing with its argument.
    for count in (1, 8, 64):
        fresh = Cluster(["a", "b"])
        target = Counter(0, _core=fresh["a"])
        fresh.move(target, "b")
        for stub in [fresh.stub_at("a", target) for _ in range(count)]:
            stub.increment()
        metrics[f"refs{count}_trackers"] = fresh["a"].repository.tracker_count()
    sized = Cluster(["a", "b"])
    echo = Echo("e", _core=sized["a"])
    sized.move(echo, "b")
    for size in (100, 10_000, 1_000_000):
        start = sized.now
        echo.echo(bytes(size))
        metrics[f"payload{size}_sim_seconds"] = round(sized.now - start, 9)
    return metrics


def monitoring() -> dict:
    """Event fan-out under load plus watch-driven sampling, then the
    evaluation counts of C4 (the instant-read cache), C5 (sampling follows
    started profiles; a stopped one costs nothing) and C6 (one measurement
    for any number of threshold listeners)."""
    from repro.cluster.workload import DataSource, Echo

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
    metrics = _collect(cluster, ops=300, virtual_seconds=cluster.now - t0)

    loaded = Cluster(["a", "b"])
    for _ in range(20):
        DataSource(4_096, _core=loaded["a"])
    for label, use_cache in (("cached", True), ("uncached", False)):
        before = loaded["a"].profiler.evaluations["coreMemory"]
        for _ in range(100):
            loaded["a"].profile_instant("coreMemory", use_cache=use_cache)
        metrics[f"{label}_reads_evaluations"] = (
            loaded["a"].profiler.evaluations["coreMemory"] - before
        )
    for started in (0, 1, 4, 16):
        quiet = Cluster(["a", "b"])
        for index in range(started):
            quiet["a"].profiler.register_service(f"svc{index}", lambda c, p: 1.0)
            quiet["a"].profile(f"svc{index}", interval=1.0)
        quiet.advance(10.0)
        metrics[f"profiles{started}_evaluations"] = sum(
            quiet["a"].profiler.evaluations.values()
        )
    stopped = Cluster(["a", "b"])
    session = stopped["a"].profile("completLoad", interval=1.0)
    stopped.advance(5.0)
    session.stop()
    before = stopped["a"].profiler.evaluations["completLoad"]
    stopped.advance(50.0)
    metrics["stopped_profile_evaluations"] = (
        stopped["a"].profiler.evaluations["completLoad"] - before
    )
    metrics["stopped_pending_timers"] = stopped.scheduler.pending
    for listeners in (1, 10, 100):
        shared = Cluster(["a", "b"])
        for index in range(listeners):
            shared["a"].events.subscribe("load-evt", seen.append)
            shared["a"].monitor.watch(
                "completLoad", ">", float(index % 7), interval=1.0, event_name="load-evt"
            )
        Echo("x", _core=shared["a"])
        shared.advance(10.0)
        metrics[f"listeners{listeners}_evaluations"] = shared["a"].profiler.evaluations[
            "completLoad"
        ]
        metrics[f"listeners{listeners}_profiles"] = shared["a"].profiler.active_profiles()
    return metrics


# -- coverage areas ----------------------------------------------------------------------


def movement() -> dict:
    """A pull group of nine complets ping-ponged between two Cores, then C3:
    MOVE_COMPLET requests and bytes for a pull group of N against the same
    complets moved one by one, and group bytes against member size."""
    from repro.cluster.workload import DataSource
    from repro.net.messages import MessageKind

    cluster = Cluster(["a", "b"])
    head = _pulling_head(cluster["a"], 8, 512)
    _reset_counters(cluster)
    t0 = cluster.now
    for destination in ("b", "a", "b", "a", "b", "a"):
        cluster.move(head, destination)
    metrics = _collect(cluster, ops=6, virtual_seconds=cluster.now - t0)
    metrics["move_peak_bytes_per_payload_byte"] = move_peak_ratio("sim")

    def moved(label: str, members: int, member_bytes: int, naive: bool = False) -> None:
        pair = Cluster(["a", "b"])
        pulled = 0 if naive else members
        complets = [_pulling_head(pair["a"], pulled, member_bytes)]
        complets += [DataSource(member_bytes, _core=pair["a"]) for _ in range(members - pulled)]
        pair.reset_stats()
        for complet in complets:
            pair.move(complet, "b")
        metrics[f"{label}_requests"] = pair.stats.by_kind[MessageKind.MOVE_COMPLET] // 2
        metrics[f"{label}_bytes"] = pair.stats.bytes

    for size in (1, 4, 16):
        moved(f"group{size}", size, 512)
        moved(f"naive{size}", size, 512, naive=True)
    for member_bytes in (256, 4_096, 65_536):
        moved(f"member{member_bytes}_group", 4, member_bytes)
    return metrics


def tracking_modes() -> dict:
    """Chain-following vs location-registry resolution, side by side; then
    C12: all messages to use a reference left stale at the birth Core after
    2, 4 or 8 hops, all messages of one move, and whether a call breaks
    once a Core on the migration path is down (1) or not (0)."""
    from repro.complet.relocators import Link
    from repro.complet.tokens import RefToken
    from repro.core.locator import LocationRegistry, Locator
    from repro.errors import CoreDownError

    modes = (("chain", Locator), ("registry", LocationRegistry))
    results = {}
    for label, locator in modes:
        cluster, counter = _hopped(["a", "b", "c", "d"], 3, locator=locator)
        _reset_counters(cluster)
        for _ in range(3):
            counter.increment()
        results[f"{label}_messages"] = cluster.stats.messages
        results[f"{label}_bytes"] = cluster.stats.bytes
    results["ops"] = 6

    for label, locator in modes:
        for hops in (2, 4, 8):
            names = [f"c{i}" for i in range(hops + 2)]
            cluster, counter = _hopped(names, hops, locator=locator)
            tracker = counter._fargo_tracker  # the birth Core's: stale
            token = RefToken(
                counter._fargo_target_id, tracker.anchor_ref, tracker.address, Link()
            )
            stale = cluster[names[-1]].references.materialize(token)
            cluster.reset_stats()
            stale.increment()
            results[f"hops{hops}_{label}_stale_messages"] = cluster.stats.messages
        cluster, counter = _hopped(["a", "b", "c"], 1, locator=locator)
        cluster.reset_stats()
        cluster.move_via_host(counter, "c")
        results[f"{label}_move_messages"] = cluster.stats.messages
        cluster, counter = _hopped(["a", "b", "c"], 2, locator=locator)
        cluster.transport.set_node_down("b")
        try:
            counter.increment()
            results[f"{label}_breaks_on_path_death"] = 0
        except CoreDownError:
            results[f"{label}_breaks_on_path_death"] = 1
    return results


def _crash_verdict(interval: float, fail_after: float) -> tuple[Cluster, float, float]:
    """Core ``a`` crashes at 2 s under a detector of this config.

    Returns the cluster, the virtual seconds run after the counters were
    reset, and the seconds from the crash to ``b``'s ``coreFailed`` (-1.0
    if no verdict came within ``fail_after`` plus two intervals).
    """
    from repro.cluster.failures import FailureInjector
    from repro.core.events import CORE_FAILED
    from repro.recovery import DetectorConfig

    cluster = Cluster(["a", "b", "c"])
    cluster.enable_recovery(
        detector=DetectorConfig(
            interval=interval, suspect_after=fail_after / 2, fail_after=fail_after
        ),
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
    cluster.advance(crash_at + fail_after + 2 * interval + 0.1)
    latency = round(verdicts[0] - crash_at, 9) if verdicts else -1.0
    return cluster, cluster.now - t0, latency


def recovery() -> dict:
    """Crash-to-verdict detection latency on the virtual clock: the
    (interval 0.5 s, fail_after 1.5 s) detector's run and counters, then
    the latency of three more configurations."""
    cluster, seconds, latency = _crash_verdict(0.5, 1.5)
    metrics = _collect(cluster, ops=1, virtual_seconds=seconds)
    metrics["detection_latency_vs"] = latency
    for interval, fail_after in ((0.2, 0.6), (0.5, 3.0), (1.0, 5.0)):
        name = f"interval{int(interval * 1000)}_fail{int(fail_after * 1000)}_detection_vs"
        metrics[name] = _crash_verdict(interval, fail_after)[2]
    return metrics


def runtime_ops() -> dict:
    """Instantiation, naming, and checkpoint/restore round trips, then
    snapshot bytes against the complet's blob size."""
    from repro.cluster.workload import DataSource, Echo, Echo_
    from repro.core.persistence import restore, snapshot

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
    metrics = _collect(cluster, ops=ops, virtual_seconds=cluster.now - t0)
    pair = Cluster(["a", "b"])
    for size in (1_000, 10_000, 100_000):
        source = DataSource(size, _core=pair["a"])
        metrics[f"blob{size}_snapshot_bytes"] = len(snapshot(pair["a"], source).stream)
    return metrics


def tracing() -> dict:
    """Remote calls with full span recording enabled, then the spans 50
    calls leave with tracing off and on."""
    from repro.cluster.workload import Counter

    def traced(enabled: bool):
        cluster = Cluster(["n1", "n2"], tracing=enabled)
        counter = Counter(0, _core=cluster["n1"])
        cluster.move(counter, "n2")
        return cluster, counter

    cluster, counter = traced(True)
    _reset_counters(cluster)
    t0 = cluster.now
    for _ in range(50):
        counter.increment()
    metrics = _collect(cluster, ops=50, virtual_seconds=cluster.now - t0)
    for label, enabled in (("off", False), ("on", True)):
        cluster, counter = traced(enabled)
        cluster.clear_spans()
        for _ in range(50):
            counter.increment()
        metrics[f"tracing_{label}_spans"] = len(cluster.spans())
    return metrics


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


def affinity_flip(
    bandwidth: float,
    *,
    rounds: int,
    calls: int,
    client_home: str = "site1",
    solver: str = "Script",
) -> tuple[Cluster, float, int]:
    """C7's workload: a client talks to server1 at site1, then to server2.

    Both servers are pinned.  Each second the client makes ``calls`` calls
    from where it is; after ``rounds`` seconds its server becomes server2
    for ``rounds`` more.  With the ``Script`` solver the §4.1 rules colocate
    the client with whichever server it calls at more than 2/s.  Counters
    are reset before the first round.  Returns the cluster, the virtual
    seconds of the two phases, and the seconds after the flip at which the
    client was first found at site2 (``rounds`` if it never was).
    """
    from repro.analysis.layout import Script, Static
    from repro.cluster.workload import Client, Server

    cluster = Cluster(["site1", "site2"], bandwidth=bandwidth, latency=0.02)
    server1 = Server(reply_size=4_096, _core=cluster["site1"], _at="site1")
    server2 = Server(reply_size=4_096, _core=cluster["site2"], _at="site2")
    client = Client(
        server1, request_size=2_048, _core=cluster[client_home], _at=client_home
    )
    policy = Script(
        "$c = %1 $s1 = %2 $s2 = %3\n"
        "on methodInvokeRate(2) from $c to $s1 do move $c to coreOf $s1 end\n"
        "on methodInvokeRate(2) from $c to $s2 do move $c to coreOf $s2 end",
        (client, server1, server2),
    )
    (policy if solver == "Script" else Static()).attach(cluster)
    _reset_counters(cluster)
    t0 = cluster.now
    reaction = rounds
    for phase in (1, 2):
        if phase == 2:
            host = cluster.core(cluster.locate(client))
            host.repository.get(client._fargo_target_id).server = cluster.stub_at(
                host.name, server2
            )
        for second in range(rounds):
            where = cluster.locate(client)
            if phase == 2 and where == "site2":
                reaction = min(reaction, second)
            cluster.stub_at(where, client).run(calls)
            cluster.advance(1.0)
    return cluster, cluster.now - t0, reaction


def adaptive_layout() -> dict:
    """Script-driven colocation under a two-phase affinity workload, then
    C7: total network seconds of the client pinned at site1, pinned at
    site2, and under the rules, at three link speeds, and the rules'
    reaction to the flip in seconds on the 250 kB/s link."""
    cluster, seconds, _ = affinity_flip(100_000.0, rounds=4, calls=4)
    metrics = _collect(cluster, ops=32, virtual_seconds=seconds)
    for bandwidth in (1_000_000.0, 250_000.0, 50_000.0):
        link = f"link{int(bandwidth) // 1000}k"
        for label, home, solver in (
            ("static_site1", "site1", "Static"),
            ("static_site2", "site2", "Static"),
            ("dynamic", "site1", "Script"),
        ):
            run, _, reaction = affinity_flip(
                bandwidth, rounds=10, calls=6, client_home=home, solver=solver
            )
            metrics[f"{link}_{label}_net_seconds"] = round(run.stats.seconds, 9)
        if link == "link250k":
            metrics["policy_reaction_vs"] = reaction
    return metrics


def _pipeline(homes: str):
    """Three 256-byte stages at ``homes`` (one Core name each) on 250 kB/s
    links; the cluster and the stages, head first."""
    from repro.cluster.workload import Stage

    cluster = Cluster(["a", "b", "c"], bandwidth=250_000.0, latency=0.02)
    last = Stage(None, cost_bytes=256, _core=cluster[homes[2]], _at=homes[2])
    middle = Stage(last, cost_bytes=256, _core=cluster[homes[1]], _at=homes[1])
    first = Stage(middle, cost_bytes=256, _core=cluster[homes[0]], _at=homes[0])
    return cluster, (first, middle, last)


def pipeline() -> dict:
    """Items through a three-stage pipeline spread over three Cores, then
    one item's seconds per placement, and after pull re-colocation: both
    internal references retyped to pull, the head moved once."""
    from repro.analysis import MovePlan, PlannedMove
    from repro.analysis.layout import LoadExisting
    from repro.complet.relocators import Pull
    from repro.core.core import Core

    item = b"x" * 512

    def item_seconds(cluster: Cluster, head) -> float:
        start = cluster.now
        head.process(item)
        return round(cluster.now - start, 9)

    cluster, (first, _, _) = _pipeline("abc")
    driver = cluster.stub_at("a", first)
    _reset_counters(cluster)
    t0 = cluster.now
    latencies = [item_seconds(cluster, driver) for _ in range(10)]
    metrics = _collect(
        cluster, ops=10, virtual_seconds=cluster.now - t0, latencies=latencies
    )

    for label, homes in (("colocated", "aaa"), ("spread", "abc"), ("head_remote", "acc")):
        cluster, stages = _pipeline(homes)
        metrics[f"{label}_item_seconds"] = item_seconds(
            cluster, cluster.stub_at(homes[0], stages[0])
        )
    cluster, stages = _pipeline("abc")
    for holder in stages[:2]:
        host = cluster.core(cluster.locate(holder))
        successor = host.repository.get(holder._fargo_target_id).successor
        Core.get_meta_ref(successor).set_relocator(Pull())
    head = PlannedMove(str(stages[0]._fargo_target_id), "c", source="a")
    LoadExisting(MovePlan((head,), name="pulled")).attach(cluster)
    metrics["pulled_stages_left_behind"] = sum(
        cluster.locate(stage) != "c" for stage in stages
    )
    metrics["pulled_item_seconds"] = item_seconds(cluster, cluster.stub_at("c", stages[0]))
    return metrics


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
    # The request frame's overhead by payload size: a constant header.
    for size in (0, 64, 512, 8_192):
        envelope = Envelope(src="b", dst="a", kind=MessageKind.INVOKE, payload=b"x" * size)
        metrics[f"payload{size}_frame_overhead_bytes"] = (
            len(framing.encode_request(envelope, 1)) - size
        )
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


def _farm(
    bandwidth: float,
    *,
    count: int,
    payload: int,
    workers: tuple[str, ...] = ("edge1", "edge2"),
    solver: str = "Static",
) -> tuple[Cluster, float, float]:
    """``count`` tasks of ``payload`` bytes through a task farm at ``hub``
    placed by ``solver``, counters reset before the run; the cluster, its
    virtual seconds and the makespan."""
    from repro.analysis.layout import Static, Threshold
    from repro.apps.taskfarm import Farm

    cluster = Cluster(["hub", *workers], bandwidth=bandwidth, latency=0.01)
    farm = Farm(cluster, "hub", list(workers), batch=4)
    policy = Threshold(farm.workers, farm.queue, rate=5_000.0, bandwidth=500_000.0)
    (policy if solver == "Threshold" else Static()).attach(cluster)
    farm.submit(payload_size=payload, count=count)
    _reset_counters(cluster)
    t0 = cluster.now
    makespan = farm.run_until_drained()
    return cluster, cluster.now - t0, makespan


def taskfarm() -> dict:
    """The task farm application, static placement; then network seconds
    and makespan of 40 tasks static against adaptive at three link speeds,
    and makespan by worker count on fast links."""
    cluster, seconds, makespan = _farm(500_000.0, count=12, payload=4_096)
    metrics = _collect(cluster, ops=12, virtual_seconds=seconds)
    metrics["makespan_vs"] = round(makespan, 9)
    for bandwidth in (1_000_000.0, 100_000.0, 30_000.0):
        for label, solver in (("static", "Static"), ("adaptive", "Threshold")):
            cluster, _, makespan = _farm(bandwidth, count=40, payload=8_192, solver=solver)
            link = f"link{int(bandwidth) // 1000}k_{label}"
            metrics[f"{link}_net_seconds"] = round(cluster.stats.seconds, 9)
            metrics[f"{link}_makespan_vs"] = round(makespan, 9)
    for workers in (1, 2, 4):
        names = tuple(f"e{i}" for i in range(workers))
        _, _, makespan = _farm(1_000_000.0, count=40, payload=1_024, workers=names)
        metrics[f"workers{workers}_makespan_vs"] = round(makespan, 9)
    return metrics


def rebirth_counts(restarts: int, identity_preserved: bool, post_value: int) -> dict:
    """The supervision area's counts, which must hold exactly.

    One restart, the complet back under its original id, and a read
    through the pre-kill stub: a run that misses one fails here, since a
    zero would read as an improvement to the lower-is-better check.
    """
    for holds, failure in (
        (restarts == 1, f"{restarts} restarts of the killed child, not 1"),
        (identity_preserved, "the restored complet lost its identity"),
        (post_value >= 0, f"the read through the pre-kill stub gave {post_value}"),
    ):
        if not holds:
            raise AssertionError(failure)  # not an assert: it must fail under -O too
    return {"supervisor_restarts": 1, "identity_preserved": 1, "post_rebirth_reads": 1}


def supervision() -> dict:
    """SIGKILL-to-healed restart of a real child process (MTTR).

    The only real-clock area: it spawns OS processes, kills one, and
    times the supervisor's detect → respawn → restore → repair cycle.
    Timing metrics carry the ``_wall_seconds`` suffix (recorded for
    context, never compared across machines); the counts — restarts,
    restored identities, completed post-rebirth invocations — are
    deterministic and must hold exactly (:func:`rebirth_counts`).
    ``interpreter_starts`` is deterministic too, and regression-checked:
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
                hosted = CoreAdmin(procs.driver, "w1").complets()
                metrics.update(
                    rebirth_counts(child["restarts"], original_id in hosted, post_value)
                )
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
