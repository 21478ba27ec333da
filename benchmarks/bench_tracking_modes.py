"""Ablation — tracker chains vs the location registry (§7 future work).

The paper keeps chains and names the location-independent naming scheme
as future work.  Both are implemented here, so the trade-off the authors
anticipated can be measured:

- resolution cost after k hops: chain walk (O(k) messages, then
  shortened) vs home query (O(1) messages, always);
- maintenance cost: the registry pays one extra LOCATION_UPDATE per
  move;
- resilience: with the registry, references survive the death of
  intermediate Cores on the migration path.
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.workload import Counter
from repro.core.locator import LocationRegistry, Locator
from repro.net.messages import MessageKind
from repro.sim.clock import forbid_real_clocks
from benchmarks.conftest import print_table

CORE_NAMES = [f"c{i}" for i in range(10)]


def _cluster(names, registry: bool) -> Cluster:
    return Cluster(names, locator=LocationRegistry if registry else Locator)


def _wandered(hops: int, *, registry: bool):
    cluster = _cluster(CORE_NAMES[: hops + 2], registry)
    counter = Counter(0, _core=cluster["c0"])
    for i in range(1, hops + 1):
        cluster.move_via_host(counter, f"c{i}")
    # The observer holds a reference wired to the last Core (not the
    # home, not on the path), pointing at the *first* hop — stale.
    observer = cluster.core(CORE_NAMES[hops + 1])
    from repro.complet.relocators import Link
    from repro.complet.tokens import RefToken

    token = RefToken(
        counter._fargo_target_id,
        counter._fargo_tracker.anchor_ref,
        counter._fargo_tracker.address,  # points at c0's tracker: stale
        Link(),
    )
    stale_ref = observer.references.materialize(token)
    return cluster, counter, stale_ref


@pytest.mark.parametrize("registry", [False, True], ids=["chains", "registry"])
def test_stale_resolution_wall_time(benchmark, registry):
    """Wall-clock cost of the first invocation through a stale reference."""

    def setup():
        cluster, _counter, stale_ref = _wandered(6, registry=registry)
        return (stale_ref,), {}

    benchmark.pedantic(lambda ref: ref.increment(), setup=setup, rounds=10)


def test_resolution_message_series(benchmark):
    """Messages to resolve a stale reference after k hops, both modes."""
    rows = []
    with forbid_real_clocks():
        _measure_resolution_series(rows)
    print_table(
        "tracking ablation: messages to use a stale reference",
        ["hops", "chain msgs", "registry msgs"],
        rows,
    )
    benchmark(lambda: None)


def _measure_resolution_series(rows):
    for hops in (2, 4, 8):
        chain_cluster, _c, chain_ref = _wandered(hops, registry=False)
        chain_cluster.reset_stats()
        chain_ref.increment()
        # With forwarder-side collapse, the stale-chain walk happens via
        # cheap TRACKER_LOOKUP messages; the payload itself goes direct.
        chain_msgs = (
            chain_cluster.stats.by_kind[MessageKind.INVOKE]
            + chain_cluster.stats.by_kind[MessageKind.TRACKER_LOOKUP]
        )

        reg_cluster, _c, reg_ref = _wandered(hops, registry=True)
        reg_cluster.reset_stats()
        # Resolve via the registry first (locate), then invoke directly.
        reg_cluster.core(reg_ref._fargo_core.name)  # observer core
        reg_ref._fargo_core.references.locate(reg_ref._fargo_tracker)
        reg_ref.increment()
        reg_queries = reg_cluster.stats.by_kind[MessageKind.LOCATION_QUERY]
        reg_invokes = reg_cluster.stats.by_kind[MessageKind.INVOKE]
        rows.append((hops, chain_msgs, reg_queries + reg_invokes))
        assert reg_queries + reg_invokes <= 4  # query + direct invoke
        assert chain_msgs >= 2 * hops  # walks the whole stale chain


def test_maintenance_cost_per_move(benchmark):
    """The registry's price: one extra one-way message per arrival."""
    rows = []
    with forbid_real_clocks():
        _measure_maintenance(rows)
    print_table(
        "tracking ablation: messages per move",
        ["mode", "total msgs", "location updates"],
        rows,
    )
    benchmark(lambda: None)


def _measure_maintenance(rows):
    for registry in (False, True):
        cluster = _cluster(["a", "b", "c"], registry)
        counter = Counter(0, _core=cluster["a"])
        cluster.move(counter, "b")
        cluster.reset_stats()
        cluster.move_via_host(counter, "c")
        updates = cluster.stats.by_kind[MessageKind.LOCATION_UPDATE]
        total = cluster.stats.messages
        rows.append(("registry" if registry else "chains", total, updates))
    assert rows[1][2] == rows[0][2] + 1


def test_resilience_to_path_death(benchmark):
    """References survive a dead intermediate Core only with the registry."""
    from repro.errors import CoreDownError

    outcomes = []
    with forbid_real_clocks():
        for registry in (False, True):
            cluster = _cluster(["a", "b", "c"], registry)
            counter = Counter(0, _core=cluster["a"])
            cluster.move_via_host(counter, "b")
            cluster.move_via_host(counter, "c")
            cluster.transport.set_node_down("b")
            try:
                counter.increment()
                outcomes.append(("registry" if registry else "chains", "survives"))
            except CoreDownError:
                outcomes.append(("registry" if registry else "chains", "breaks"))
    print_table(
        "tracking ablation: dead Core on the migration path",
        ["mode", "reference"],
        outcomes,
    )
    assert outcomes == [("chains", "breaks"), ("registry", "survives")]
    benchmark(lambda: None)
