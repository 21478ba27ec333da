"""Integration: the runtime at wide-area scale.

§1's setting is "a large number of interconnected nodes"; this module
sanity-checks the runtime well beyond the sizes other tests use: dozens
of Cores, hundreds of complets, random migration storms, cluster-wide
monitoring — all deterministic under the virtual clock (seeded RNG).
"""

import random

from repro.cluster.cluster import Cluster
from repro.cluster.topology import configure_wan
from repro.cluster.workload import Counter, Echo
from repro.core.locator import LocationRegistry
from repro.script.interpreter import ScriptEngine


def test_many_cores_many_complets():
    names = [f"n{i:02d}" for i in range(24)]
    cluster = Cluster(names)
    stubs = []
    rng = random.Random(42)
    for index in range(120):
        home = rng.choice(names)
        stubs.append(Counter(index, _core=cluster[home], _at=home))
    # Migration storm: 300 random host-driven moves.
    for _ in range(300):
        stub = rng.choice(stubs)
        cluster.move_via_host(stub, rng.choice(names))
    # Every complet is still reachable and stateful.
    for index, stub in enumerate(stubs):
        assert stub.read() == index
    # Exactly 120 complets across all Cores.
    total = sum(len(core.repository) for core in cluster)
    assert total == 120
    # GC converges and nothing breaks afterwards.
    cluster.collect_all_trackers()
    for stub in stubs[:10]:
        stub.increment()


def test_wan_sites_with_script_policy():
    sites = {f"site{s}": [f"s{s}c{c}" for c in range(3)] for s in range(4)}
    names = [core for cores in sites.values() for core in cores]
    cluster = Cluster(names)
    configure_wan(cluster, sites, wan_bandwidth=100_000.0)
    engine = ScriptEngine(cluster, home=names[0])
    engine.run(
        "on shutdown firedby $core do move completsIn $core to s0c0 end"
    )
    rng = random.Random(7)
    stubs = [
        Echo(f"e{i}", _core=cluster[rng.choice(names)], _at=rng.choice(names))
        for i in range(40)
    ]
    # Shut down an entire site; everything lands at the safe Core.
    for core_name in sites["site3"]:
        cluster.shutdown_core(core_name)
    hosted = sum(len(core.repository) for core in cluster.running_cores())
    assert hosted == 40
    for stub in stubs:
        assert cluster.stub_at("s0c0", stub).ping().startswith("e")


def test_cluster_wide_monitoring_scales():
    names = [f"m{i}" for i in range(12)]
    cluster = Cluster(names)
    for name in names:
        cluster[name].monitor.watch("completLoad", ">", 5.0, interval=1.0)
        Echo("x", _core=cluster[name], _at=name)
    cluster.advance(30.0)
    for name in names:
        assert cluster[name].profiler.evaluations["completLoad"] == 30
    # 12 cores × 30 samples; scheduler drained cleanly.
    assert cluster.scheduler.pending == 12  # one live sampler per core


def test_registry_mode_at_scale():
    names = [f"r{i}" for i in range(10)]
    cluster = Cluster(names, locator=LocationRegistry)
    rng = random.Random(3)
    stubs = [Counter(0, _core=cluster[names[0]]) for _ in range(30)]
    for _ in range(150):
        cluster.move_via_host(rng.choice(stubs), rng.choice(names))
    # Homes know where everything is; all references resolve in O(1).
    home = cluster[names[0]]
    for stub in stubs:
        location = home.locator.resolve(stub._fargo_target_id)
        if location is not None:
            assert cluster.core(location.core).repository.hosts(
                stub._fargo_target_id
            )
        assert stub.increment() >= 1
