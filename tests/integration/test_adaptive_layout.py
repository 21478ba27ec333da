"""Integration: dynamic layout beats static layout (the paper's thesis).

The introduction argues that "static component layout might lead to low
resource utilization [and] high network-latency ... it is impossible to
set a priori the structure of the application in a way that best
leverages the dynamically changing computing and networking resources."
:func:`repro.bench.scenarios.affinity_flip` is a workload whose affinity
shifts halfway through; here *no* static placement matches the adaptive
policy on total simulated network time.  (The ``adaptive_layout`` bench
area sweeps it over three link speeds.)
"""

import pytest

from repro.bench.scenarios import affinity_flip
from repro.cluster.cluster import Cluster
from repro.cluster.workload import Client, Server
from repro.script.interpreter import ScriptEngine


def _network_seconds(*, solver: str, client_home: str) -> float:
    cluster, _, _ = affinity_flip(
        200_000.0, rounds=6, calls=8, client_home=client_home, solver=solver
    )
    return cluster.stats.seconds


class TestAdaptiveBeatsStatic:
    @pytest.mark.parametrize("static_home", ["site1", "site2"])
    def test_adaptive_beats_each_static_placement(self, static_home):
        static_cost = _network_seconds(solver="Static", client_home=static_home)
        adaptive_cost = _network_seconds(solver="Script", client_home="site1")
        assert adaptive_cost < static_cost

    def test_adaptive_follows_the_phase_change(self):
        cluster = Cluster(["site1", "site2"], bandwidth=200_000.0)
        server1 = Server(_core=cluster["site1"], _at="site1")
        server2 = Server(_core=cluster["site2"], _at="site2")
        client = Client(server1, _core=cluster["site2"], _at="site2")
        engine = ScriptEngine(cluster, home="site1")
        engine.run(
            "$c = %1\n$s1 = %2\n"
            "on methodInvokeRate(2) from $c to $s1 do move $c to coreOf $s1 end",
            args=(client, server1),
        )
        for _ in range(5):
            client.run(8)
            cluster.advance(1.0)
        assert cluster.locate(client) == "site1"
