"""Experiment C8: the §4.3 example script runs verbatim.

The paper gives one complete script: a "reliability" rule that evacuates
every complet from a Core that announces shutdown, and a "performance"
rule that colocates two complets once the invocation rate between them
exceeds 3 calls/second.  This module runs that script, character for
character as printed (modulo the paper's line numbers), against a live
cluster and asserts both rules do what §4.3 says they do.
"""

import pytest

from repro.script.interpreter import ScriptEngine
from repro.script.parser import parse
from repro.cluster.workload import Client, Echo, Server

#: The §4.3 script, verbatim.
PAPER_SCRIPT = """\
$coreList = %1
$targetCore = %2
$comps = %3
on shutdown firedby $core
 listenAt $coreList do
  move completsIn $core to $targetCore
end
on methodInvokeRate(3)
  from $comps[0] to $comps[1] do
 move $comps[0] to coreOf $comps[1]
end
"""


@pytest.fixture
def deployment():
    """Three worker Cores plus a safe Core, with the script active."""
    from repro.cluster.cluster import Cluster

    cluster = Cluster(["c1", "c2", "safe"])
    server = Server(_core=cluster["c2"], _at="c2")
    client = Client(server, _core=cluster["c1"])
    engine = ScriptEngine(cluster, home="safe")
    engine.run(PAPER_SCRIPT, args=(["c1", "c2"], "safe", [client, server]))
    return cluster, engine, client, server


class TestVerbatimText:
    def test_parses(self):
        script = parse(PAPER_SCRIPT)
        assert len(script.rules) == 2
        assert len(script.assignments) == 3

    def test_rule_events(self):
        script = parse(PAPER_SCRIPT)
        assert script.rules[0].event == "shutdown"
        assert script.rules[1].event == "methodInvokeRate"

    def test_the_analyzer_finds_nothing(self):
        from repro.analysis import check_script

        assert check_script(PAPER_SCRIPT) == []


class TestReliabilityRule:
    def test_shutdown_evacuates_all_complets(self, deployment):
        cluster, engine, client, server = deployment
        extra = Echo("bystander", _core=cluster["c1"], _at="c1")
        assert len(cluster.complets_at("c1")) == 2
        cluster.shutdown_core("c1")
        assert cluster.complets_at("c1") == []
        assert len(cluster.complets_at("safe")) == 2

    def test_evacuated_complets_still_work(self, deployment):
        cluster, engine, client, server = deployment
        cluster.shutdown_core("c1")
        rescued = cluster.stub_at("safe", client)
        assert rescued.run(1) == 1  # client still reaches the server

    def test_rule_only_listens_at_listed_cores(self, deployment):
        cluster, engine, client, server = deployment
        cluster.shutdown_core("safe")  # not in $coreList
        assert engine.active_rules[0].fired_count == 0


class TestPerformanceRule:
    def test_high_rate_colocates(self, deployment):
        """invocationRate > 3/s → the client moves to the server's Core."""
        cluster, engine, client, server = deployment
        assert cluster.locate(client) == "c1"
        for _ in range(4):
            client.run(15)
            cluster.advance(1.0)
        assert cluster.locate(client) == "c2"
        assert cluster.locate(server) == "c2"

    def test_low_rate_stays_apart(self, deployment):
        cluster, engine, client, server = deployment
        for _ in range(5):
            client.run(1)
            cluster.advance(1.0)
        assert cluster.locate(client) == "c1"

    def test_colocated_pair_traffic_becomes_local(self, deployment):
        cluster, engine, client, server = deployment
        for _ in range(4):
            client.run(15)
            cluster.advance(1.0)
        assert cluster.locate(client) == "c2"
        from repro.net.messages import MessageKind

        invokes = cluster.stats.by_kind[MessageKind.INVOKE]
        client_at_c2 = cluster.stub_at("c2", client)
        client_at_c2.run(10)
        # The ten server calls happened inside c2: no INVOKE traffic.
        assert cluster.stats.by_kind[MessageKind.INVOKE] == invokes


class TestBothRulesTogether:
    def test_colocate_then_evacuate(self, deployment):
        cluster, engine, client, server = deployment
        for _ in range(4):
            client.run(15)
            cluster.advance(1.0)
        assert cluster.locate(client) == "c2"
        cluster.shutdown_core("c2")
        assert sorted(
            cid.split(":")[-1] for cid in cluster.complets_at("safe")
        ) == ["Client", "Server"]
        rescued = cluster.stub_at("safe", client)
        assert rescued.run(1) == 61  # 4*15 earlier + this one
