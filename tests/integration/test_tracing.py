"""Integration: distributed traces stitch one logical operation together.

The tentpole property of the observability layer: a single logical
operation — a stub invocation crossing a tracker chain, a threshold
watch firing a scripted relocation, a move riding through an outage on
retries — yields ONE connected span tree, no matter how many Cores the
work visits.  These tests drive real multi-Core scenarios and assert on
the assembled trees and the exported documents.
"""

import json

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.failures import FailureInjector
from repro.cluster.workload import Client, Counter, Echo, Server
from repro.core.events import MOVE_COMPLETED
from repro.errors import CoreUnreachableError
from repro.net.retry import RetryPolicy
from repro.script.interpreter import ScriptEngine


def span_names(trace):
    return [span.name for span in trace.spans]


def the_trace_containing(cluster, prefix):
    """The single trace holding a span whose name starts with ``prefix``."""
    matching = [
        trace
        for trace in cluster.traces().values()
        if any(name.startswith(prefix) for name in span_names(trace))
    ]
    assert len(matching) == 1, f"expected one trace with {prefix!r}, got {len(matching)}"
    return matching[0]


class TestChainedInvocationTrace:
    def test_two_hop_chain_is_one_connected_trace(self):
        cluster = Cluster(["alpha", "beta", "gamma"], tracing=True)
        echo = Echo("x", _core=cluster["alpha"])
        cluster.move(echo, "beta")
        # Moved by its host, so the alpha stub still points at beta (a move
        # alpha requests re-points it at the new host on the answer).
        cluster.move_via_host(echo, "gamma")
        cluster.clear_spans()
        assert echo.echo("hi") == "hi"
        trace = the_trace_containing(cluster, "invoke:echo")
        assert trace.is_connected()
        assert trace.cores() == ["alpha", "beta", "gamma"]
        names = span_names(trace)
        assert names.count("rpc:invoke") == 2  # alpha->beta, beta->gamma
        assert names.count("recv:invoke") == 2
        assert "exec:echo" in names
        # The exec span runs where the complet actually lives.
        exec_span = next(s for s in trace.spans if s.name == "exec:echo")
        assert exec_span.core == "gamma"
        # Causal depth: the chain nests, it does not fan out.
        depths = {span.span_id: depth for depth, span in trace.walk()}
        assert depths[exec_span.span_id] >= 3

    def test_colocated_invocation_stays_on_one_core(self, make_cluster):
        cluster = make_cluster(["alpha", "beta"], tracing=True)
        echo = Echo("x", _core=cluster["alpha"])
        cluster.clear_spans()
        echo.ping()
        trace = the_trace_containing(cluster, "invoke:ping")
        assert trace.is_connected()
        assert trace.cores() == ["alpha"]

    def test_tracing_off_records_nothing(self, make_cluster):
        cluster = make_cluster(["alpha", "beta"])  # default: off
        echo = Echo("x", _core=cluster["alpha"])
        cluster.move(echo, "beta")
        echo.ping()
        assert cluster.spans() == []
        assert cluster.traces() == {}


class TestMoveTrace:
    def test_move_through_stale_chain_is_one_trace(self):
        cluster = Cluster(["alpha", "beta", "gamma"], tracing=True)
        echo = Echo("x", _core=cluster["alpha"])
        cluster.move(echo, "beta")
        cluster.move_via_host(echo, "gamma")  # alpha's tracker still says beta
        cluster.clear_spans()
        cluster.move(echo, "alpha")  # resolved through the stale chain
        trace = the_trace_containing(cluster, "move")
        assert trace.is_connected()
        assert trace.cores() == ["alpha", "beta", "gamma"]
        names = span_names(trace)
        assert "rpc:move_request" in names
        assert "move:twophase" in names
        assert "event:moveCompleted" in names

    def test_move_completed_event_fires(self, cluster):
        seen = []
        cluster["beta"].events.subscribe(MOVE_COMPLETED, seen.append)
        echo = Echo("x", _core=cluster["alpha"])
        cluster.move(echo, "beta")
        cluster.move(echo, "alpha")
        assert len(seen) == 1
        assert seen[0].data["destination"] == "alpha"


class TestWatchScriptMoveTrace:
    """The headline scenario: watch fire -> script rule -> group move."""

    @pytest.fixture
    def fired_rig(self):
        cluster = Cluster(["alpha", "beta", "gamma"], tracing=True)
        engine = ScriptEngine(cluster, home="gamma")
        server = Server(_core=cluster["beta"], _at="beta")
        client = Client(server, _core=cluster["alpha"])
        engine._globals.update({"c": client, "s": server})
        engine.run(
            "on methodInvokeRate(3) from $c to $s do move $c to coreOf $s end"
        )
        cluster.clear_spans()
        for _ in range(4):
            client.run(15)
            cluster.advance(1.0)
        assert cluster.locate(client) == "beta"
        return cluster

    def test_whole_causal_chain_is_one_connected_trace(self, fired_rig):
        cluster = fired_rig
        # Of the traces rooted at a watch fire, (at least) one carries
        # the move; it must be a single connected tree.
        move_traces = [
            trace
            for trace in cluster.traces().values()
            if any(n.startswith("watch:") for n in span_names(trace))
            and "move:twophase" in span_names(trace)
        ]
        assert len(move_traces) == 1
        trace = move_traces[0]
        assert trace.is_connected()
        assert trace.cores() == ["alpha", "beta", "gamma"]
        names = span_names(trace)
        # Every stage of the §4 pipeline shows up under one root:
        assert any(n.startswith("watch:") for n in names)    # threshold fire
        assert any(n.startswith("script:") for n in names)   # rule execution
        assert "rpc:move_complet" in names                   # the wire move
        assert "event:moveCompleted" in names                # completion event
        root = trace.roots[0]
        assert root.category == "watch"
        assert root.attributes["threshold"] == 3.0

    def test_watch_fire_starts_a_fresh_trace(self, fired_rig):
        cluster = fired_rig
        for trace in cluster.traces().values():
            for _, span in trace.walk():
                if span.category == "watch":
                    assert span.parent_id is None
                    assert span.trace_id == span.span_id


class TestRetryAndAbortTraces:
    def test_retried_move_span_carries_attempt_number(self):
        cluster = Cluster(
            ["a", "b"],
            tracing=True,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5),
        )
        inject = FailureInjector(cluster)
        counter = Counter(0, _core=cluster["a"])
        cluster.set_link("a", "b", up=False)
        inject.restore_link_at(0.4, "a", "b")
        cluster.clear_spans()
        cluster.move(counter, "b")
        assert cluster.locate(counter) == "b"
        trace = the_trace_containing(cluster, "move")
        assert trace.is_connected()
        rpc_span = next(s for s in trace.spans if s.name == "rpc:move_complet")
        assert rpc_span.attributes["attempt"] == 1
        assert "CoreUnreachableError" in rpc_span.attributes["retry_error"]
        counters = cluster.metrics_snapshot()["cluster"]["counters"]
        assert counters["rpc.retries{kind=move_complet}"] == 1.0

    def test_aborted_move_trace_records_the_error(self):
        cluster = Cluster(
            ["a", "b"],
            tracing=True,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.25),
        )
        counter = Counter(7, _core=cluster["a"])
        cluster.set_link("a", "b", up=False)  # and it stays down
        cluster.clear_spans()
        with pytest.raises(CoreUnreachableError):
            cluster.move(counter, "b")
        trace = the_trace_containing(cluster, "move")
        errored = [s for s in trace.spans if s.error]
        assert errored, "the failed move must mark its spans"
        assert any("CoreUnreachableError" in s.error for s in errored)
        counters = cluster.metrics_snapshot()["cluster"]["counters"]
        assert counters["movement.moves_aborted"] == 1.0


class TestExports:
    def test_chrome_export_round_trips(self):
        cluster = Cluster(["alpha", "beta"], tracing=True)
        echo = Echo("x", _core=cluster["alpha"])
        cluster.move(echo, "beta")
        echo.ping()
        document = json.loads(cluster.chrome_trace_json(indent=2))
        events = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert len(events) == len(cluster.spans())
        meta = [e for e in document["traceEvents"] if e["ph"] == "M"]
        assert {e["args"]["name"] for e in meta} == {"Core alpha", "Core beta"}
        # Every event of one trace shares the trace id in args.
        trace_ids = {e["args"]["trace_id"] for e in events}
        assert trace_ids == {t for t in cluster.traces()}

    def test_cluster_metrics_aggregate_across_cores(self):
        cluster = Cluster(["alpha", "beta"], tracing=True)
        echo = Echo("x", _core=cluster["alpha"])
        cluster.move(echo, "beta")
        echo.ping()
        snapshot = cluster.metrics_snapshot()
        assert set(snapshot) == {"cores", "cluster"}
        merged = snapshot["cluster"]["counters"]
        assert merged["invocation.executed"] == 1.0
        assert merged["movement.moves_sent"] == 1.0
        assert merged["movement.moves_received"] == 1.0
        per_core = {s["core"] for s in snapshot["cores"]}
        assert per_core == {"alpha", "beta"}
