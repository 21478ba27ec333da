"""Tests for the cluster harness."""

import inspect
import os
import signal

import pytest

from repro.errors import (
    ConfigurationError,
    CoreError,
    CoreNotFoundError,
    DuplicateCoreError,
    FarGoError,
)
from repro.cluster import CoreProcesses
from repro.cluster.cluster import Cluster
from repro.cluster.workload import Counter, Echo
from repro.core.locator import LocationRegistry
from repro.net import SimTransport
from repro.net.retry import RetryPolicy
from repro.sim.clock import VirtualClock
from repro.sim.scheduler import Scheduler
from tests.anchors import Holder


class TestConstruction:
    def test_named_cores_created(self):
        cluster = Cluster(["a", "b", "c"])
        assert cluster.core_names() == ["a", "b", "c"]

    def test_add_core_later(self):
        cluster = Cluster(["a"])
        cluster.add_core("b")
        assert "b" in cluster.core_names()

    def test_duplicate_core_rejected(self):
        cluster = Cluster(["a"])
        with pytest.raises(DuplicateCoreError):
            cluster.add_core("a")

    def test_unknown_core_lookup(self):
        with pytest.raises(CoreNotFoundError):
            Cluster(["a"]).core("z")

    def test_getitem_and_iter(self):
        cluster = Cluster(["a", "b"])
        assert cluster["a"].name == "a"
        assert sorted(c.name for c in cluster) == ["a", "b"]

    def test_custom_link_defaults(self):
        cluster = Cluster(["a", "b"], bandwidth=500.0, latency=0.2)
        assert cluster.transport.link("a", "b").bandwidth == 500.0
        assert cluster.transport.link("a", "b").latency == 0.2


    def test_unknown_option_is_a_type_error_at_construction(self):
        with pytest.raises(TypeError, match="bogus"):
            Cluster(["a"], bogus=1)

    def test_six_parameters_and_the_cores_own_options(self):
        parameters = inspect.signature(Cluster.__init__).parameters.values()
        assert [p.name for p in parameters if p.kind is p.KEYWORD_ONLY] == [
            "bandwidth", "latency", "clock", "transport", "store", "sanitize",
        ]
        cluster = Cluster(["a"], rpc_timeout=2.5, locator=LocationRegistry)
        assert isinstance(cluster["a"].locator, LocationRegistry)
        assert cluster["a"].peer.endpoint.default_timeout == 2.5

    def test_seat_is_the_first_core_by_name(self):
        assert Cluster(["b", "a", "c"]).seat.name == "a"

    @pytest.mark.parametrize("value", [True, False, "disk", 0])
    def test_store_takes_a_backend_name_or_a_store(self, value):
        with pytest.raises(ConfigurationError, match="store must be"):
            Cluster(["a"], store=value)

    @pytest.mark.parametrize(
        "transport", ["hubs", SimTransport(Scheduler(VirtualClock()))], ids=["name", "instance"]
    )
    def test_transport_takes_a_shape_name_or_a_core_processes(self, transport):
        with pytest.raises(ConfigurationError, match="or a CoreProcesses"):
            Cluster(["a"], transport=transport)


class TestTimeDriving:
    def test_advance_moves_clock(self):
        cluster = Cluster(["a"])
        cluster.advance(3.5)
        assert cluster.now == 3.5

    def test_advance_fires_profilers(self):
        cluster = Cluster(["a"])
        cluster["a"].profile("completLoad", interval=1.0)
        cluster.advance(5.0)
        assert cluster["a"].profiler.evaluations["completLoad"] == 5


class TestApplicationHelpers:
    def test_instantiate(self, cluster):
        stub = cluster.instantiate(Echo.__mro__[0]._fargo_anchor_cls, "alpha", "tag")
        assert stub.ping() == "tag"

    def test_move_and_locate(self, cluster):
        counter = Counter(0, _core=cluster["alpha"])
        cluster.move(counter, "beta")
        assert cluster.locate(counter) == "beta"

    def test_complets_at(self, cluster):
        Echo("x", _core=cluster["alpha"])
        assert len(cluster.complets_at("alpha")) == 1
        assert cluster.complets_at("beta") == []

    def test_stub_at_local_host(self, cluster):
        counter = Counter(5, _core=cluster["alpha"])
        other = cluster.stub_at("alpha", counter)
        assert other.read() == 5

    def test_stub_at_remote_host(self, cluster3):
        counter = Counter(5, _core=cluster3["alpha"])
        cluster3.move(counter, "gamma")
        ref = cluster3.stub_at("beta", counter)
        assert ref.increment() == 6

    def test_stub_at_missing_complet(self, cluster):
        counter = Counter(0, _core=cluster["alpha"])
        cluster["alpha"].repository.destroy(counter._fargo_target_id)
        with pytest.raises(CoreNotFoundError):
            cluster.stub_at("beta", counter)


class TestAccounting:
    def test_stats_accumulate(self, cluster):
        counter = Counter(0, _core=cluster["alpha"])
        cluster.move(counter, "beta")
        assert cluster.stats.messages > 0

    def test_reset_stats(self, cluster):
        counter = Counter(0, _core=cluster["alpha"])
        cluster.move(counter, "beta")
        cluster.reset_stats()
        assert cluster.stats.messages == 0

    def test_shutdown_all(self, cluster3):
        cluster3.shutdown_all()
        assert cluster3.running_cores() == []

    def test_repr(self, cluster):
        assert "alpha" in repr(cluster)


class TestObservationsOutliveACore:
    def test_spans_of_a_core_that_has_shut_down(self, make_cluster):
        cluster = make_cluster(["alpha", "beta"], tracing=True)
        Echo("x", _core=cluster["alpha"], _at="beta").ping()
        cluster.shutdown_core("beta")
        assert {span.core for span in cluster.spans()} == {"alpha", "beta"}
        assert len(cluster.metrics_snapshot()["cores"]) == 2
        assert cluster.running_names() == ["alpha"]


@pytest.mark.tcp
class TestProcesses:
    """``transport="procs"``: the same handle over Cores in OS processes of their own."""

    @pytest.fixture
    def procs_cluster(self):
        cluster = Cluster(["alpha", "beta"], transport="procs", tracing=True)
        yield cluster
        cluster.close()

    def test_names_and_seat(self, procs_cluster):
        assert procs_cluster.core_names() == ["alpha", "beta", "driver"]
        assert procs_cluster.seat is procs_cluster.processes.driver
        assert procs_cluster["driver"] is procs_cluster.seat
        assert sorted(procs_cluster.running_names()) == ["alpha", "beta", "driver"]

    def test_what_needs_a_core_of_this_process_says_so(self, procs_cluster):
        with pytest.raises(CoreNotFoundError, match="child process"):
            procs_cluster["alpha"]
        with pytest.raises(CoreNotFoundError, match="not in the cluster"):
            procs_cluster["nowhere"]
        for refused in (
            lambda: procs_cluster.add_core("gamma"),
            procs_cluster.analyze,
            lambda: list(procs_cluster),
            procs_cluster.running_cores,
        ):
            with pytest.raises(ConfigurationError, match="only 'driver' is"):
                refused()

    @pytest.mark.parametrize(
        "options, reason",
        [
            ({"sanitize": True}, "LayoutSanitizer"),
            ({"store": "memory"}, "share a directory"),
            ({"retry_policy": RetryPolicy()}, "retry_policy"),
            ({"clock": VirtualClock()}, "real clock"),
        ],
    )
    def test_refusals_come_before_anything_is_started(self, options, reason):
        with pytest.raises(ConfigurationError, match=reason) as refusal:
            Cluster(["alpha"], transport="procs", **options)
        assert isinstance(refusal.value, FarGoError)

    def test_a_started_deployment_is_refused(self):
        with CoreProcesses(["alpha"]) as procs:
            with pytest.raises(ConfigurationError, match="already started"):
                Cluster(transport=procs)
            assert procs.driver is not None  # and left as it was

    def test_fleet_view_has_one_entry_per_answering_core(self, procs_cluster):
        assert len(procs_cluster.metrics_snapshot()["cores"]) == 3
        victim = procs_cluster.processes.processes["alpha"]
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=5.0)
        assert sorted(procs_cluster.running_names()) == ["beta", "driver"]
        snapshot = procs_cluster.metrics_snapshot()
        assert sorted(core["core"] for core in snapshot["cores"]) == ["beta", "driver"]

    def test_a_partition_reaches_the_childrens_hubs(self, procs_cluster):
        echo = Echo("far", _core=procs_cluster.seat, _at="alpha")
        holder = Holder(echo, _core=procs_cluster.seat, _at="beta")
        procs_cluster.partition({"alpha"})
        with pytest.raises(CoreError):
            holder.call_ref()  # driver -> beta is open; beta -> alpha is cut at beta
        procs_cluster.heal_partition()
        assert holder.call_ref() == "far"

    def test_a_child_is_revived_by_a_supervisor_not_the_cluster(self, procs_cluster):
        with pytest.raises(ConfigurationError, match="Supervisor"):
            procs_cluster.revive_core("alpha")

    def test_one_connected_trace_across_three_processes(self, procs_cluster):
        echo = Echo("far", _core=procs_cluster.seat, _at="alpha")
        holder = Holder(echo, _core=procs_cluster.seat, _at="beta")
        procs_cluster.clear_spans()
        assert holder.call_ref() == "far"  # driver -> beta -> alpha
        (trace,) = (
            trace for trace in procs_cluster.traces().values() if len(trace.cores()) == 3
        )
        assert trace.is_connected()
        assert trace.cores() == ["alpha", "beta", "driver"]
