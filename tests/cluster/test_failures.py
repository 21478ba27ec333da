"""Tests for the failure injector."""

import pytest

from repro.errors import CoreDownError, CoreUnreachableError
from repro.cluster.cluster import Cluster
from repro.cluster.failures import FailureInjector
from repro.cluster.workload import Counter, Echo


@pytest.fixture
def rig():
    cluster = Cluster(["a", "b", "c"])
    return cluster, FailureInjector(cluster)


class TestLinkFailures:
    def test_scheduled_degradation(self, rig):
        cluster, inject = rig
        inject.degrade_link_at(5.0, "a", "b", bandwidth=100.0)
        assert cluster.transport.link("a", "b").bandwidth == 1_000_000.0
        cluster.advance(5.0)
        assert cluster.transport.link("a", "b").bandwidth == 100.0

    def test_cut_and_restore(self, rig):
        cluster, inject = rig
        echo = Echo("x", _core=cluster["a"])
        cluster.move(echo, "b")
        inject.cut_link_at(1.0, "a", "b")
        inject.restore_link_at(2.0, "a", "b")
        cluster.advance(1.0)
        with pytest.raises(CoreUnreachableError):
            echo.ping()
        cluster.advance(1.0)
        assert echo.ping() == "x"

    def test_log_records_history(self, rig):
        cluster, inject = rig
        inject.cut_link_at(1.0, "a", "b")
        inject.degrade_link_at(2.0, "b", "c", bandwidth=5.0)
        cluster.advance(3.0)
        assert len(inject.log) == 2
        assert inject.log[0][0] == 1.0
        assert "goes down" in inject.log[0][1]


class TestCoreFailures:
    def test_graceful_shutdown_fires_event(self, rig):
        cluster, inject = rig
        seen = []
        cluster["b"].events.subscribe("coreShutdown", seen.append)
        inject.shutdown_core_at(4.0, "b")
        cluster.advance(4.0)
        assert len(seen) == 1
        assert not cluster["b"].is_running

    def test_crash_fires_no_event(self, rig):
        cluster, inject = rig
        seen = []
        cluster["b"].events.subscribe("coreShutdown", seen.append)
        inject.crash_core_at(4.0, "b")
        cluster.advance(4.0)
        assert seen == []
        echo = Echo("x", _core=cluster["a"])
        with pytest.raises(CoreDownError):
            cluster.move(echo, "b")

    def test_revive(self, rig):
        cluster, inject = rig
        inject.crash_core_at(1.0, "b")
        inject.revive_core_at(2.0, "b")
        cluster.advance(3.0)
        echo = Echo("x", _core=cluster["a"])
        cluster.move(echo, "b")
        assert echo.ping() == "x"


class TestPartitions:
    def test_partition_and_heal(self, rig):
        cluster, inject = rig
        echo = Echo("x", _core=cluster["a"])
        cluster.move(echo, "b")
        inject.partition_at(1.0, {"a", "c"}, {"b"})
        inject.heal_at(2.0)
        cluster.advance(1.0)
        with pytest.raises(CoreUnreachableError):
            echo.ping()
        cluster.advance(1.0)
        assert echo.ping() == "x"


class TestObservability:
    def test_injections_are_counted_by_kind(self, rig):
        cluster, inject = rig
        inject.crash_core_at(1.0, "a")
        inject.cut_link_at(2.0, "b", "c")
        inject.cut_link_at(3.0, "a", "b")
        cluster.advance(4.0)
        assert inject.injected_count(kind="crash_core") == 1
        assert inject.injected_count(kind="cut_link") == 2
        assert inject.injected_count() == 3
        assert inject.metrics.counter_value("injector.events", kind="cut_link") == 2

    def test_unfired_injections_not_counted(self, rig):
        cluster, inject = rig
        inject.crash_core_at(10.0, "a")
        cluster.advance(5.0)  # stop before the timer fires
        assert inject.injected_count() == 0

    def test_injections_annotate_the_trace(self):
        cluster = Cluster(["a", "b"], tracing=True)
        inject = FailureInjector(cluster)
        inject.crash_core_at(1.0, "a")
        inject.heal_at(2.0)
        cluster.advance(3.0)
        spans = [
            span
            for core in cluster.cores.values()
            for span in core.tracer.spans()
            if span.category == "failure"
        ]
        names = sorted(span.name for span in spans)
        assert names == ["inject:crash_core", "inject:heal"]

    def test_no_spans_without_tracing(self, rig):
        cluster, inject = rig
        inject.crash_core_at(1.0, "a")
        cluster.advance(2.0)  # must not raise; tracing is off
        assert inject.injected_count(kind="crash_core") == 1


class TestCancellation:
    def test_cancel_all(self, rig):
        cluster, inject = rig
        inject.cut_link_at(1.0, "a", "b")
        inject.cancel_all()
        cluster.advance(5.0)
        assert cluster.can_reach("a", "b")
        assert inject.log == []
