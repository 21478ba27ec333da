"""Tests for the cluster harness."""

import pytest

from repro.errors import CoreNotFoundError, DuplicateCoreError
from repro.cluster.cluster import Cluster
from repro.cluster.workload import Counter, Echo


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
