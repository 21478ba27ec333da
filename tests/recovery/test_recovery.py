"""Tests for automatic recovery: quorum, identity, reconciliation."""

import pytest

from repro.analysis.model import LayoutModel, layout_mismatches
from repro.core.events import COMPLET_RECOVERED, CORE_RECONCILED
from repro.cluster.cluster import Cluster
from repro.cluster.failures import FailureInjector
from repro.cluster.workload import Counter, Desktop, Printer
from repro.errors import CoreNotFoundError, DanglingReferenceError, FarGoError
from tests.pointers import pointer_set_violations


@pytest.fixture
def rig():
    cluster = Cluster(["alpha", "beta", "gamma"])
    cluster.enable_recovery()
    return cluster, FailureInjector(cluster)


def _checkpointed_counter(cluster, at, value=40):
    """A Counter at ``at`` that reads ``value + 2``, checkpointed there."""
    counter = Counter(value, _core=cluster[at], _at=at)
    counter.increment(by=2)
    cluster.checkpoints[at].sweep()
    return counter


class TestCrashRecovery:
    def test_identity_kept_after_genuine_crash(self, rig):
        cluster, inject = rig
        counter = _checkpointed_counter(cluster, "gamma")
        inject.crash_core_at(2.0, "gamma")
        cluster.advance(7.0)
        report = cluster.recovery.reports[0]
        assert report.failed == "gamma"
        assert report.restored and not report.degraded
        assert report.unrepaired == []
        # The revival answers through a survivor under the old identity.
        fresh = cluster.stub_at("alpha", counter)
        assert fresh.read() == 42
        assert cluster.locate(fresh) != "gamma"

    def test_recovered_event_published(self, rig):
        cluster, inject = rig
        seen = []
        for name in ("alpha", "beta"):
            cluster[name].events.subscribe(COMPLET_RECOVERED, seen.append)
        counter = _checkpointed_counter(cluster, "gamma")
        inject.crash_core_at(2.0, "gamma")
        cluster.advance(7.0)
        assert len(seen) == 1
        assert seen[0].data["original"] == str(counter._fargo_target_id)
        assert seen[0].data["degraded"] is False

    def test_recovery_is_idempotent_across_observers(self, rig):
        """Both surviving detectors declare the failure; one recovery runs."""
        cluster, inject = rig
        _checkpointed_counter(cluster, "gamma")
        inject.crash_core_at(2.0, "gamma")
        cluster.advance(10.0)
        assert len(cluster.recovery.reports) == 1

    def test_destination_is_emptiest_survivor(self, rig):
        cluster, inject = rig
        Counter(0, _core=cluster["alpha"], _at="alpha")
        Counter(0, _core=cluster["alpha"], _at="alpha")
        _checkpointed_counter(cluster, "gamma")
        inject.crash_core_at(2.0, "gamma")
        cluster.advance(7.0)
        assert cluster.recovery.reports[0].destination == "beta"

    def test_no_survivors_raises_typed(self):
        cluster = Cluster(["alpha", "beta"])
        cluster.enable_recovery(auto_recover=False)
        _checkpointed_counter(cluster, "beta")
        cluster.transport.set_node_down("alpha")
        cluster.transport.set_node_down("beta")
        with pytest.raises(CoreNotFoundError):
            cluster.recovery.recover_core("beta")

    def test_pinned_destination(self, rig):
        cluster, inject = rig
        cluster.recovery.auto_recover = False
        counter = _checkpointed_counter(cluster, "gamma")
        cluster.advance(1.5)  # let the interval checkpoint capture 42
        cluster.transport.set_node_down("gamma")
        report = cluster.recovery.recover_core("gamma", destination="beta")
        assert report.destination == "beta"
        assert cluster.stub_at("alpha", counter).read() == 42


class TestPartitionQuorum:
    def test_minority_side_does_not_recover(self, rig):
        """The islanded Core sees everyone failed but must not act."""
        cluster, inject = rig
        _checkpointed_counter(cluster, "alpha")
        inject.partition_at(2.0, {"alpha"})
        cluster.advance(8.0)
        for report in cluster.recovery.reports:
            assert report.failed == "alpha"  # only the majority acted

    def test_majority_recovers_degraded(self, rig):
        """A partitioned original may be alive: the revival is degraded."""
        cluster, inject = rig
        counter = _checkpointed_counter(cluster, "alpha")
        inject.partition_at(2.0, {"alpha"})
        cluster.advance(8.0)
        report = next(r for r in cluster.recovery.reports if r.failed == "alpha")
        assert report.degraded and not report.restored
        # The original still runs on its island.
        assert counter.read() == 42
        # Old references on the majority side fail typed, not split-brained.
        with pytest.raises(FarGoError):
            cluster.stub_at("beta", counter).read()

    def test_degraded_original_keeps_protection(self, rig):
        """The partition-surviving original must stay recoverable."""
        cluster, inject = rig
        counter = _checkpointed_counter(cluster, "alpha")
        original_id = counter._fargo_target_id
        inject.partition_at(2.0, {"alpha"})
        inject.heal_at(8.0)
        cluster.advance(12.0)
        assert cluster.recovery.store.get(original_id) is not None
        # Its island host still checkpoints it.
        assert cluster.recovery.store.get(original_id).host == "alpha"
        # A later genuine crash of alpha still recovers the original.
        inject.crash_core_at(14.0, "alpha")
        cluster.advance(20.0)
        report = next(r for r in cluster.recovery.reports if r.restored)
        assert report.restored == [str(original_id)]  # identity kept
        fresh = cluster.stub_at(report.destination, counter)
        assert fresh.read() == 42


class TestReconcile:
    def test_revival_drops_stale_copy(self, rig):
        cluster, inject = rig
        counter = _checkpointed_counter(cluster, "gamma")
        inject.crash_core_at(2.0, "gamma")
        inject.revive_core_at(10.0, "gamma")
        cluster.advance(14.0)
        hosts = [
            core.name
            for core in cluster.running_cores()
            if core.repository.hosts(counter._fargo_target_id)
        ]
        assert len(hosts) == 1
        assert hosts != ["gamma"]

    def test_reconcile_event(self, rig):
        cluster, inject = rig
        counter = _checkpointed_counter(cluster, "gamma")
        seen = []
        cluster["gamma"].events.subscribe(CORE_RECONCILED, seen.append)
        inject.crash_core_at(2.0, "gamma")
        inject.revive_core_at(10.0, "gamma")
        cluster.advance(14.0)
        assert seen
        assert str(counter._fargo_target_id) in seen[0].data["dropped"]

    def test_revived_tracker_forwards_to_winner(self, rig):
        cluster, inject = rig
        counter = _checkpointed_counter(cluster, "gamma")
        inject.crash_core_at(2.0, "gamma")
        inject.revive_core_at(10.0, "gamma")
        cluster.advance(14.0)
        # A reference seated at the revived Core reaches the revival.
        assert cluster.stub_at("gamma", counter).read() == 42

    def test_healed_partition_repairs_dangling_trackers(self, rig):
        """A false-positive failure must heal completely (chaos seed 5)."""
        cluster, inject = rig
        counter = _checkpointed_counter(cluster, "alpha")
        # Seat a reference on the majority side before the split.
        seated = cluster.stub_at("beta", counter)
        assert seated.read() == 42
        inject.partition_at(2.0, {"alpha"})
        cluster.advance(8.0)
        with pytest.raises(DanglingReferenceError):
            seated.read()  # written off during the degraded recovery
        inject.heal_at(9.0)
        cluster.advance(13.0)
        # Reconciliation re-pointed the dangling tracker at the original.
        assert seated.read() == 42


class TestManualRestore:
    def test_restore_complet_by_short_id(self, rig):
        cluster, inject = rig
        cluster.recovery.auto_recover = False
        counter = _checkpointed_counter(cluster, "gamma")
        cluster.advance(1.5)  # let the interval checkpoint capture 42
        cluster.transport.set_node_down("gamma")
        new_id = cluster.recovery.restore_complet(
            counter._fargo_target_id.short(), destination="beta"
        )
        assert new_id == str(counter._fargo_target_id)  # identity kept
        assert cluster.stub_at("alpha", counter).read() == 42

    def test_restore_live_complet_gets_fresh_identity(self, rig):
        cluster, _ = rig
        counter = _checkpointed_counter(cluster, "gamma")
        new_id = cluster.recovery.restore_complet(str(counter._fargo_target_id))
        assert new_id != str(counter._fargo_target_id)

    def test_restore_unknown_raises_typed(self, rig):
        cluster, _ = rig
        with pytest.raises(FarGoError):
            cluster.recovery.restore_complet("ghost/c9")


class TestChainsThroughTheDead:
    def test_a_chain_the_dead_core_only_forwarded_reaches_the_survivor(self):
        """Born at b and moved on by its host to c, the counter is reached
        from a through b.  Once b is written off, a's tracker leads to c, not
        to a dangling end."""
        cluster, model = Cluster(["a", "b", "c"]), LayoutModel(["a", "b", "c"])
        counter = Counter(0, _core=cluster["a"], _at="b")
        cid = str(counter._fargo_target_id)
        model.create(cid, "b", Counter._fargo_anchor_cls)
        assert cluster.move_via_host(counter, "c") is model.move(cid, "c")
        cluster.crash_core("b")
        model.crash_core("b")
        cluster.enable_recovery()
        cluster.advance(30.0)
        (r,) = cluster.recovery.reports
        assert not model.restore(r.failed, r.destination, r.restored, r.degraded, r.skipped,
                                 r.unrepaired)
        assert not layout_mismatches(model, cluster)
        assert model.invoke(cid) == "c" and counter.increment() == model.calls[cid]


class TestWhatARestoreBringsBack:
    def test_a_stamp_with_nothing_of_its_type_where_it_lands_keeps_its_target(self):
        cluster = Cluster(["a", "b", "c"])
        cluster.enable_recovery(auto_recover=False)
        printer = Printer("site-a", _core=cluster["a"], _at="a")
        desk = Desktop(printer, _core=cluster["a"], _at="c")
        desk_id, printer_id = str(desk._fargo_target_id), str(printer._fargo_target_id)
        assert cluster.admin("c").retype(desk_id, printer_id, "stamp")
        cluster.checkpoints["c"].sweep()
        cluster.crash_core("c")
        assert cluster.recovery.recover_core("c", destination="b").restored == [desk_id]
        rows = cluster.admin("b").references(desk_id)
        assert [(row["target"], row["type"]) for row in rows] == [(printer_id, "link")]
        assert desk.print_report("r") == "printed at site-a: r"

    def test_the_tracker_that_hosts_the_revenant_leaves_the_set_it_forwarded_to(self):
        """a's tracker forwarded through c to b; restored at a, the complet is
        hosted behind it, and c's tracker no longer counts it."""
        cluster = Cluster(["a", "b", "c"])
        cluster.enable_recovery(auto_recover=False)
        counter = Counter(0, _core=cluster["a"], _at="c")
        cluster.move_via_host(counter, "b")
        cluster.checkpoints["b"].sweep()
        cluster.crash_core("b")
        assert cluster.recovery.recover_core("b", destination="a").restored
        assert not pointer_set_violations([cluster["a"], cluster["c"]])
        assert counter.increment() == 1
