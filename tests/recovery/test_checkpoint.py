"""Tests for checkpoint policies and the checkpoint store."""

import pytest

from repro.complet.relocators import Pull
from repro.core.core import Core
from repro.cluster.cluster import Cluster
from repro.cluster.workload import Counter, DataSource
from repro.recovery import CheckpointPolicy
from tests.anchors import Holder


@pytest.fixture
def rig():
    cluster = Cluster(["alpha", "beta", "gamma"])
    cluster.enable_recovery(auto_recover=False)
    return cluster, cluster.checkpoints


class TestProtect:
    def test_protect_takes_immediate_checkpoint(self, rig):
        cluster, checkpoints = rig
        counter = Counter(5, _core=cluster["alpha"])
        complet_id = checkpoints.protect(counter)
        record = checkpoints.store.get(complet_id)
        assert record is not None
        assert record.host == "alpha"
        assert checkpoints.is_protected(complet_id)

    def test_default_policy_checkpoints_once(self, rig):
        cluster, checkpoints = rig
        counter = Counter(5, _core=cluster["alpha"])
        complet_id = checkpoints.protect(counter)
        taken = checkpoints.store.get(complet_id).taken_at
        counter.increment()
        cluster.advance(10.0)
        assert checkpoints.store.get(complet_id).taken_at == taken

    def test_interval_policy_recheckpoints(self, rig):
        cluster, checkpoints = rig
        counter = Counter(5, _core=cluster["alpha"])
        complet_id = checkpoints.protect(counter, CheckpointPolicy(interval=2.0))
        counter.increment(by=37)
        cluster.advance(2.5)
        snap = checkpoints.store.get(complet_id).snapshot
        from repro.core.persistence import restore

        revived = restore(cluster["beta"], snap)
        assert revived.read() == 42

    def test_unprotect_cancels_timer(self, rig):
        cluster, checkpoints = rig
        counter = Counter(5, _core=cluster["alpha"])
        complet_id = checkpoints.protect(counter, CheckpointPolicy(interval=1.0))
        checkpoints.unprotect(complet_id)
        taken = checkpoints.store.get(complet_id).taken_at
        cluster.advance(5.0)
        assert checkpoints.store.get(complet_id).taken_at == taken
        assert not checkpoints.is_protected(complet_id)

    def test_policy_of(self, rig):
        cluster, checkpoints = rig
        policy = CheckpointPolicy(interval=3.0, on_arrival=True)
        complet_id = checkpoints.protect(
            Counter(0, _core=cluster["alpha"]), policy
        )
        assert checkpoints.policy_of(complet_id) == policy
        checkpoints.unprotect(complet_id)
        assert checkpoints.policy_of(complet_id) is None


class TestOnArrival:
    def test_move_refreshes_host(self, rig):
        cluster, checkpoints = rig
        counter = Counter(5, _core=cluster["alpha"])
        complet_id = checkpoints.protect(counter, CheckpointPolicy(on_arrival=True))
        cluster.move(counter, "gamma")
        assert checkpoints.store.get(complet_id).host == "gamma"

    def test_without_on_arrival_host_goes_stale(self, rig):
        cluster, checkpoints = rig
        counter = Counter(5, _core=cluster["alpha"])
        complet_id = checkpoints.protect(counter)
        cluster.move(counter, "gamma")
        assert checkpoints.store.get(complet_id).host == "alpha"


class TestPullGroup:
    def test_group_members_checkpointed_together(self, rig):
        cluster, checkpoints = rig
        head = Holder(None, _core=cluster["alpha"])
        anchor = cluster["alpha"].repository.get(head._fargo_target_id)
        anchor.members = [
            DataSource(64, _core=cluster["alpha"]) for _ in range(3)
        ]
        for stub in anchor.members:
            Core.get_meta_ref(stub).set_relocator(Pull())
        head_id = checkpoints.protect(head)
        record = checkpoints.store.get(head_id)
        assert len(record.group) == 4  # head + three pulled members
        for member_id in record.group:
            member = checkpoints.store.get(member_id)
            assert member is not None
            assert member.group == record.group

    def test_remote_members_not_captured(self, rig):
        """Only the *local* pull-group is snapshotted by this host's pass."""
        cluster, checkpoints = rig
        source = DataSource(64, _core=cluster["alpha"])
        head = Holder(source, _core=cluster["alpha"])
        anchor = cluster["alpha"].repository.get(head._fargo_target_id)
        Core.get_meta_ref(anchor.ref).set_relocator(Pull())
        cluster.move(source, "beta")
        head_id = checkpoints.protect(head)
        assert checkpoints.store.get(head_id).group == (head_id,)


class TestSkipWindows:
    def test_checkpoint_skipped_when_host_down(self, rig):
        cluster, checkpoints = rig
        counter = Counter(5, _core=cluster["alpha"])
        complet_id = checkpoints.protect(counter, CheckpointPolicy(interval=1.0))
        before = checkpoints.skipped
        cluster.transport.set_node_down("alpha")
        cluster.advance(3.0)
        assert checkpoints.skipped > before
        assert checkpoints.checkpoint(complet_id) is False

    def test_metrics_count_taken_checkpoints(self, rig):
        cluster, checkpoints = rig
        counter = Counter(5, _core=cluster["alpha"])
        checkpoints.protect(counter)
        assert cluster["alpha"].metrics.counter_value("checkpoint.taken") == 1


class TestStore:
    def test_by_str_accepts_full_and_short_forms(self, rig):
        cluster, checkpoints = rig
        counter = Counter(5, _core=cluster["alpha"])
        complet_id = checkpoints.protect(counter)
        assert checkpoints.store.by_str(str(complet_id)) is not None
        assert checkpoints.store.by_str(complet_id.short()) is not None
        assert checkpoints.store.by_str("nope") is None

    def test_hosted_at_and_discard(self, rig):
        cluster, checkpoints = rig
        one = checkpoints.protect(Counter(1, _core=cluster["alpha"]))
        two = checkpoints.protect(Counter(2, _core=cluster["beta"]))
        assert [r.complet_id for r in checkpoints.store.hosted_at("alpha")] == [one]
        checkpoints.store.discard(one)
        assert one not in checkpoints.store
        assert two in checkpoints.store
