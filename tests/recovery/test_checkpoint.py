"""Tests for the per-Core checkpointer and the checkpoint store."""

import contextlib

import pytest

from repro.complet.relocators import Pull
from repro.core.core import Core
from repro.cluster.cluster import Cluster
from repro.cluster.workload import Counter, DataSource
from repro.recovery import checkpoint as checkpoint_module
from tests.anchors import Holder


@pytest.fixture
def rig():
    cluster = Cluster(["alpha", "beta", "gamma"])
    cluster.enable_recovery(auto_recover=False)
    return cluster, cluster.checkpoints


def _store(cluster):
    return cluster.recovery.store


class TestProtect:
    def test_start_takes_an_immediate_sweep(self):
        cluster = Cluster(["alpha", "beta"])
        counter = Counter(5, _core=cluster["alpha"])
        cluster.enable_recovery(auto_recover=False)
        record = _store(cluster).get(counter._fargo_target_id)
        assert record is not None
        assert record.host == "alpha"
        assert sorted(cluster.checkpoints) == ["alpha", "beta"]

    def test_interval_policy_recheckpoints(self, rig):
        cluster, checkpoints = rig
        counter = Counter(5, _core=cluster["alpha"])
        complet_id = counter._fargo_target_id
        counter.increment(by=37)
        cluster.advance(1.5)
        snap = _store(cluster).get(complet_id).snapshot
        from repro.core.persistence import restore

        revived = restore(cluster["beta"], snap)
        assert revived.read() == 42

    def test_a_core_added_later_gets_a_checkpointer(self, rig):
        cluster, checkpoints = rig
        cluster.add_core("delta")
        counter = Counter(5, _core=cluster["delta"])
        cluster.advance(1.0)
        assert _store(cluster).get(counter._fargo_target_id).host == "delta"
        assert checkpoints["delta"].interval == 1.0


class TestOnArrival:
    def test_move_refreshes_host(self, rig):
        cluster, checkpoints = rig
        counter = Counter(5, _core=cluster["alpha"])
        complet_id = counter._fargo_target_id
        cluster.move(counter, "gamma")
        assert _store(cluster).get(complet_id).host == "gamma"

    def test_a_restored_complet_is_checkpointed_at_once(self, rig):
        cluster, checkpoints = rig
        counter = Counter(5, _core=cluster["alpha"])
        checkpoints["alpha"].sweep()
        new_id = cluster.recovery.restore_complet(str(counter._fargo_target_id), "beta")
        assert _store(cluster).by_str(new_id).host == "beta"


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
        head_id = head._fargo_target_id
        checkpoints["alpha"].sweep()
        record = _store(cluster).get(head_id)
        assert len(record.group) == 4  # head + three pulled members
        for member_id in record.group:
            member = _store(cluster).get(member_id)
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
        head_id = head._fargo_target_id
        checkpoints["alpha"].sweep()
        assert _store(cluster).get(head_id).group == (head_id,)


class TestSkipWindows:
    def test_checkpoint_skipped_when_host_down(self, rig):
        cluster, checkpoints = rig
        counter = Counter(5, _core=cluster["alpha"])
        complet_id = counter._fargo_target_id
        checkpoints["alpha"].sweep()
        taken = _store(cluster).get(complet_id).taken_at
        cluster.transport.set_node_down("alpha")
        cluster.advance(3.0)
        assert _store(cluster).get(complet_id).taken_at == taken
        assert checkpoints["alpha"].sweep() == 0

    def test_metrics_count_taken_checkpoints(self, rig):
        cluster, checkpoints = rig
        Counter(5, _core=cluster["alpha"])
        checkpoints["alpha"].sweep()
        assert cluster["alpha"].metrics.counter_value("checkpoint.taken") == 1


class TestWriteRule:
    def test_a_sweep_snapshotted_before_a_departure_does_not_rename_the_host(
        self, rig, monkeypatch
    ):
        """The old host's sweep takes its snapshot, the complet moves, and the
        sweep writes after the destination's arrival record: it is dropped."""
        cluster, checkpoints = rig
        counter = Counter(5, _core=cluster["alpha"])
        complet_id = counter._fargo_target_id
        taken = checkpoint_module.checkpoint_group

        def snapshot_then_move(host, anchor):
            group, records = taken(host, anchor)
            if host.name == "alpha":
                cluster.move(counter, "gamma")
            return group, records

        monkeypatch.setattr(checkpoint_module, "checkpoint_group", snapshot_then_move)
        assert checkpoints["alpha"].sweep() == 0
        assert _store(cluster).get(complet_id).host == "gamma"
        assert checkpoints["gamma"].sweep() == 1

    def test_a_revived_stale_copy_does_not_rename_the_host(self, rig):
        cluster, checkpoints = rig
        counter = Counter(40, _core=cluster["alpha"], _at="gamma")
        complet_id = counter._fargo_target_id
        checkpoints["gamma"].sweep()
        cluster.transport.set_node_down("gamma")
        report = cluster.recovery.recover_core("gamma", destination="beta")
        assert report.restored == [str(complet_id)]
        assert _store(cluster).get(complet_id).host == "beta"
        cluster.transport.set_node_down("gamma", down=False)
        assert cluster["gamma"].repository.hosts(complet_id)  # the stale copy
        assert checkpoints["gamma"].sweep() == 0
        cluster.advance(2.0)
        assert _store(cluster).get(complet_id).host == "beta"

    def test_an_arrival_whose_checkpoint_failed_is_swept_over_the_old_record(
        self, rig, monkeypatch
    ):
        """The newest record names the old host, but this Core acquired the
        complet after it was taken: its sweep writes."""
        cluster, checkpoints = rig
        counter = Counter(5, _core=cluster["alpha"])
        complet_id = counter._fargo_target_id
        cluster.move(counter, "gamma")
        taken = checkpoint_module.checkpoint_group
        monkeypatch.setattr(
            checkpoint_module, "checkpoint_group", lambda host, anchor: ((anchor.complet_id,), [])
        )
        cluster.move(counter, "alpha")
        monkeypatch.setattr(checkpoint_module, "checkpoint_group", taken)
        assert _store(cluster).get(complet_id).host == "gamma"
        assert checkpoints["alpha"].sweep() == 1
        assert _store(cluster).get(complet_id).host == "alpha"


    def test_an_arrival_writes_though_the_old_host_wrote_since_it_came(self, rig, monkeypatch):
        """The old host's sweep, in another process, snapshotted the complet
        before it left and writes between the arrival and the arrival's own
        write: the arrival still writes, so no successor of the old host
        restores a second copy."""
        cluster, _checkpoints = rig
        counter = Counter(5, _core=cluster["alpha"])
        complet_id = counter._fargo_target_id
        store = _store(cluster)
        alpha = cluster["alpha"]
        _group, stale = checkpoint_module.checkpoint_group(alpha, alpha.repository.get(complet_id))
        locked = store.locked

        @contextlib.contextmanager
        def old_host_writes_first(cid):
            if stale:
                store.put(stale.pop())
            with locked(cid):
                yield

        monkeypatch.setattr(store, "locked", old_host_writes_first)
        cluster.move(counter, "gamma")
        assert not stale and store.get(complet_id).host == "gamma"


class TestStore:
    def test_by_str_accepts_full_and_short_forms(self, rig):
        cluster, checkpoints = rig
        counter = Counter(5, _core=cluster["alpha"])
        complet_id = counter._fargo_target_id
        checkpoints["alpha"].sweep()
        store = _store(cluster)
        assert store.by_str(str(complet_id)) is not None
        assert store.by_str(complet_id.short()) is not None
        assert store.by_str("nope") is None

    def test_hosted_at_and_discard(self, rig):
        cluster, checkpoints = rig
        one = Counter(1, _core=cluster["alpha"])._fargo_target_id
        two = Counter(2, _core=cluster["beta"])._fargo_target_id
        cluster.advance(1.0)
        store = _store(cluster)
        assert [r.complet_id for r in store.hosted_at("alpha")] == [one]
        store.discard(one)
        assert one not in store
        assert two in store
