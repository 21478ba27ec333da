"""Tests for complet persistence (the §7 future-work extension)."""

import pytest

from repro.core.persistence import SNAPSHOT_VERSION, Snapshot, restore, snapshot
from repro.core.locator import LocationRegistry
from repro.errors import CompletError
from repro.cluster.cluster import Cluster
from repro.cluster.workload import Counter, DataSource, Desktop, Printer, Worker


class TestSnapshot:
    def test_snapshot_captures_state(self, cluster):
        counter = Counter(40, _core=cluster["alpha"])
        counter.increment(2)
        snap = snapshot(cluster["alpha"], counter)
        assert snap.original_id == counter._fargo_target_id
        assert snap.taken_at == cluster.now

    def test_snapshot_requires_hosting_core(self, cluster):
        counter = Counter(0, _core=cluster["alpha"])
        cluster.move(counter, "beta")
        with pytest.raises(CompletError):
            snapshot(cluster["alpha"], counter)

    def test_snapshot_bytes_roundtrip(self, cluster):
        counter = Counter(7, _core=cluster["alpha"])
        snap = snapshot(cluster["alpha"], counter)
        again = Snapshot.from_bytes(snap.to_bytes())
        assert again == snap

    def test_from_bytes_rejects_garbage(self):
        import pickle

        with pytest.raises(CompletError):
            Snapshot.from_bytes(pickle.dumps({"not": "a snapshot"}))

    def test_snapshot_carries_current_version(self, cluster):
        counter = Counter(0, _core=cluster["alpha"])
        snap = snapshot(cluster["alpha"], counter)
        assert snap.version == SNAPSHOT_VERSION
        assert Snapshot.from_bytes(snap.to_bytes()).version == SNAPSHOT_VERSION

    def test_version_mismatch_rejected(self, cluster):
        """A snapshot from another wire-format era fails typed, not weird."""
        import dataclasses

        counter = Counter(0, _core=cluster["alpha"])
        snap = snapshot(cluster["alpha"], counter)
        relic = dataclasses.replace(snap, version=SNAPSHOT_VERSION + 1)
        with pytest.raises(CompletError, match="version"):
            Snapshot.from_bytes(relic.to_bytes())

    def test_stamp_reference_survives_snapshot(self, cluster):
        """``stamp`` keeps its by-type semantics through persist/restore."""
        from repro.complet.relocators import Stamp
        from repro.core.core import Core

        printer_a = Printer("site-a", _core=cluster["alpha"])
        Printer("site-b", _core=cluster["beta"])
        desk = Desktop(printer_a, _core=cluster["alpha"])
        anchor = cluster["alpha"].repository.get(desk._fargo_target_id)
        Core.get_meta_ref(anchor.printer).set_relocator(Stamp())
        snap = snapshot(cluster["alpha"], desk)
        restored = restore(cluster["beta"], snap)
        # Restored at beta, the stamped reference re-resolved by type.
        assert restored.print_report("r") == "printed at site-b: r"


class TestRestore:
    def test_restore_is_independent_copy(self, cluster):
        counter = Counter(10, _core=cluster["alpha"])
        snap = snapshot(cluster["alpha"], counter)
        counter.increment(90)  # original diverges after the checkpoint
        restored = restore(cluster["beta"], snap)
        assert restored.read() == 10
        assert counter.read() == 100
        assert restored._fargo_target_id != counter._fargo_target_id

    def test_restore_fires_event(self, cluster):
        seen = []
        cluster["beta"].events.subscribe("completRestored", seen.append)
        counter = Counter(0, _core=cluster["alpha"])
        snap = snapshot(cluster["alpha"], counter)
        restore(cluster["beta"], snap)
        assert len(seen) == 1
        assert seen[0].data["original"] == str(counter._fargo_target_id)

    def test_restored_references_reconnect(self, cluster):
        """Outgoing references in the snapshot resolve to live targets."""
        source = DataSource(100, _core=cluster["alpha"])
        worker = Worker(source, _core=cluster["alpha"])
        snap = snapshot(cluster["alpha"], worker)
        cluster.move(source, "beta")  # collaborator moves meanwhile
        restored = restore(cluster["beta"], snap)
        assert restored.work(1) == 100  # reconnected through the reference

    def test_keep_identity_after_destruction(self, cluster):
        counter = Counter(5, _core=cluster["alpha"])
        original_id = counter._fargo_target_id
        snap = snapshot(cluster["alpha"], counter)
        cluster["alpha"].repository.destroy(original_id)
        revenant = restore(cluster["alpha"], snap, keep_identity=True)
        assert revenant._fargo_target_id == original_id
        assert revenant.read() == 5
        # Old references to the identity work again:
        assert counter.increment() == 6

    def test_keep_identity_refused_while_alive_locally(self, cluster):
        counter = Counter(0, _core=cluster["alpha"])
        snap = snapshot(cluster["alpha"], counter)
        with pytest.raises(CompletError, match="still hosted"):
            restore(cluster["alpha"], snap, keep_identity=True)

    def test_keep_identity_refused_while_registry_knows(self):
        cluster = Cluster(["a", "b"], locator=LocationRegistry)
        counter = Counter(0, _core=cluster["a"])
        snap = snapshot(cluster["a"], counter)
        cluster.move(counter, "b")  # registry records the move
        with pytest.raises(CompletError, match="registry"):
            restore(cluster["a"], snap, keep_identity=True)

    def test_keep_identity_allowed_when_home_crashed(self):
        """The identity check cannot consult a dead home: with no local
        copy and no registry answer, reclaiming the identity is legal —
        the fail-stop assumption says the original cannot answer."""
        cluster = Cluster(["a", "b", "c"], locator=LocationRegistry)
        counter = Counter(5, _core=cluster["a"])
        original_id = counter._fargo_target_id
        snap = snapshot(cluster["a"], counter)
        cluster.transport.set_node_down("a")  # home (and host) crashes
        revenant = restore(cluster["b"], snap, keep_identity=True)
        assert revenant._fargo_target_id == original_id
        assert revenant.read() == 5
        # (Fresh stubs minted elsewhere still route via the dead home and
        # fail typed — RecoveryManager, not raw restore, repairs those.)

    def test_keep_identity_allowed_when_home_partitioned(self):
        cluster = Cluster(["a", "b"], locator=LocationRegistry)
        counter = Counter(9, _core=cluster["a"])
        snap = snapshot(cluster["a"], counter)
        cluster.partition({"a"}, {"b"})
        revenant = restore(cluster["b"], snap, keep_identity=True)
        assert revenant._fargo_target_id == counter._fargo_target_id
        assert revenant.read() == 9


class TestCrashRecoveryScenario:
    def test_checkpoint_crash_restore(self, cluster3):
        """The classic persistence story: periodic checkpoints survive a
        hard crash; the complet resumes from the last one elsewhere."""
        counter = Counter(0, _core=cluster3["alpha"])
        checkpoints: list[bytes] = []
        for round_number in range(3):
            counter.increment(10)
            checkpoints.append(snapshot(cluster3["alpha"], counter).to_bytes())
        cluster3.transport.set_node_down("alpha")  # crash: no shutdown event
        snap = Snapshot.from_bytes(checkpoints[-1])
        recovered = restore(cluster3["beta"], snap)
        assert recovered.read() == 30
        assert recovered.increment() == 31
