"""Integration: persistence composed with scripts, registry, and failures."""

import pytest

from repro.core.persistence import Snapshot, restore, snapshot
from repro.core.locator import LocationRegistry
from repro.cluster.cluster import Cluster
from repro.cluster.workload import Counter, DataSource, Worker
from repro.script.interpreter import ScriptEngine


class TestScriptedCheckpoints:
    def test_periodic_checkpoint_rule(self, cluster):
        """A script action checkpoints a complet on every threshold event."""
        counter = Counter(0, _core=cluster["alpha"])
        vault: list[bytes] = []

        def checkpoint(ctx, stub):
            host = ctx.engine.cluster.core(ctx.engine.cluster.locate(stub))
            vault.append(snapshot(host, stub).to_bytes())

        engine = ScriptEngine(cluster, home="beta")
        engine.register_action("checkpoint", checkpoint)
        engine.run(
            "$c = %1\n"
            'on completLoad(0, ">=") listenAt [alpha] every 2 do'
            " call checkpoint($c) end",
            args=(counter,),
        )
        counter.increment(5)
        cluster.advance(2.5)
        assert len(vault) == 1
        # The checkpoint captured the pre-crash state:
        cluster.transport.set_node_down("alpha")
        recovered = restore(cluster["beta"], Snapshot.from_bytes(vault[-1]))
        assert recovered.read() == 5

    def test_checkpoint_then_move_then_checkpoint(self, cluster):
        counter = Counter(0, _core=cluster["alpha"])
        first = snapshot(cluster["alpha"], counter)
        counter.increment(3)
        cluster.move(counter, "beta")
        counter.increment(4)
        second = snapshot(cluster["beta"], counter)
        old = restore(cluster["alpha"], first)
        new = restore(cluster["alpha"], second)
        assert old.read() == 0
        assert new.read() == 7


class TestRegistryInterplay:
    def test_restored_copy_registers_cleanly(self):
        cluster = Cluster(["a", "b"], locator=LocationRegistry)
        counter = Counter(9, _core=cluster["a"])
        snap = snapshot(cluster["a"], counter)
        restored = restore(cluster["b"], snap)
        # The copy has its own identity; moving it updates its own home.
        cluster.move(restored, "a")
        location = cluster["b"].locator.resolve(restored._fargo_target_id)
        assert location is not None and location.core == "a"

    def test_identity_reclaim_after_registry_forgets(self):
        cluster = Cluster(["a", "b"], locator=LocationRegistry)
        counter = Counter(2, _core=cluster["a"])
        snap = snapshot(cluster["a"], counter)
        cluster["a"].repository.destroy(counter._fargo_target_id)
        # Never moved: the registry has no record, identity is free.
        revenant = restore(cluster["a"], snap, keep_identity=True)
        assert revenant._fargo_target_id == counter._fargo_target_id


class TestReferenceRecovery:
    def test_restored_worker_reaches_moved_source(self, cluster3):
        source = DataSource(100, _core=cluster3["alpha"])
        worker = Worker(source, _core=cluster3["alpha"])
        snap = snapshot(cluster3["alpha"], worker)
        cluster3.move(source, "gamma")
        cluster3.move(worker, "beta")  # the original also moves
        restored = restore(cluster3["beta"], snap)
        # Both the original and the restored copy read the same source.
        assert restored.work(1) == 100
        assert worker.work(1) == 100
        anchor = cluster3["gamma"].repository.get(source._fargo_target_id)
        assert anchor.reads == 2
