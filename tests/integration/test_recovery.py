"""Integration: a Core crashes; the cluster detects, recovers, reconciles.

The deterministic end-to-end scenario behind ``examples/core_failover.py``:
three Cores, protected complets on one of them, a hard crash at a fixed
virtual time — and afterwards every protected complet answers on a
survivor, through old references, with a single host per identity.
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.failures import FailureInjector
from repro.cluster.workload import Counter, DataSource
from repro.errors import FarGoError
from repro.recovery import CheckpointPolicy, DetectorConfig
from repro.script.interpreter import ScriptEngine

DETECTOR = dict(interval=0.5, suspect_after=1.5, fail_after=3.0)


def _rig(*, auto_recover=True):
    cluster = Cluster(["alpha", "beta", "gamma"])
    cluster.enable_recovery(
        detector=DetectorConfig(**DETECTOR), auto_recover=auto_recover
    )
    return cluster, FailureInjector(cluster)


class TestCrashSurvival:
    def test_protected_complets_survive_a_crash(self):
        cluster, inject = _rig()
        counters = [
            Counter(i * 10, _core=cluster["alpha"], _at="gamma") for i in range(3)
        ]
        for counter in counters:
            cluster.checkpoints.protect(
                counter, CheckpointPolicy(interval=1.0, on_arrival=True)
            )
            counter.increment(by=2)
        inject.crash_core_at(2.0, "gamma")
        cluster.advance(8.0)

        # Every complet lives on exactly one reachable survivor.  (The
        # crashed Core's frozen memory may still hold a stale copy —
        # fail-stop means nobody can observe it until revival drops it.)
        for i, counter in enumerate(counters):
            hosts = [
                core.name
                for core in cluster.running_cores()
                if cluster.transport.is_up(core.name)
                and core.repository.hosts(counter._fargo_target_id)
            ]
            assert len(hosts) == 1 and hosts[0] != "gamma"
            # ...and answers through a reference seated before the crash.
            assert cluster.stub_at("alpha", counter).read() == i * 10 + 2

    def test_unprotected_complets_stay_lost(self):
        """Recovery is opt-in: no checkpoint, no revival."""
        cluster, inject = _rig()
        saved = Counter(40, _core=cluster["alpha"], _at="gamma")
        cluster.checkpoints.protect(saved, CheckpointPolicy(interval=1.0))
        lost = Counter(7, _core=cluster["alpha"], _at="gamma")
        inject.crash_core_at(2.0, "gamma")
        cluster.advance(8.0)
        assert cluster.stub_at("beta", saved).read() == 40
        with pytest.raises(FarGoError):
            cluster.stub_at("beta", lost).read()

    def test_crash_then_revival_reconciles(self):
        """The crashed Core comes back with a stale copy; it is dropped
        and the revived Core's references forward to the winner."""
        cluster, inject = _rig()
        counter = Counter(40, _core=cluster["alpha"], _at="gamma")
        cluster.checkpoints.protect(counter, CheckpointPolicy(interval=1.0))
        counter.increment(by=2)
        cluster.advance(1.5)  # interval pass captures 42
        inject.crash_core_at(2.0, "gamma")
        inject.revive_core_at(10.0, "gamma")
        cluster.advance(14.0)
        hosts = [
            core.name
            for core in cluster.running_cores()
            if core.repository.hosts(counter._fargo_target_id)
        ]
        assert len(hosts) == 1 and hosts[0] != "gamma"
        # All three Cores resolve the identity to the same revival.
        values = {
            cluster.stub_at(name, counter).read()
            for name in ("alpha", "beta", "gamma")
        }
        assert values == {42}


class TestScriptedFailover:
    SCRIPT = "on coreFailed firedby $c do call failover() end"

    def test_layout_script_drives_recovery(self):
        cluster, inject = _rig(auto_recover=False)
        engine = ScriptEngine(cluster, home="alpha")
        engine.run(self.SCRIPT)
        counter = Counter(40, _core=cluster["alpha"], _at="gamma")
        cluster.checkpoints.protect(
            counter, CheckpointPolicy(interval=1.0, on_arrival=True)
        )
        counter.increment(by=2)
        inject.crash_core_at(2.0, "gamma")
        cluster.advance(8.0)
        assert any("failover of gamma" in line for line in engine.log)
        report = cluster.recovery.reports[0]
        assert report.failed == "gamma" and report.restored
        assert cluster.stub_at("beta", counter).read() == 42

    def test_script_failover_is_idempotent(self):
        """Rules on several survivors fire; one recovery pass runs."""
        cluster, inject = _rig(auto_recover=False)
        engines = [
            ScriptEngine(cluster, home=name) for name in ("alpha", "beta")
        ]
        for engine in engines:
            engine.run(self.SCRIPT)
        counter = Counter(40, _core=cluster["alpha"], _at="gamma")
        cluster.checkpoints.protect(counter, CheckpointPolicy(interval=1.0))
        counter.increment(by=2)
        cluster.advance(1.5)
        inject.crash_core_at(2.0, "gamma")
        cluster.advance(8.0)
        assert len(cluster.recovery.reports) == 1
        assert sum(
            "already handled" in line
            for engine in engines
            for line in engine.log
        ) >= 1

    def test_script_passes_static_analysis(self):
        from repro.analysis import check_script

        diagnostics = check_script(self.SCRIPT)
        assert [d for d in diagnostics if d.severity == "error"] == []


class TestPullGroupRecovery:
    def test_group_restored_together_on_one_survivor(self):
        from repro.complet.relocators import Pull
        from repro.core.core import Core
        from tests.anchors import Holder

        cluster, inject = _rig()
        source = DataSource(64, _core=cluster["alpha"], _at="gamma")
        head = Holder(source, _core=cluster["alpha"], _at="gamma")
        anchor = cluster["gamma"].repository.get(head._fargo_target_id)
        Core.get_meta_ref(anchor.ref).set_relocator(Pull())
        cluster.checkpoints.protect(head, CheckpointPolicy(interval=1.0))
        inject.crash_core_at(2.0, "gamma")
        cluster.advance(8.0)
        destination = cluster.recovery.reports[0].destination
        revived = cluster.stub_at(destination, head)
        # The revived head reaches its pulled member on the same Core.
        member = revived.get_ref()
        assert member.checksum() == DataSource(64, _core=cluster["alpha"]).checksum()
        assert cluster.locate(member) == destination
