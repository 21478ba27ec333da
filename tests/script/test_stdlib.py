"""Tests for the script standard-library actions."""

import pytest

from repro.script.interpreter import ScriptEngine
from repro.cluster.workload import Counter, Echo


@pytest.fixture
def engine(cluster3):
    return ScriptEngine(cluster3, home="alpha")


class TestCollectTrackers:
    def test_collects_after_chain_shortening(self, cluster3, engine):
        counter = Counter(0, _core=cluster3["alpha"])
        cluster3.move_via_host(counter, "beta")
        cluster3.move_via_host(counter, "gamma")
        counter.increment()
        engine.run('on completLoad(0, ">=") listenAt [alpha] do call collectTrackers() end')
        cluster3.advance(1.0)
        assert any("collected" in line for line in engine.log)


class TestShutdownCore:
    def test_cascading_shutdown(self, cluster3, engine):
        """A rule can shut down another Core (cascade drill)."""
        engine.run(
            "on shutdown listenAt [beta] do call shutdownCore(gamma) end"
        )
        cluster3.shutdown_core("beta")
        assert not cluster3["gamma"].is_running


class TestColocate:
    def test_colocate_moves_to_anchor_core(self, cluster3, engine):
        mover = Counter(0, _core=cluster3["alpha"])
        anchor_point = Echo("x", _core=cluster3["gamma"], _at="gamma")
        engine._globals.update({"m": mover, "a": anchor_point})
        engine.run("on completArrived listenAt [beta] do call colocate($m, $a) end")
        trigger = Counter(0, _core=cluster3["alpha"])
        cluster3.move(trigger, "beta")
        assert cluster3.locate(mover) == "gamma"

    def test_colocate_type_checked(self, cluster3, engine):
        from repro.errors import ScriptRuntimeError
        from repro.script.interpreter import ScriptContext
        from repro.script.stdlib import _colocate

        with pytest.raises(ScriptRuntimeError):
            _colocate(ScriptContext(engine, {}, None), "a", "not-a-stub")


class TestBindName:
    def test_binds_at_home_core(self, cluster3, engine):
        echo = Echo("svc", _core=cluster3["beta"], _at="beta")
        engine._globals["e"] = echo
        engine.run('on completArrived do call bindName("service", $e) end')
        trigger = Counter(0, _core=cluster3["alpha"])
        cluster3.move(trigger, "beta")
        assert cluster3["alpha"].lookup("service").ping() == "svc"


class TestFailoverAction:
    @pytest.fixture
    def recovering(self, cluster3):
        from repro.cluster.failures import FailureInjector
        from repro.recovery import CheckpointPolicy

        cluster3.enable_recovery(auto_recover=False)
        counter = Counter(40, _core=cluster3["alpha"], _at="gamma")
        cluster3.checkpoints.protect(
            counter, CheckpointPolicy(interval=1.0, on_arrival=True)
        )
        counter.increment(by=2)
        return counter, FailureInjector(cluster3)

    def test_failover_rule_drives_recovery(self, cluster3, engine, recovering):
        counter, inject = recovering
        engine.run("on coreFailed firedby $c do call failover() end")
        inject.crash_core_at(2.0, "gamma")
        cluster3.advance(8.0)
        assert any("failover of gamma" in line for line in engine.log)
        assert cluster3.recovery.reports[0].failed == "gamma"
        assert cluster3.stub_at("beta", counter).read() == 42

    def test_failover_with_explicit_core(self, cluster3, engine, recovering):
        counter, _ = recovering
        cluster3.advance(1.5)  # interval checkpoint captures 42
        cluster3.transport.set_node_down("gamma")
        engine.run('on timer(1) do call failover("gamma") end')
        cluster3.advance(1.0)
        assert cluster3.recovery.reports
        assert cluster3.stub_at("alpha", counter).read() == 42

    def test_repeated_failover_is_idempotent(self, cluster3, engine, recovering):
        _, inject = recovering
        engine.run("on coreFailed firedby $c do call failover() end")
        inject.crash_core_at(2.0, "gamma")
        cluster3.advance(12.0)  # several detectors keep declaring gamma
        assert len(cluster3.recovery.reports) == 1
        assert any("already handled" in line for line in engine.log)

    def test_restore_action(self, cluster3, engine, recovering):
        counter, _ = recovering
        cluster3.advance(1.5)
        cluster3.transport.set_node_down("gamma")
        short = counter._fargo_target_id.short()
        engine.run(f'on timer(1) do call restore("{short}", "beta") end')
        cluster3.advance(1.0)
        assert any("restored" in line for line in engine.log)
        copies = [c for c in cluster3.complets_at("beta") if "Counter" in c]
        assert len(copies) == 1

    def test_failover_without_recovery_enabled(self, cluster3, engine, caplog):
        """The action fails typed; the engine logs and survives the rule."""
        import logging

        engine.run('on timer(1) do call failover("gamma") end')
        with caplog.at_level(logging.WARNING, logger="repro.script.interpreter"):
            cluster3.advance(1.0)  # must not blow up the clock sweep
        assert "recovery is not enabled" in caplog.text
