"""Tests for ``on timer(...)`` rules (periodic administration extension)."""

import pytest

from repro.errors import ScriptRuntimeError
from repro.script.interpreter import ScriptEngine
from repro.cluster.workload import Counter


@pytest.fixture
def engine(cluster3):
    return ScriptEngine(cluster3, home="alpha")


class TestTimerRules:
    def test_fires_on_interval(self, cluster3, engine):
        engine.run('on timer(5) do log "tick" end')
        cluster3.advance(14.0)
        assert engine.log == ["tick", "tick"]

    def test_interval_expression(self, cluster3, engine):
        engine.run("$period = 2\non timer($period) do log t end")
        cluster3.advance(6.5)
        assert engine.log == ["t", "t", "t"]

    def test_event_bound_in_actions(self, cluster3, engine):
        engine.run("on timer(1) do $e = $event log $e end")
        cluster3.advance(1.0)
        assert "timer@alpha" in engine.log[0]

    def test_requires_interval(self, engine):
        with pytest.raises(ScriptRuntimeError, match="interval"):
            engine.run("on timer do log x end")

    def test_rejects_nonpositive_interval(self, engine):
        with pytest.raises(ScriptRuntimeError, match="positive"):
            engine.run("on timer(0) do log x end")

    def test_stop_cancels_timer(self, cluster3, engine):
        engine.run('on timer(1) do log "tick" end')
        cluster3.advance(2.0)
        engine.stop()
        cluster3.advance(10.0)
        assert engine.log == ["tick", "tick"]

    def test_periodic_rebalancing_policy(self, cluster3, engine):
        """A realistic timer rule: periodically drain a hot Core."""
        stubs = [Counter(i, _core=cluster3["alpha"]) for i in range(4)]
        engine.run(
            "on timer(10) do move completsIn alpha to beta end"
        )
        cluster3.advance(10.5)
        assert cluster3.complets_at("alpha") == []
        assert len(cluster3.complets_at("beta")) == 4
        for index, stub in enumerate(stubs):
            assert stub.read() == index

    def test_timer_with_checkpoint_action(self, cluster3, engine):
        """Timer + user action: scripted periodic checkpoints."""
        from repro.core.persistence import snapshot

        counter = Counter(0, _core=cluster3["alpha"])
        vault = []

        def checkpoint(ctx, stub):
            host = ctx.engine.cluster.core(ctx.engine.cluster.locate(stub))
            vault.append(snapshot(host, stub))

        engine.register_action("checkpoint", checkpoint)
        engine.run("$c = %1\non timer(5) do call checkpoint($c) end", args=(counter,))
        cluster3.advance(16.0)
        assert len(vault) == 3
