"""Tests for the script interpreter: rule activation and actions."""

import pytest

from repro.errors import ScriptRuntimeError, UnknownActionError
from repro.script.interpreter import ScriptEngine
from repro.cluster.workload import Client, Counter, Echo, Server


@pytest.fixture
def engine3(cluster3):
    return ScriptEngine(cluster3, home="alpha")


class TestBindings:
    def test_top_level_assignments(self, engine3):
        engine3.run('$a = "x"\n$b = 3\n$l = [p, q]')
        assert engine3._globals == {"a": "x", "b": 3, "l": ["p", "q"]}

    def test_positional_args(self, engine3):
        engine3.run("$first = %1\n$second = %2", args=("one", ["two", 2]))
        assert engine3._globals["first"] == "one"
        assert engine3._globals["second"] == ["two", 2]

    def test_missing_arg_rejected(self, engine3):
        with pytest.raises(ScriptRuntimeError, match="%2"):
            engine3.run("$x = %2", args=("only-one",))

    def test_undefined_variable_rejected(self, engine3):
        with pytest.raises(ScriptRuntimeError, match="undefined"):
            engine3.run("$x = $ghost")

    def test_index_out_of_range(self, engine3):
        with pytest.raises(ScriptRuntimeError, match="index"):
            engine3.run("$l = [a]\n$x = $l[5]")


class TestCoreEventRules:
    def test_shutdown_rule_moves_complets(self, cluster3, engine3):
        echo = Echo("x", _core=cluster3["beta"], _at="beta")
        engine3.run(
            "on shutdown firedby $core listenAt [beta] do"
            " move completsIn $core to gamma end"
        )
        cluster3.shutdown_core("beta")
        assert cluster3.complets_at("gamma")

    def test_fired_by_binding(self, cluster3, engine3):
        engine3.run('on shutdown firedby $core do log $core end')
        cluster3.shutdown_core("beta")
        assert engine3.log == ["beta"]

    def test_listen_at_filters(self, cluster3, engine3):
        engine3.run('on shutdown listenAt [beta] do log "saw-it" end')
        cluster3.shutdown_core("gamma")
        assert engine3.log == []
        cluster3.shutdown_core("beta")
        assert engine3.log == ["saw-it"]

    def test_default_listens_everywhere(self, cluster3, engine3):
        engine3.run('on completArrived do log "arrived" end')
        counter = Counter(0, _core=cluster3["beta"], _at="beta")
        cluster3.move(counter, "gamma")
        assert engine3.log == ["arrived"]

    def test_rule_counts_firings(self, cluster3, engine3):
        engine3.run('on completDeparted do log "gone" end')
        counter = Counter(0, _core=cluster3["alpha"])
        cluster3.move(counter, "beta")
        cluster3.move(counter, "gamma")
        assert engine3.active_rules[0].fired_count == 2


class TestProfileRules:
    def test_method_invoke_rate_rule(self, cluster3, engine3):
        server = Server(_core=cluster3["beta"], _at="beta")
        client = Client(server, _core=cluster3["alpha"])
        engine3.run(
            "$c = %1\n$s = %2\n"
            "on methodInvokeRate(3) from $c to $s do move $c to coreOf $s end",
            args=(client, server),
        )
        for _ in range(4):
            client.run(15)
            cluster3.advance(1.0)
        assert cluster3.locate(client) == "beta"

    def test_threshold_not_reached_no_move(self, cluster3, engine3):
        server = Server(_core=cluster3["beta"], _at="beta")
        client = Client(server, _core=cluster3["alpha"])
        engine3.run(
            "$c = %1\n$s = %2\n"
            "on methodInvokeRate(50) from $c to $s do move $c to coreOf $s end",
            args=(client, server),
        )
        for _ in range(4):
            client.run(5)
            cluster3.advance(1.0)
        assert cluster3.locate(client) == "alpha"

    def test_custom_operator(self, cluster3, engine3):
        engine3.run(
            'on completLoad(1, "<") listenAt [beta] do log "idle" end'
        )
        cluster3.advance(1.5)
        assert engine3.log == ["idle"]

    def test_profile_rule_needs_threshold(self, cluster3, engine3):
        with pytest.raises(ScriptRuntimeError, match="threshold"):
            engine3.run("on methodInvokeRate from $a to $b do end")

    def test_unknown_event_rejected(self, cluster3, engine3):
        with pytest.raises(ScriptRuntimeError, match="unknown event"):
            engine3.run("on quantumFlux(3) do end")

    def test_rate_rule_requires_from_to(self, cluster3, engine3):
        with pytest.raises(ScriptRuntimeError, match="from"):
            engine3.run("on methodInvokeRate(3) do end")

    def test_every_clause_sets_interval(self, cluster3, engine3):
        engine3.run(
            'on completLoad(0, ">=") listenAt [beta] every 5 do log t end'
        )
        cluster3.advance(4.0)
        assert engine3.log == []
        cluster3.advance(1.5)
        assert engine3.log == ["t"]

    def test_watch_follows_migrating_source(self, cluster3, engine3):
        """§4.2: the rule keeps working after the watched complet moves."""
        server = Server(_core=cluster3["gamma"], _at="gamma")
        client = Client(server, _core=cluster3["alpha"])
        engine3.run(
            "$c = %1\n$s = %2\non methodInvokeRate(3) from $c to $s do log moved end",
            args=(client, server),
        )
        # Move the client before any threshold crossing.
        cluster3.move(client, "beta")
        for _ in range(4):
            client.run(15)
            cluster3.advance(1.0)
        assert "moved" in engine3.log


class TestActions:
    def test_retype_action(self, cluster3, engine3):
        from repro.core.core import Core

        echo = Echo("x", _core=cluster3["alpha"])
        engine3.run(
            "$r = %1\non completDeparted listenAt [beta] do retype $r to pull end", (echo,)
        )
        probe = Counter(0, _core=cluster3["beta"], _at="beta")
        cluster3.move(probe, "gamma")
        assert Core.get_meta_ref(echo).type_name == "pull"

    def test_call_registered_action(self, cluster3, engine3):
        calls = []
        engine3.register_action("record", lambda ctx, *args: calls.append(args))
        engine3.run('on completArrived do call record("a", 3) end')
        counter = Counter(0, _core=cluster3["alpha"])
        cluster3.move(counter, "beta")
        assert calls == [("a", 3)]

    def test_call_autoloaded_action(self, cluster3, engine3):
        engine3.run(
            'on completArrived do call tests.script.helpers:record_event($event) end'
        )
        counter = Counter(0, _core=cluster3["alpha"])
        cluster3.move(counter, "beta")
        from tests.script.helpers import RECORDED

        assert RECORDED and RECORDED[-1].name == "completArrived"

    def test_unknown_action_rejected(self, engine3):
        with pytest.raises(UnknownActionError):
            engine3._resolve_action("vanish")

    def test_unloadable_action_rejected(self, engine3):
        with pytest.raises(UnknownActionError):
            engine3._resolve_action("no.such.module:fn")

    def test_assignment_action_scoped_to_firing(self, cluster3, engine3):
        engine3.run('on completArrived do $tmp = x log $tmp end')
        counter = Counter(0, _core=cluster3["alpha"])
        cluster3.move(counter, "beta")
        assert engine3.log == ["x"]
        assert "tmp" not in engine3._globals

    def test_failing_action_isolated(self, cluster3, engine3):
        engine3.run(
            "on completArrived do move $ghost to beta end"
        )
        counter = Counter(0, _core=cluster3["alpha"])
        cluster3.move(counter, "beta")  # rule fails internally, move succeeds
        assert cluster3.locate(counter) == "beta"


class TestScriptArguments:
    def test_each_rule_reads_its_own_scripts_arguments(self, cluster3, engine3):
        counter = Counter(0, _core=cluster3["alpha"], _at="beta")
        engine3.run('on completArrived listenAt [gamma] do move %1 to "alpha" end', args=(counter,))
        engine3.run('on timer(100) do log "tick" end')
        cluster3.move(Counter(0, _core=cluster3["alpha"]), "gamma")
        assert cluster3.locate(counter) == "alpha"

    def test_installed_records_each_scripts_arguments(self, engine3):
        engine3.run("$first = %1", args=("one",))
        engine3.run('$second = "two"')
        assert [(label, args) for _, label, args in engine3.installed] == [
            ("<alpha:script#1>", ("one",)),
            ("<alpha:script#2>", ()),
        ]


class TestLifecycle:
    def test_stop_deactivates_rules(self, cluster3, engine3):
        engine3.run('on completArrived do log "seen" end')
        engine3.stop()
        counter = Counter(0, _core=cluster3["alpha"])
        cluster3.move(counter, "beta")
        assert engine3.log == []

    def test_stop_removes_watches(self, cluster3, engine3):
        engine3.run('on completLoad(5) listenAt [beta] do log x end')
        assert cluster3["beta"].monitor.active_watches() == 1
        engine3.stop()
        assert cluster3["beta"].monitor.active_watches() == 0
