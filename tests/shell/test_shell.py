"""Tests for the FarGo administration shell."""

import pytest

from repro.shell.shell import FarGoShell, _parse_params
from repro.cluster.workload import Client, Counter, Echo, Server
from tests.anchors import Holder


@pytest.fixture
def shell(cluster3):
    return FarGoShell(cluster3, home="alpha")


class TestBasicCommands:
    def test_cores(self, cluster3, shell):
        out = shell.execute("cores")
        assert "alpha" in out and "beta" in out and "gamma" in out
        assert "up" in out

    def test_cores_shows_down(self, cluster3, shell):
        cluster3.shutdown_core("gamma")
        assert "down" in shell.execute("cores")

    def test_complets_lists_all(self, cluster3, shell):
        Echo("x", _core=cluster3["alpha"])
        Echo("y", _core=cluster3["beta"], _at="beta")
        out = shell.execute("complets")
        assert "alpha/c1:Echo" in out
        assert "beta/c1:Echo" in out

    def test_complets_filtered_by_core(self, cluster3, shell):
        Echo("x", _core=cluster3["alpha"])
        out = shell.execute("complets beta")
        assert "alpha" not in out

    def test_empty_complets(self, shell):
        assert shell.execute("complets") == "(no complets)"

    def test_layout_renders(self, cluster3, shell):
        Echo("x", _core=cluster3["alpha"])
        out = shell.execute("layout")
        assert "FarGo layout" in out
        assert "core alpha" in out

    def test_help(self, shell):
        out = shell.execute("help")
        assert "move" in out and "script" in out

    def test_empty_line(self, shell):
        assert shell.execute("   ") == ""

    def test_unknown_command(self, shell):
        assert "unknown command" in shell.execute("frobnicate")

    def test_bad_arguments_reported(self, shell):
        assert "error" in shell.execute("move onlyone")


class TestManipulation:
    def test_move(self, cluster3, shell):
        counter = Counter(0, _core=cluster3["alpha"])
        cid = str(counter._fargo_target_id)
        out = shell.execute(f"move {cid} beta")
        assert "moved" in out
        assert cluster3.locate(counter) == "beta"

    def test_move_unknown_complet(self, shell):
        assert "error" in shell.execute("move ghost/c9:Ghost beta")

    def test_refs_and_retype(self, cluster3, shell):
        echo = Echo("x", _core=cluster3["alpha"])
        holder = Holder(echo, _core=cluster3["alpha"])
        hid = str(holder._fargo_target_id)
        eid = str(echo._fargo_target_id)
        out = shell.execute(f"refs alpha {hid}")
        assert "link" in out and eid in out
        out = shell.execute(f"retype alpha {hid} {eid} pull")
        assert "pull" in out
        assert "pull" in shell.execute(f"refs alpha {hid}")

    def test_shutdown(self, cluster3, shell):
        out = shell.execute("shutdown gamma")
        assert "shut down" in out
        assert not cluster3["gamma"].is_running

    def test_collect(self, cluster3, shell):
        assert "collected" in shell.execute("collect")

    def test_advance(self, cluster3, shell):
        before = cluster3.now
        out = shell.execute("advance 5")
        assert out.startswith("t = ")
        assert cluster3.now == pytest.approx(before + 5.0)


class TestMonitoringCommands:
    def test_profile(self, cluster3, shell):
        Echo("x", _core=cluster3["beta"], _at="beta")
        out = shell.execute("profile beta completLoad")
        assert "= 1" in out

    def test_profile_with_params(self, cluster3, shell):
        out = shell.execute("profile alpha linkBytes peer=beta")
        assert "linkBytes" in out

    def test_watch(self, cluster3, shell):
        out = shell.execute("watch beta completLoad > 2")
        assert "watch #" in out
        assert cluster3["beta"].monitor.active_watches() == 1

    def test_services(self, cluster3, shell):
        out = shell.execute("services beta")
        assert "completLoad" in out
        assert "invocationRate" in out

    def test_feed_shows_movements(self, cluster3, shell):
        counter = Counter(0, _core=cluster3["alpha"])
        cluster3.move(counter, "beta")
        out = shell.execute("feed")
        assert "completArrived" in out

    def test_feed_empty(self, shell):
        assert shell.execute("feed") == "(no events)"


class TestStoreCommand:
    @pytest.fixture
    def store_cluster(self):
        from repro.cluster.cluster import Cluster
        from repro.cluster.workload import DataSource

        cluster = Cluster(["alpha", "beta"], store="memory")
        source = DataSource(256 * 1024, _core=cluster["alpha"])
        cluster.move(source, "beta")
        yield cluster
        cluster.close()

    def test_store_disabled(self, cluster3, shell):
        assert "disabled" in shell.execute("store")
        assert "disabled" in shell.execute("store beta")

    def test_cluster_wide_view(self, store_cluster):
        shell = FarGoShell(store_cluster, home="alpha")
        out = shell.execute("store")
        assert "memory store:" in out
        assert "client at alpha:" in out and "client at beta:" in out
        assert "offloads=1" in out  # the moved payload went through once

    def test_single_core_view(self, store_cluster):
        shell = FarGoShell(store_cluster, home="alpha")
        out = shell.execute("store beta")
        assert out.startswith("client at beta:")
        assert "resolves=1" in out
        assert "alpha" not in out

    def test_entries_render_with_refcounts(self, store_cluster):
        from repro.store import StoreClient

        # Park an unreleased entry so the listing has a row to show.
        client = StoreClient(store_cluster.store, threshold=1)
        proxy = client.offload(b"held" * 100)
        shell = FarGoShell(store_cluster, home="alpha")
        out = shell.execute("store")
        assert proxy.key.digest[:10] in out
        assert "refs=1" in out

    def test_help_lists_store(self, shell):
        assert "store" in shell.execute("help")


class TestScriptCommand:
    def test_inline_script(self, cluster3, shell):
        out = shell.execute(
            "script on shutdown firedby $core do move completsIn $core to alpha end"
        )
        assert "1 rules" in out
        Echo("x", _core=cluster3["beta"], _at="beta")
        cluster3.shutdown_core("beta")
        assert cluster3.complets_at("alpha")

    def test_script_from_file(self, cluster3, shell, tmp_path):
        path = tmp_path / "layout.fgs"
        path.write_text('on shutdown firedby $core do log $core end')
        out = shell.execute(f"script @{path}")
        assert "1 rules" in out
        cluster3.shutdown_core("beta")
        assert shell.engine.log == ["beta"]

    def test_script_syntax_error_reported(self, shell):
        assert "error" in shell.execute("script on do end")


class TestParamParsing:
    def test_parse_params(self):
        assert _parse_params(["a=1", "b=x"]) == {"a": "1", "b": "x"}

    def test_parse_params_rejects_bare(self):
        with pytest.raises(ValueError):
            _parse_params(["novalue"])


class TestHistoryCommand:
    def test_history_sparkline(self, cluster3, shell):
        Echo("x", _core=cluster3["beta"], _at="beta")
        shell.execute("history beta completLoad")  # starts the profile
        shell.execute("advance 5")
        out = shell.execute("history beta completLoad")
        assert "completLoad@beta" in out
        assert "[1 .. 1]" in out

    def test_history_appears_in_help(self, shell):
        assert "history" in shell.execute("help")


class TestRecoveryCommands:
    @pytest.fixture
    def recovering(self, cluster3):
        cluster3.enable_recovery(auto_recover=False)
        return FarGoShell(cluster3, home="alpha")

    def test_snapshot_and_restore(self, cluster3, recovering):
        counter = Counter(40, _core=cluster3["alpha"], _at="beta")
        counter.increment(by=2)
        complet_id = str(counter._fargo_target_id)
        out = recovering.execute(f"snapshot {complet_id}")
        assert "taken at beta" in out and "bytes" in out
        out = recovering.execute(f"restore {complet_id} gamma")
        assert "restored" in out and "at gamma" in out
        copies = [c for c in cluster3.complets_at("gamma") if "Counter" in c]
        assert len(copies) == 1

    def test_restore_keep_identity_after_crash(self, cluster3, recovering):
        counter = Counter(40, _core=cluster3["alpha"], _at="beta")
        counter.increment(by=2)
        complet_id = str(counter._fargo_target_id)
        recovering.execute(f"snapshot {complet_id}")
        cluster3.transport.set_node_down("beta")
        out = recovering.execute(f"restore {complet_id} alpha keep")
        assert f"restored {complet_id} as {complet_id}" in out
        assert counter.read() == 42  # the old reference works again

    def test_restore_keep_refused_while_alive(self, cluster3, recovering):
        counter = Counter(0, _core=cluster3["alpha"])
        complet_id = str(counter._fargo_target_id)
        recovering.execute(f"snapshot {complet_id}")
        assert "error" in recovering.execute(f"restore {complet_id} keep")

    def test_snapshot_unknown_complet(self, recovering):
        out = recovering.execute("snapshot nope/c9")
        assert "error" in out or "no running Core hosts" in out

    def test_restore_without_snapshot(self, recovering):
        assert "no snapshot held" in recovering.execute("restore ghost/c9")

    def test_failures_shows_detector_verdicts(self, cluster3, recovering):
        cluster3.advance(1.0)  # first heartbeat round populates the view
        out = recovering.execute("failures")
        assert "detector at alpha:" in out
        assert "beta" in out and "alive" in out

    def test_failures_without_recovery(self, shell):
        assert shell.execute("failures") == "(no failure activity)"

    def test_failures_shows_injections_and_recovery(self, cluster3, recovering):
        from repro.cluster.failures import FailureInjector
        from repro.recovery import CheckpointPolicy

        inject = FailureInjector(cluster3)
        recovering.attach_injector(inject)
        counter = Counter(40, _core=cluster3["alpha"], _at="gamma")
        cluster3.checkpoints.protect(counter, CheckpointPolicy(interval=1.0))
        inject.crash_core_at(2.0, "gamma")
        cluster3.advance(6.0)
        cluster3.recovery.recover_core("gamma")
        out = recovering.execute("failures")
        assert "injections:" in out
        assert "core gamma crashes" in out
        assert "detector at alpha:" in out
        assert "recovery:" in out

    def test_recovery_commands_in_help(self, shell):
        out = shell.execute("help")
        assert "snapshot" in out and "restore" in out and "failures" in out


class TestSupervisorCommand:
    def test_no_supervisor_attached(self, shell):
        assert shell.execute("supervisor") == "(no supervisor attached)"

    def test_renders_children_and_policy(self, cluster3, shell):
        class FakeSupervisor:
            def state(self):
                return {
                    "running": True,
                    "children": {
                        "beta": {
                            "status": "running",
                            "restarts": 2,
                            "recent_restarts": 1,
                            "streak": 0,
                            "last_exit": "signal SIGKILL",
                            "last_verdict": "alive",
                            "last_mttr": 0.42,
                            "next_backoff": 0.2,
                        },
                        "gamma": {
                            "status": "failed",
                            "restarts": 3,
                            "recent_restarts": 3,
                            "streak": 3,
                            "last_exit": "exit 1",
                            "last_verdict": "dead",
                            "last_mttr": None,
                            "next_backoff": 0.8,
                        },
                    },
                    "policy": {
                        "max_restarts": 3,
                        "window": 60.0,
                        "healthy_after": 5.0,
                    },
                }

        cluster3["alpha"].supervisor = FakeSupervisor()
        out = shell.execute("supervisor")
        assert "supervisor at alpha" in out
        assert "budget 3/60s" in out
        assert "restarts 2" in out
        assert "signal SIGKILL" in out
        assert "mttr 0.42s" in out
        assert "gamma        failed" in out and "last exit: exit 1" in out

    def test_explicit_core_argument(self, cluster3, shell):
        out = shell.execute("supervisor beta")
        assert out == "(no supervisor attached)"

    def test_supervisor_in_help(self, shell):
        assert "supervisor" in shell.execute("help")
