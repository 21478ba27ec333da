"""Tests for the typed CoreAdmin facade over the stringly-typed admin op."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.workload import Client, Counter, Echo, Server
from repro.complet.stub import stub_target_id
from repro.core.admin import OPERATIONS, CoreAdmin
from repro.errors import CompletError, CoreUnreachableError, FarGoError


@pytest.fixture
def admin_rig(cluster):
    echo = Echo("x", _core=cluster["alpha"])
    return cluster, echo, cluster.admin("alpha")


class TestFacadeBasics:
    def test_cluster_hands_out_typed_handles(self, admin_rig):
        cluster, _echo, admin = admin_rig
        assert isinstance(admin, CoreAdmin)
        assert isinstance(cluster.admin("beta"), CoreAdmin)

    def test_snapshot_and_complets(self, admin_rig):
        cluster, echo, admin = admin_rig
        snapshot = admin.snapshot()
        assert snapshot["core"] == "alpha"
        assert str(stub_target_id(echo)) in admin.complets()

    def test_remote_target_via_another_core(self, admin_rig):
        cluster, echo, _admin = admin_rig
        remote_view = cluster.admin("alpha", via="beta")
        assert remote_view.complets() == cluster.admin("alpha").complets()

    def test_move_through_facade(self, admin_rig):
        cluster, echo, admin = admin_rig
        admin.move(str(stub_target_id(echo)), "beta")
        assert cluster.locate(echo) == "beta"

    def test_references_and_retype(self, cluster):
        server = Server(_core=cluster["beta"], _at="beta")
        client = Client(server, _core=cluster["alpha"])
        admin = cluster.admin("alpha")
        cid = str(stub_target_id(client))
        refs = admin.references(cid)
        assert any(r["target"] == str(stub_target_id(server)) for r in refs)
        assert admin.retype(cid, str(stub_target_id(server)), "pull")
        refs = admin.references(cid)
        assert any(r["type"] == "pull" for r in refs)

    def test_collect_trackers_returns_count(self, admin_rig):
        _cluster, _echo, admin = admin_rig
        assert isinstance(admin.collect_trackers(), int)

    def test_unknown_operation_still_guarded(self, admin_rig):
        cluster, _echo, admin = admin_rig
        with pytest.raises(FarGoError):
            admin.via.admin(admin.target, "no_such_operation")


class TestMonitoringSurface:
    def test_watch_and_unwatch(self, cluster):
        Echo("x", _core=cluster["alpha"])
        admin = cluster.admin("alpha")
        fired = []
        cluster["alpha"].events.subscribe("completLoad>0.5", fired.append)
        watch_id = admin.watch("completLoad", ">", 0.5, interval=1.0)
        cluster.advance(2.0)
        assert fired
        admin.unwatch(watch_id)

    def test_services_and_profiles(self, admin_rig):
        cluster, _echo, admin = admin_rig
        assert "completLoad" in admin.services()
        assert admin.profile_instant("completLoad") == 1.0
        with cluster["alpha"].profile("completLoad", interval=1.0):
            cluster.advance(2.0)
            history = admin.profile_history("completLoad")
        assert [raw for _, raw in history] == [1.0, 1.0]

    def test_metrics_and_spans_surface(self, admin_rig):
        cluster, echo, admin = admin_rig
        admin.set_tracing(True)
        echo.ping()
        spans = admin.spans()
        assert spans and all("span_id" in s for s in spans)
        metrics = admin.metrics()
        assert metrics["core"] == "alpha"
        assert metrics["counters"]["invocation.executed"] >= 1.0
        admin.clear_spans()
        assert admin.spans() == []
        admin.set_tracing(False)
        echo.ping()
        assert admin.spans() == []


class TestChaos:
    def test_the_chaos_hook_crosses_the_partition_it_heals(self, cluster3):
        cluster3.partition({"alpha"})
        with pytest.raises(CoreUnreachableError):
            cluster3["beta"].admin("alpha", "complets")
        cluster3.admin("alpha", via="beta").chaos("heal_partition")
        assert cluster3["beta"].admin("alpha", "complets") == []

    def test_only_the_chaos_hooks_run(self, cluster):
        with pytest.raises(CompletError, match="not a chaos hook"):
            cluster.admin("alpha", via="beta").chaos("set_node_down", ("alpha",))
        assert cluster.transport.is_up("alpha")


class TestLegacyPathStillWorks:
    def test_stringly_admin_op_unchanged(self, admin_rig):
        """The facade wraps — not replaces — the wire-level admin op."""
        cluster, echo, _admin = admin_rig
        snapshot = cluster["beta"].admin("alpha", "snapshot")
        assert snapshot["core"] == "alpha"


def _contract_rig():
    """A fresh deterministic deployment: a client at alpha that references a server."""
    cluster = Cluster(["alpha", "beta"])
    server = Server(_core=cluster["alpha"])
    client = Client(server, _core=cluster["alpha"])
    client.run(2)
    cid, sid = str(stub_target_id(client)), str(stub_target_id(server))
    return cluster, stub_target_id(client), cid, sid


#: wire name -> (Python name, positional arguments, keyword arguments, the keywords by hand,
#: what must have happened at alpha first); ``CID``/``SID``/``ID``/``DATA`` are filled per rig.
CONTRACT = {
    "snapshot": ("snapshot", (), {}, {}, None),
    "complets": ("complets", (), {}, {}, None),
    "move": ("move", ("CID", "beta"), {}, {"complet": "CID", "destination": "beta"}, None),
    "collect_trackers": ("collect_trackers", (), {}, {}, None),
    "shutdown": ("shutdown", (), {"delay": 0.5}, {"delay": 0.5}, None),
    "references": ("references", ("CID",), {}, {"complet": "CID"}, None),
    "retype": (
        "retype", ("CID", "SID", "pull"), {}, {"complet": "CID", "target": "SID", "type": "pull"},
        None,
    ),
    "watch": (
        "watch", ("completSize", ">", 1.0),
        {"interval": 2.0, "event_name": "big", "complet": "CID"},
        {"service": "completSize", "op": ">", "threshold": 1.0, "interval": 2.0,
         "event_name": "big", "params": {"complet": "CID"}},
        None,
    ),
    "unwatch": ("unwatch", (1,), {}, {"watch_id": 1}, "watch"),
    "services": ("services", (), {}, {}, None),
    "profile_instant": (
        "profile_instant", ("completSize",), {"complet": "CID"},
        {"service": "completSize", "params": {"complet": "CID"}}, None,
    ),
    "profile_start": (
        "profile_start", ("completSize",), {"interval": 2.0, "complet": "CID"},
        {"service": "completSize", "interval": 2.0, "params": {"complet": "CID"}}, None,
    ),
    "profile_history": (
        "profile_history", ("completSize",), {"complet": "CID"},
        {"service": "completSize", "params": {"complet": "CID"}}, "profile",
    ),
    "checkpoint": ("checkpoint", ("CID",), {}, {"complet": "CID"}, None),
    "restore_complet": (
        "restore", ("DATA",), {"keep_identity": False}, {"data": "DATA", "keep_identity": False},
        None,
    ),
    "publish": (
        "publish", ("completRecovered",), {"complet": "CID"},
        {"event": "completRecovered", "data": {"complet": "CID"}}, None,
    ),
    "detector": ("detector_state", (), {}, {}, "recovery"),
    "supervisor": ("supervisor_state", (), {}, {}, None),
    "hosted_trackers": ("hosted_trackers", (), {}, {}, None),
    "hosted_tracker": ("hosted_tracker", ("ID",), {}, {"complet": "ID"}, None),
    "add_peer": (
        "add_peer", ("gamma", ("127.0.0.1", 9)), {}, {"peer": "gamma", "address": ("127.0.0.1", 9)},
        None,
    ),
    "repair_trackers": (
        "repair_trackers", ("gamma", {}), {}, {"failed": "gamma", "relocated": {}}, None,
    ),
    "forwarding_to": ("forwarding_to", ("beta",), {}, {"core": "beta"}, None),
    "locator_forget": ("locator_forget", ("gamma",), {}, {"core": "gamma"}, None),
    "reconcile": ("reconcile", ({},), {}, {"homes": {}}, None),
    "repair_revived": ("repair_revived", ({},), {}, {"hosted": {}}, None),
    "chaos": (
        "chaos", ("set_link", ("alpha", "beta")), {"latency": 0.5},
        {"hook": "set_link", "args": ("alpha", "beta"), "params": {"latency": 0.5}}, None,
    ),
    "metrics": ("metrics", (), {}, {}, None),
    "store": ("store", (), {}, {}, None),
    "spans": ("spans", (), {}, {}, "traced"),
    "set_tracing": ("set_tracing", (True,), {}, {"enabled": True}, None),
    "clear_spans": ("clear_spans", (), {}, {}, "traced"),
}


class TestWireContract:
    """One table: the typed call and ``Core.admin`` by hand are the same operation."""

    def test_every_declared_operation_is_covered(self):
        assert set(CONTRACT) == set(OPERATIONS)
        for wire, (python, *_rest) in CONTRACT.items():
            assert getattr(CoreAdmin, python).__name__ == wire

    @pytest.mark.parametrize("wire", sorted(CONTRACT))
    def test_typed_and_by_hand_agree_from_another_core(self, wire):
        python, args, kwargs, keywords, before = CONTRACT[wire]

        def outcome(by_hand: bool):
            cluster, complet_id, cid, sid = _contract_rig()
            local = cluster.admin("alpha")
            if before == "watch":
                local.watch("completLoad", ">", 0.5)
            elif before == "profile":
                local.profile_start("completSize", complet=cid)
                cluster.advance(3.0)
            elif before == "recovery":
                cluster.enable_recovery()
                cluster.advance(2.0)
            elif before == "traced":
                local.set_tracing(True)
                Echo("t", _core=cluster["alpha"]).ping()
            filled = {"CID": cid, "SID": sid, "ID": complet_id, "DATA": local.checkpoint(cid)}

            def fill(value):
                if isinstance(value, dict):
                    return {key: fill(item) for key, item in value.items()}
                return filled.get(value, value) if isinstance(value, str) else value

            try:
                if by_hand:
                    return cluster["beta"].admin("alpha", wire, **fill(keywords))
                remote = cluster.admin("alpha", via="beta")
                return getattr(remote, python)(*map(fill, args), **fill(kwargs))
            except FarGoError as exc:
                return type(exc), str(exc)

        assert outcome(by_hand=True) == outcome(by_hand=False)

    def test_the_forms_the_wall_clock_benchmark_sends(self):
        """``benchmarks/realpath/sut.py``: these names, these keywords."""
        cluster, _complet_id, cid, sid = _contract_rig()
        beta = cluster["beta"]
        assert cid in beta.admin("alpha", "complets")
        assert beta.admin("alpha", "retype", complet=cid, target=sid, type="pull") is True
        assert beta.admin("alpha", "references", complet=cid)[0]["type"] == "pull"
        beta.admin("alpha", "move", complet=cid, destination="beta")
        assert {cid, sid} <= set(beta.admin("beta", "complets"))  # pulled along

    @pytest.mark.tcp
    def test_an_undeclared_name_from_the_wire_runs_nothing(self):
        cluster = Cluster(["alpha", "beta"], transport="tcp")
        try:
            Echo("x", _core=cluster["alpha"])
            before = cluster.admin("alpha").snapshot()
            for name in ("run", "dispatch", "_hosted", "__init__", "via", "no_such_operation"):
                with pytest.raises(CompletError, match="unknown admin operation"):
                    cluster["beta"].admin("alpha", name)
                with pytest.raises(CompletError, match="unknown admin operation"):
                    cluster["beta"].admin("alpha", name, complet="alpha/c1:Echo")
            assert cluster["alpha"].is_running
            assert cluster.admin("alpha").snapshot() == before
            assert cluster["beta"].admin("alpha", "complets") == ["alpha/c1:Echo"]
        finally:
            cluster.close()
