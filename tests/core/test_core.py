"""Tests for the Core API surface: instantiation, admin, shutdown."""

import pytest

from repro.errors import CompletError, CoreUnreachableError, SerializationError
from repro.cluster.workload import Counter, Counter_, Echo, Echo_


class TestInstantiation:
    def test_instantiate_local(self, cluster):
        stub = cluster["alpha"].instantiate(Echo_, "tag")
        assert stub.ping() == "tag"
        assert cluster.locate(stub) == "alpha"

    def test_instantiate_remote(self, cluster):
        stub = cluster["alpha"].instantiate(Echo_, "far", at="beta")
        assert cluster.locate(stub) == "beta"
        assert stub.ping() == "far"

    def test_remote_instantiation_kwargs(self, cluster):
        stub = cluster["alpha"].instantiate(Counter_, start=7, at="beta")
        assert stub.read() == 7

    def test_a_corrupt_instantiate_reply_is_a_typed_error(self, cluster, monkeypatch):
        monkeypatch.setattr(cluster["alpha"].peer, "request_raw", lambda *args: b"not a pickle")
        with pytest.raises(SerializationError):
            cluster["alpha"].instantiate(Echo_, "far", at="beta")


class TestAdminSurface:
    def test_snapshot(self, cluster):
        cluster["alpha"].instantiate(Echo_, "x")
        snap = cluster["alpha"].snapshot()
        assert snap["core"] == "alpha"
        assert len(snap["complets"]) == 1
        assert snap["complets"][0]["type"] == "Echo"

    def test_remote_snapshot(self, cluster):
        cluster["beta"].instantiate(Echo_, "x")
        snap = cluster["alpha"].admin("beta", "snapshot")
        assert snap["core"] == "beta"
        assert len(snap["complets"]) == 1

    def test_admin_complets(self, cluster):
        stub = cluster["alpha"].instantiate(Echo_, "x")
        listed = cluster["beta"].admin("alpha", "complets")
        assert listed == [str(stub._fargo_target_id)]

    def test_admin_move(self, cluster):
        stub = cluster["alpha"].instantiate(Counter_, 0)
        cluster["beta"].admin(
            "alpha", "move", complet=str(stub._fargo_target_id), destination="beta"
        )
        assert cluster.locate(stub) == "beta"

    def test_admin_move_unknown(self, cluster):
        with pytest.raises(CompletError):
            cluster["beta"].admin("alpha", "move", complet="ghost", destination="beta")

    def test_admin_references_and_retype(self, cluster):
        from tests.anchors import Holder_

        echo = cluster["alpha"].instantiate(Echo_, "e")
        holder = cluster["alpha"].instantiate(Holder_, echo)
        hid = str(holder._fargo_target_id)
        rows = cluster["beta"].admin("alpha", "references", complet=hid)
        assert len(rows) == 1
        assert rows[0]["type"] == "link"
        cluster["beta"].admin(
            "alpha", "retype", complet=hid, target=rows[0]["target"], type="pull"
        )
        rows = cluster["beta"].admin("alpha", "references", complet=hid)
        assert rows[0]["type"] == "pull"

    def test_admin_retype_unknown_target(self, cluster):
        echo = cluster["alpha"].instantiate(Echo_, "e")
        with pytest.raises(CompletError):
            cluster["alpha"].admin(
                "alpha",
                "retype",
                complet=str(echo._fargo_target_id),
                target="ghost",
                type="pull",
            )

    def test_admin_services_and_profile(self, cluster):
        services = cluster["alpha"].admin("beta", "services")
        assert "completLoad" in services
        value = cluster["alpha"].admin(
            "beta", "profile_instant", service="completLoad"
        )
        assert value == 0.0

    def test_admin_unknown_op(self, cluster):
        with pytest.raises(CompletError):
            cluster["alpha"].admin("beta", "fry")

    def test_admin_watch_and_unwatch(self, cluster):
        watch_id = cluster["alpha"].admin(
            "beta", "watch", service="completLoad", op=">", threshold=0.5
        )
        assert cluster["beta"].monitor.active_watches() == 1
        cluster["alpha"].admin("beta", "unwatch", watch_id=watch_id)
        assert cluster["beta"].monitor.active_watches() == 0


class TestShutdown:
    def test_shutdown_leaves_network(self, cluster):
        cluster["beta"].shutdown()
        with pytest.raises(CoreUnreachableError):
            cluster["alpha"].admin("beta", "snapshot")

    def test_shutdown_stops_profiling(self, cluster):
        cluster["alpha"].profile("completLoad")
        cluster["alpha"].shutdown()
        assert cluster["alpha"].profiler.active_profiles() == 0
        assert cluster.scheduler.pending == 0

    def test_shutdown_listener_can_rescue_complets(self, cluster):
        """The reliability pattern: evacuate on coreShutdown."""
        stub = cluster["alpha"].instantiate(Counter_, 5)

        def rescue(event):
            anchor = cluster["alpha"].repository.get(stub._fargo_target_id)
            cluster["alpha"].move(anchor, "beta")

        cluster["alpha"].events.subscribe("coreShutdown", rescue)
        cluster["alpha"].shutdown()
        assert len(cluster["beta"].repository) == 1
        rescued = cluster.stub_at("beta", stub)
        assert rescued.read() == 5

    def test_repr(self, cluster):
        assert "alpha" in repr(cluster["alpha"])
        cluster["alpha"].shutdown()
        assert "down" in repr(cluster["alpha"])


class TestDeadCoreGuards:
    def test_instantiate_on_dead_core_rejected(self, cluster):
        from repro.errors import CoreDownError

        cluster["alpha"].shutdown()
        with pytest.raises(CoreDownError):
            cluster["alpha"].instantiate(Echo_, "x")

    def test_move_via_dead_core_rejected(self, cluster):
        from repro.errors import CoreDownError

        counter = cluster["alpha"].instantiate(Counter_, 0)
        cluster["alpha"].shutdown()
        with pytest.raises(CoreDownError):
            cluster["alpha"].move(counter, "beta")
