"""The abortable move protocol, hop-bounded forwarding, and re-location."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.failures import FailureInjector
from repro.cluster.workload import Counter, Echo
from repro.core.core import Core
from repro.core.events import CALL_RETRIED, MOVE_FAILED
from repro.core.locator import LocationRegistry
from repro.core.movement import MAX_FORWARD_HOPS
from repro.errors import (
    CompletError,
    CoreDownError,
    CoreUnreachableError,
    DeadlineExceededError,
)
from repro.net.retry import RetryPolicy

from tests.anchors import Holder, Probe


class TestAbortableMoves:
    def test_abort_runs_the_abort_departure_hook(self):
        cluster = Cluster(["a", "b"])
        probe = Probe(_core=cluster["a"])
        cluster.partition({"a"}, {"b"})
        with pytest.raises(CoreUnreachableError):
            cluster.move(probe, "b")
        history = probe.get_history()
        assert "pre_departure:b" in history
        assert "abort_departure:b" in history
        assert "post_departure" not in history

    def test_aborted_complet_stays_hosted_and_invocable(self):
        cluster = Cluster(["a", "b"])
        probe = Probe(_core=cluster["a"])
        cluster.partition({"a"}, {"b"})
        with pytest.raises(CoreUnreachableError):
            cluster.move(probe, "b")
        assert cluster.locate(probe) == "a"
        probe.note("after-abort")
        assert "after-abort" in probe.get_history()
        assert cluster["a"].movement.moves_aborted == 1
        assert cluster["a"].movement.moves_sent == 0

    def test_abort_publishes_move_failed(self):
        cluster = Cluster(["a", "b"])
        probe = Probe(_core=cluster["a"])
        seen = []
        cluster["a"].events.subscribe(MOVE_FAILED, seen.append)
        cluster.partition({"a"}, {"b"})
        with pytest.raises(CoreUnreachableError):
            cluster.move(probe, "b")
        assert len(seen) == 1
        event = seen[0]
        assert event.data["complet"] == str(probe._fargo_target_id)
        assert event.data["destination"] == "b"
        assert event.data["reason"] == "CoreUnreachableError"

    def test_whole_group_aborts_together(self):
        """A pulled group member gets the same abort treatment as the root."""
        cluster = Cluster(["a", "b"])
        probe = Probe(_core=cluster["a"])
        holder = Holder(probe, _core=cluster["a"])
        cluster["a"].admin(
            "a",
            "retype",
            complet=str(holder._fargo_target_id),
            target=str(probe._fargo_target_id),
            type="pull",
        )
        seen = []
        cluster["a"].events.subscribe(MOVE_FAILED, seen.append)
        cluster.partition({"a"}, {"b"})
        with pytest.raises(CoreUnreachableError):
            cluster.move(holder, "b")
        assert set(seen[0].data["group"]) == {
            str(holder._fargo_target_id),
            str(probe._fargo_target_id),
        }
        assert "abort_departure:b" in probe.get_history()
        assert cluster.locate(holder) == "a"
        assert cluster.locate(probe) == "a"

    def test_retry_after_heal_succeeds(self):
        cluster = Cluster(["a", "b"])
        probe = Probe(_core=cluster["a"])
        cluster.partition({"a"}, {"b"})
        with pytest.raises(CoreUnreachableError):
            cluster.move(probe, "b")
        cluster.heal_partition()
        cluster.move(probe, "b")
        assert cluster.locate(probe) == "b"
        history = probe.get_history()
        assert history.index("abort_departure:b") < history.index("post_arrival:b")


class TestMovesUnderRetryPolicy:
    def test_move_rides_through_a_transient_outage(self):
        cluster = Cluster(
            ["a", "b"], retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5)
        )
        inject = FailureInjector(cluster)
        counter = Counter(41, _core=cluster["a"])
        counter.increment()
        cluster.set_link("a", "b", up=False)
        inject.restore_link_at(0.4, "a", "b")
        cluster.move(counter, "b")  # first try fails, the 0.5s retry lands
        assert cluster.locate(counter) == "b"
        assert counter.read() == 42  # state travelled exactly once
        assert cluster["a"].movement.moves_aborted == 0

    def test_retries_are_observable_as_events(self):
        cluster = Cluster(
            ["a", "b"], retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5)
        )
        inject = FailureInjector(cluster)
        counter = Counter(0, _core=cluster["a"])
        seen = []
        cluster["a"].events.subscribe(CALL_RETRIED, seen.append)
        cluster.set_link("a", "b", up=False)
        inject.restore_link_at(0.4, "a", "b")
        cluster.move(counter, "b")
        assert seen, "the retry should have published a callRetried event"
        assert seen[0].data["destination"] == "b"
        assert seen[0].data["attempt"] == 1

    def test_exhausted_retries_still_abort_cleanly(self):
        cluster = Cluster(
            ["a", "b"], retry_policy=RetryPolicy(max_attempts=2, base_delay=0.25)
        )
        counter = Counter(7, _core=cluster["a"])
        cluster.set_link("a", "b", up=False)  # and it stays down
        with pytest.raises(CoreUnreachableError):
            cluster.move(counter, "b")
        assert cluster.locate(counter) == "a"
        assert counter.read() == 7
        assert cluster["a"].movement.moves_aborted == 1


class TestMoveDeadlineExemption:
    def test_slow_move_commits_instead_of_split_brain(self):
        """A cluster-wide rpc timeout must never abort a committed move.

        The MOVE_COMPLET round trip blows the deadline, but by the time
        the reply is back the destination has installed the group — so
        the sender must commit too, not abort into a state where the
        same complet is live on both Cores.
        """
        cluster = Cluster(["a", "b"], rpc_timeout=1.0)
        echo = Echo("x", _core=cluster["a"])
        cluster.set_link("a", "b", latency=2.0)
        cluster.move(echo, "b")  # slower than the deadline, still commits
        cluster.set_link("a", "b", latency=0.01)  # fast again for the probes
        assert cluster.locate(echo) == "b"
        assert not cluster["a"].repository.hosts(echo._fargo_target_id)
        assert cluster["b"].repository.hosts(echo._fargo_target_id)
        assert cluster["a"].movement.moves_aborted == 0
        assert cluster["a"].movement.moves_sent == 1
        assert cluster["b"].movement.moves_received == 1

    def test_other_traffic_still_honours_the_deadline(self):
        cluster = Cluster(["a", "b"], rpc_timeout=1.0)
        echo = Echo("x", _core=cluster["a"])
        cluster.move(echo, "b")
        cluster.set_link("a", "b", latency=2.0)
        with pytest.raises(DeadlineExceededError):
            echo.ping()


class TestForwardHopBound:
    def test_stale_tracker_cycle_is_detected(self):
        """A stale local tracker would bounce MOVE_REQUESTs forever."""
        cluster = Cluster(["a", "b", "c"])
        echo = Echo("x", _core=cluster["a"])
        cluster.move(echo, "b")
        # Corrupt Core b: drop the complet but leave its tracker claiming
        # the complet is local.  Requests routed there now chase a ghost.
        cluster["b"].repository.release(echo._fargo_target_id)
        with pytest.raises(CompletError, match="stale-tracker cycle"):
            cluster["a"].move(echo, "c")

    def test_bound_is_inclusive(self):
        """A request that already took MAX_FORWARD_HOPS forwards is rejected."""
        cluster = Cluster(["a", "b"])
        echo = Echo("x", _core=cluster["a"])
        body = (echo._fargo_target_id, "b", None, None, MAX_FORWARD_HOPS, None)
        with pytest.raises(CompletError, match="stale-tracker cycle"):
            cluster["a"].movement._handle_move_request("b", body)

    def test_last_permitted_hop_still_moves(self):
        cluster = Cluster(["a", "b"])
        echo = Echo("x", _core=cluster["a"])
        body = (echo._fargo_target_id, "b", None, None, MAX_FORWARD_HOPS - 1, None)
        cluster["a"].movement._handle_move_request("b", body)
        assert cluster.locate(echo) == "b"


class TestInvocationRelocation:
    def _scattered_cluster(self, **kwargs):
        """Echo born at a, moved a->b->c; a's tracker still points at b."""
        cluster = Cluster(["a", "b", "c"], **kwargs)
        echo = Echo("x", _core=cluster["a"])
        cluster.move(echo, "b")
        cluster.move_via_host(echo, "c")  # leaves a's tracker on the b hop
        return cluster, echo

    def test_registry_recovers_a_route_through_a_dead_hop(self):
        cluster, echo = self._scattered_cluster(locator=LocationRegistry)
        cluster.transport.set_node_down("b")
        assert echo.ping() == "x"  # re-located via the home registry
        # The tracker was shortened to c; the dead hop is out of the path.
        assert cluster["a"].repository.existing_tracker(
            echo._fargo_target_id
        ).next_hop.core == "c"

    def test_without_registry_a_dead_hop_still_fails(self):
        """Chain walking cannot skip a dead intermediate Core (§7)."""
        cluster, echo = self._scattered_cluster()
        cluster.transport.set_node_down("b")
        with pytest.raises(CoreDownError):
            echo.ping()

    def test_timed_out_invocation_is_not_transparently_retried(self):
        """A timeout is indeterminate: the handler may have executed, so
        re-locating and retrying would silently duplicate the call."""
        cluster, echo = self._scattered_cluster(
            rpc_timeout=1.0, locator=LocationRegistry
        )
        cluster.set_link("a", "b", latency=2.0)  # the forward hop is now slow
        with pytest.raises(DeadlineExceededError):
            echo.ping()
        # The call did reach c exactly once; a transparent registry-based
        # retry would have executed it a second time and hidden the error.
        assert cluster["c"].repository.get(echo._fargo_target_id).calls == 1

    def test_rpc_retries_carry_an_invocation_across_an_outage(self):
        cluster = Cluster(
            ["a", "b"], retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5)
        )
        inject = FailureInjector(cluster)
        echo = Echo("x", _core=cluster["a"])
        cluster.move(echo, "b")
        cluster.set_link("a", "b", up=False)
        inject.restore_link_at(0.4, "a", "b")
        assert echo.ping() == "x"
        assert cluster["b"].repository.get(echo._fargo_target_id).calls == 1


class TestOnewayFailedEvent:
    def test_core_publishes_oneway_failed(self):
        from repro.core.events import ONEWAY_FAILED
        from repro.net.messages import MessageKind

        cluster = Cluster(["a", "b"])
        seen = []
        cluster["b"].events.subscribe(ONEWAY_FAILED, seen.append)

        def broken(src, body):
            raise RuntimeError("update handler broke")

        # LOCATION_UPDATE is one-way traffic; replace b's handler.
        cluster["b"].peer.endpoint._handlers[MessageKind.LOCATION_UPDATE] = broken
        cluster["a"].peer.notify(
            "b", MessageKind.LOCATION_UPDATE, ("bogus", "payload")
        )
        assert len(seen) == 1
        assert seen[0].data["kind"] == MessageKind.LOCATION_UPDATE.value
        assert seen[0].data["source"] == "a"
