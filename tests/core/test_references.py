"""Tests for the reference handler: materialization, location, pointers."""

import threading

import pytest

from repro.complet.relocators import Link, Pull
from repro.complet.tokens import RefToken, StampToken
from repro.errors import (
    DanglingReferenceError,
    DeadlineExceededError,
    SerializationError,
    StampResolutionError,
)
from repro.cluster.workload import Counter, Echo, Printer, Printer_
from repro.net.messages import MessageKind
from tests.pointers import BACKENDS, MODES, eventually, kinds, pointer_sets, settle


class TestMaterialization:
    def test_ref_token_creates_tracker(self, cluster):
        echo = Echo("x", _core=cluster["alpha"])
        tracker = echo._fargo_tracker
        token = RefToken(
            tracker.target_id, tracker.anchor_ref, tracker.address, Link()
        )
        stub = cluster["beta"].references.materialize(token)
        assert stub.ping() == "x"
        assert stub._fargo_core is cluster["beta"]

    def test_materialize_reuses_existing_tracker(self, cluster):
        echo = Echo("x", _core=cluster["alpha"])
        tracker = echo._fargo_tracker
        token = RefToken(tracker.target_id, tracker.anchor_ref, tracker.address, Link())
        s1 = cluster["beta"].references.materialize(token)
        s2 = cluster["beta"].references.materialize(token)
        assert s1._fargo_tracker is s2._fargo_tracker
        assert cluster["beta"].repository.tracker_count() == 1

    def test_relocator_preserved(self, cluster):
        echo = Echo("x", _core=cluster["alpha"])
        tracker = echo._fargo_tracker
        token = RefToken(tracker.target_id, tracker.anchor_ref, tracker.address, Pull())
        stub = cluster["beta"].references.materialize(token)
        assert stub._fargo_meta.type_name == "pull"

    def test_stamp_token_resolution(self, cluster):
        Printer("here", _core=cluster["alpha"])
        token = StampToken("repro.cluster.workload:Printer_", Link())
        stub = cluster["alpha"].references.materialize(token)
        assert stub.location() == "here"

    def test_stamp_token_failure(self, cluster):
        token = StampToken("repro.cluster.workload:Printer_", Link())
        with pytest.raises(StampResolutionError):
            cluster["alpha"].references.materialize(token)

    def test_stamp_unresolvable_class(self, cluster):
        token = StampToken("nonexistent.module:Nothing_", Link())
        with pytest.raises(StampResolutionError):
            cluster["alpha"].references.materialize(token)

    def test_unknown_token_rejected(self, cluster):
        with pytest.raises(SerializationError):
            cluster["alpha"].references.materialize({"weird": 1})


class TestLocation:
    def test_locate_local(self, cluster):
        echo = Echo("x", _core=cluster["alpha"])
        assert cluster["alpha"].references.locate(echo._fargo_tracker) == "alpha"

    def test_locate_dangling_raises(self, cluster):
        echo = Echo("x", _core=cluster["alpha"])
        cluster["alpha"].repository.destroy(echo._fargo_target_id)
        with pytest.raises(DanglingReferenceError):
            cluster["alpha"].references.locate(echo._fargo_tracker)

    def test_locate_shortens(self, cluster3):
        counter = Counter(0, _core=cluster3["alpha"])
        cluster3.move_via_host(counter, "beta")
        cluster3.move_via_host(counter, "gamma")
        tracker = counter._fargo_tracker
        assert tracker.next_hop.core == "beta"
        cluster3["alpha"].references.locate(tracker)
        assert tracker.next_hop.core == "gamma"


class TestPointerBookkeeping:
    def test_shorten_updates_both_sides(self, cluster3):
        counter = Counter(0, _core=cluster3["alpha"])
        cluster3.move_via_host(counter, "beta")
        cluster3.move_via_host(counter, "gamma")
        alpha_tracker = counter._fargo_tracker
        beta_tracker = cluster3["beta"].repository.existing_tracker(
            counter._fargo_target_id
        )
        assert alpha_tracker.address in beta_tracker.remote_pointers
        counter.increment()  # shortens alpha -> gamma
        assert alpha_tracker.address not in beta_tracker.remote_pointers
        gamma_tracker = cluster3["gamma"].repository.existing_tracker(
            counter._fargo_target_id
        )
        assert alpha_tracker.address in gamma_tracker.remote_pointers

    def test_pointer_update_to_dead_core_swallowed(self, cluster):
        """Pointer housekeeping is best-effort: dead peers are skipped."""
        from repro.complet.tracker import TrackerAddress

        counter = Counter(0, _core=cluster["alpha"])
        cluster.transport.set_node_down("beta")
        cluster["alpha"].references._notify_pointer(
            TrackerAddress("beta", 1), counter._fargo_tracker.address, 1, register=True
        )  # must not raise

    @pytest.mark.tcp
    def test_a_sweep_cannot_overtake_a_registration(self, deploy):
        """c's registration at b's tracker is slow to land at b.  The alias is
        handed out only once b holds it, so the sweep after the move, which
        leaves b forwarding, keeps b's tracker for the alias to go through."""
        cluster = deploy(["a", "b", "c"], "tcp")
        at_b = cluster["b"].peer.endpoint._handlers
        update = at_b[MessageKind.TRACKER_UPDATE]
        driver_done = threading.Event()

        def held(src, payload):
            driver_done.wait(0.5)
            return update(src, payload)

        at_b[MessageKind.TRACKER_UPDATE] = held
        try:
            counter = Counter(0, _core=cluster.seat, _at="b")
            alias = cluster.stub_at("c", counter)
            cluster.move(counter, "a")
            cluster.collect_all_trackers()
            assert alias.increment(1) == 1
        finally:
            driver_done.set()

    def test_chain_breaks_when_intermediate_core_dies(self, cluster3):
        """The known weakness of tracker chains (the paper's future work
        proposes location-independent naming precisely because of this):
        an invocation routed through a dead intermediate Core fails."""
        from repro.errors import CoreDownError

        counter = Counter(0, _core=cluster3["alpha"])
        cluster3.move_via_host(counter, "beta")
        cluster3.move_via_host(counter, "gamma")
        cluster3.transport.set_node_down("beta")
        with pytest.raises(CoreDownError):
            counter.increment()
        # Shortened references made beforehand would have survived:
        cluster3.transport.set_node_down("beta", down=False)
        counter.increment()  # shortens alpha -> gamma
        cluster3.transport.set_node_down("beta")
        assert counter.increment() == 2  # no longer routed through beta


class TestHandover:
    """A re-point is settled by the message that causes it: nothing is posted."""

    #: One ping through a -> b -> c -> d -> e, per mode: the messages it sends
    #: (request and reply each) and every pointer set afterwards.  The
    #: registry's record (e, at the home b) is where b's walk starts: one
    #: LOOKUP registers a and b there, and only c, the hop it skipped, is
    #: told by a post.
    STALE_PING = {
        "eager": (
            {"INVOKE": 4, "TRACKER_LOOKUP": 6},
            {"a/t1": [], "b/t1": [], "c/t1": [], "d/t1": [],
             "e/t1": ["a/t1", "b/t1", "c/t1", "d/t1"]},
        ),
        "registry": (
            {"INVOKE": 4, "TRACKER_LOOKUP": 2, "TRACKER_UPDATE": 1},
            {"a/t1": [], "b/t1": [], "c/t1": [], "d/t1": ["c/t1"],
             "e/t1": ["a/t1", "b/t1", "d/t1"]},
        ),
    }

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("transport", BACKENDS)
    def test_ping_through_a_four_hop_stale_chain(self, deploy, transport, mode):
        cluster = deploy(["a", "b", "c", "d", "e"], transport, **MODES[mode])
        counter = Counter(0, _core=cluster["a"], _at="b")
        for host in ("c", "d", "e"):
            cluster.move_via_host(counter, host)
        settle(cluster, counter)
        cluster.reset_stats()
        assert counter.increment() == 1
        sent, sets = self.STALE_PING[mode]
        assert kinds(cluster) == sent
        assert eventually(lambda: pointer_sets(cluster) == sets), pointer_sets(cluster)

    @pytest.mark.parametrize("lost", [MessageKind.TRACKER_LOOKUP, MessageKind.INVOKE])
    @pytest.mark.parametrize("transport", BACKENDS)
    def test_a_lost_answer_leaves_the_requester_registered(self, deploy, transport, lost):
        """The forwarder ran the request, discarded its caller, and the answer
        never arrived: the caller has it register the pointer again."""
        cluster = deploy(["a", "b", "c"], transport)
        counter = Counter(0, _core=cluster["a"], _at="b")
        cluster.move_via_host(counter, "c")  # a -> b -> c
        settle(cluster, counter)
        pointer = counter._fargo_tracker.address
        forwarder = cluster["b"].repository.existing_tracker(counter._fargo_target_id)
        handlers = cluster["b"].peer.endpoint._handlers
        handler = handlers[lost]

        def answered_then_lost(src, payload):
            handler(src, payload)
            raise DeadlineExceededError("the answer was lost")

        handlers[lost] = answered_then_lost
        with pytest.raises(DeadlineExceededError):
            if lost is MessageKind.INVOKE:
                counter.increment()
            else:
                cluster.locate(counter)
        handlers[lost] = handler
        assert counter._fargo_tracker.next_hop == forwarder.address
        assert eventually(lambda: pointer in forwarder.remote_pointers)
        cluster.collect_all_trackers()
        assert cluster["b"].repository.tracker_by_serial(forwarder.address.serial) is forwarder
        assert counter.increment() == (2 if lost is MessageKind.INVOKE else 1)

    KINDS_HANDED_OVER = [MessageKind.TRACKER_LOOKUP, MessageKind.INVOKE, MessageKind.MOVE_REQUEST]

    @pytest.mark.tcp
    @pytest.mark.parametrize("kind", KINDS_HANDED_OVER)
    def test_a_caller_that_gives_up_while_the_hop_still_runs(self, deploy, kind):
        """a's deadline passes while b's handler waits on c.  a registers its
        tracker at b again, and that reaches b before b's handler ends: the
        handler keeps the pointer it would have handed over."""
        self._give_up(deploy, kind, late_read=False)

    @pytest.mark.tcp
    @pytest.mark.parametrize("kind", KINDS_HANDED_OVER)
    def test_a_hop_that_reads_the_request_after_the_caller_gave_up(self, deploy, kind):
        """a's deadline passes before b's handler starts, and a's new
        registration lands at b first.  The handler's discard, when it
        runs, names a's older epoch and loses."""
        self._give_up(deploy, kind, late_read=True)

    @staticmethod
    def _give_up(deploy, kind, *, late_read):
        """a's request of ``kind`` to the hop b times out and a registers again.

        The handler at b runs once that registration has landed: from the
        start (``late_read``), or from where it waits on c.  Either way b
        keeps a's pointer and survives collection.
        """
        cluster = deploy(["a", "b", "c"], "tcp")
        counter = Counter(0, _core=cluster["a"], _at="b")
        moving = kind is MessageKind.MOVE_REQUEST
        if not moving:
            cluster.move_via_host(counter, "c")  # a -> b -> c: b forwards
        settle(cluster, counter)
        pointer = counter._fargo_tracker.address
        hop = cluster["b"].repository.existing_tracker(counter._fargo_target_id)
        # The handler that waits: b's own, or what b asks of c on a's behalf
        # (the rest of the chain, or the move's commit).
        asked = MessageKind.MOVE_COMPLET if moving else MessageKind.TRACKER_LOOKUP
        at_b = cluster["b"].peer.endpoint._handlers
        waiting = at_b if late_read else cluster["c"].peer.endpoint._handlers
        waits_for = kind if late_read else asked
        reregistered, finished = threading.Event(), threading.Event()
        update, handler, answer = at_b[MessageKind.TRACKER_UPDATE], at_b[kind], waiting[waits_for]

        def update_then_signal(src, payload):
            result = update(src, payload)
            reregistered.set()
            return result

        def answer_once_reregistered(src, payload):
            reregistered.wait(5.0)
            return answer(src, payload)

        at_b[MessageKind.TRACKER_UPDATE] = update_then_signal
        waiting[waits_for] = answer_once_reregistered
        inner = at_b[kind]

        def handle_then_signal(src, payload):
            try:
                return inner(src, payload)
            finally:
                finished.set()

        at_b[kind] = handle_then_signal
        cluster["a"].peer.endpoint.set_timeout(0.2, kind)
        with pytest.raises(DeadlineExceededError):
            if kind is MessageKind.INVOKE:
                counter.increment()
            elif moving:
                cluster.move(counter, "c")
            else:
                cluster.locate(counter)
        assert finished.wait(10.0) and reregistered.is_set()
        cluster["a"].peer.endpoint.set_timeout(None, kind)
        at_b[MessageKind.TRACKER_UPDATE], at_b[kind], waiting[waits_for] = update, handler, answer
        assert counter._fargo_tracker.next_hop == hop.address
        assert pointer in hop.remote_pointers
        cluster.collect_all_trackers()
        assert cluster["b"].repository.tracker_by_serial(hop.address.serial) is hop
        assert counter.increment() == (2 if kind is MessageKind.INVOKE else 1)
