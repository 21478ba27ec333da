"""Tests for the movement unit: the mobility protocol of §3.3."""

import pytest

from repro.core.locator import LocationRegistry
from repro.errors import CompletError, MovementDeniedError
from repro.net.messages import MessageKind
from repro.cluster.workload import Counter, DataSource, Echo, Worker
from tests.anchors import Holder, Probe
from tests.pointers import (
    BACKENDS,
    MODES,
    eventually,
    kinds,
    pointer_set_violations,
    pointer_sets,
    settle,
)


class TestBasicMovement:
    def test_state_travels(self, cluster):
        counter = Counter(10, _core=cluster["alpha"])
        counter.increment(5)
        cluster.move(counter, "beta")
        assert counter.read() == 15
        assert cluster.locate(counter) == "beta"

    def test_repositories_updated(self, cluster):
        counter = Counter(0, _core=cluster["alpha"])
        cluster.move(counter, "beta")
        assert len(cluster["alpha"].repository) == 0
        assert len(cluster["beta"].repository) == 1

    def test_move_to_same_core_is_noop(self, cluster):
        counter = Counter(0, _core=cluster["alpha"])
        messages = cluster.stats.messages
        cluster.move(counter, "alpha")
        assert cluster.stats.messages == messages
        assert cluster.locate(counter) == "alpha"

    def test_move_by_complet_id(self, cluster):
        counter = Counter(0, _core=cluster["alpha"])
        cluster["alpha"].move(counter._fargo_target_id, "beta")
        assert cluster.locate(counter) == "beta"

    def test_move_by_anchor(self, cluster):
        counter = Counter(0, _core=cluster["alpha"])
        anchor = cluster["alpha"].repository.get(counter._fargo_target_id)
        cluster["alpha"].move(anchor, "beta")
        assert cluster.locate(counter) == "beta"

    def test_move_foreign_anchor_denied(self, cluster):
        from repro.cluster.workload import Counter_

        with pytest.raises(MovementDeniedError):
            cluster["alpha"].move(Counter_(0), "beta")

    def test_move_unknown_target_rejected(self, cluster):
        with pytest.raises(CompletError):
            cluster["alpha"].move("not-a-complet", "beta")


class TestRemoteInitiatedMoves:
    def test_move_forwarded_to_host(self, cluster3):
        """Any Core can initiate a move of any complet (MOVE_REQUEST)."""
        counter = Counter(0, _core=cluster3["alpha"])
        cluster3.move(counter, "beta")
        # The stub is wired to alpha; moving again forwards to beta.
        cluster3.move(counter, "gamma")
        assert cluster3.locate(counter) == "gamma"
        assert counter.increment() == 1

    def test_forwarded_move_to_current_host_is_noop(self, cluster):
        counter = Counter(0, _core=cluster["alpha"])
        cluster.move(counter, "beta")
        cluster.move(counter, "beta")  # already there
        assert cluster.locate(counter) == "beta"

    def test_chased_move_through_stale_tracker(self, cluster3):
        """A MOVE_REQUEST that arrives after the complet left is chased."""
        counter = Counter(0, _core=cluster3["alpha"])
        cluster3.move_via_host(counter, "beta")
        cluster3.move_via_host(counter, "gamma")
        # alpha's tracker still says beta; the request is forwarded twice.
        cluster3["alpha"].move(counter._fargo_target_id, "alpha")
        assert cluster3.locate(counter) == "alpha"


    def test_forwarded_move_asks_no_one_where_the_complet_is(self, cluster3):
        """The request goes to the tracker's next hop: no TRACKER_LOOKUP round trip first."""
        counter = Counter(0, _core=cluster3["alpha"])
        cluster3.move(counter, "beta")
        lookups = cluster3.stats.by_kind[MessageKind.TRACKER_LOOKUP]
        requests = cluster3.stats.by_kind[MessageKind.MOVE_REQUEST]
        cluster3["alpha"].move(counter._fargo_target_id, "gamma")
        assert cluster3.stats.by_kind[MessageKind.TRACKER_LOOKUP] == lookups
        assert cluster3.stats.by_kind[MessageKind.MOVE_REQUEST] - requests == 2  # and its reply
        assert cluster3["gamma"].repository.get(counter._fargo_target_id) is not None

    def test_forwarded_move_through_a_dangling_tracker(self, cluster):
        from repro.errors import DanglingReferenceError

        counter = Counter(0, _core=cluster["alpha"])
        cluster.move(counter, "beta")
        tracker = cluster["alpha"].repository.existing_tracker(counter._fargo_target_id)
        tracker.next_hop = None  # what destroying the target leaves behind
        with pytest.raises(DanglingReferenceError):
            cluster["alpha"].move(counter._fargo_target_id, "alpha")

    def test_forwarded_move_asks_the_location_registry_first(self, make_cluster):
        cluster = make_cluster(["a", "b", "c"], locator=LocationRegistry)
        counter = Counter(0, _core=cluster["a"])
        cluster.move_via_host(counter, "b")
        cluster.move_via_host(counter, "c")  # a's tracker still says b; a's registry says c
        requests = cluster.stats.by_kind[MessageKind.MOVE_REQUEST]
        cluster["a"].move(counter._fargo_target_id, "a")
        assert cluster.stats.by_kind[MessageKind.MOVE_REQUEST] - requests == 2  # straight to c
        assert cluster["a"].repository.get(counter._fargo_target_id) is not None

    def test_a_move_sent_past_the_next_hop_releases_it(self, make_cluster):
        """The record's host, not b, hands a's tracker over: b is told to let it go."""
        cluster = make_cluster(["a", "b", "c", "d"], locator=LocationRegistry)
        counter = Counter(0, _core=cluster["a"])
        cluster.move_via_host(counter, "b")
        cluster.move_via_host(counter, "c")
        cluster["a"].move(counter._fargo_target_id, "d")
        assert counter._fargo_tracker.next_hop.core == "d"
        assert not pointer_set_violations(cluster.cores.values())


class TestGroupMovement:
    def test_group_single_message(self, cluster):
        """One MOVE_COMPLET round trip no matter how many complets move."""
        from repro.complet.relocators import Pull
        from repro.core.core import Core

        members = [Counter(i, _core=cluster["alpha"]) for i in range(5)]
        head = Holder(None, _core=cluster["alpha"])
        head_anchor = cluster["alpha"].repository.get(head._fargo_target_id)
        head_anchor.refs = list(members)
        for stub in head_anchor.refs:
            Core.get_meta_ref(stub).set_relocator(Pull())
        before = cluster.stats.by_kind[MessageKind.MOVE_COMPLET]
        cluster.move(head, "beta")
        assert cluster.stats.by_kind[MessageKind.MOVE_COMPLET] - before == 2
        for stub in members:
            assert cluster.locate(stub) == "beta"

    def test_intra_group_references_stay_wired(self, cluster):
        """Mutual references between group members survive the move."""
        from repro.complet.relocators import Pull
        from repro.core.core import Core

        echo = Echo("inner", _core=cluster["alpha"])
        holder = Holder(echo, _core=cluster["alpha"])
        anchor = cluster["alpha"].repository.get(holder._fargo_target_id)
        Core.get_meta_ref(anchor.ref).set_relocator(Pull())
        cluster.move(holder, "beta")
        assert holder.call_ref() == "inner"
        # The call is local at beta: no INVOKE messages crossed the wire.
        invokes = cluster.stats.by_kind[MessageKind.INVOKE]
        holder.call_ref()
        assert cluster.stats.by_kind[MessageKind.INVOKE] == invokes + 2  # only outer hop


class TestIncomingReferences:
    def test_incoming_refs_keep_working(self, cluster3):
        """References held by third parties survive the move (§3.3)."""
        counter = Counter(0, _core=cluster3["alpha"])
        gamma_ref = cluster3.stub_at("gamma", counter)
        cluster3.move(counter, "beta")
        assert gamma_ref.increment() == 1

    def test_outgoing_refs_keep_working(self, cluster3):
        source = DataSource(100, _core=cluster3["gamma"])
        worker = Worker(source, _core=cluster3["alpha"])
        cluster3.move(worker, "beta")
        assert worker.work(1) == 100

    def test_dest_registers_source_pointer(self, cluster):
        counter = Counter(0, _core=cluster["alpha"])
        alpha_tracker = counter._fargo_tracker
        cluster.move(counter, "beta")
        beta_tracker = cluster["beta"].repository.existing_tracker(
            counter._fargo_target_id
        )
        assert alpha_tracker.address in beta_tracker.remote_pointers


class TestAbortedMoves:
    def test_unmarshalable_closure_aborts_cleanly(self, cluster):
        """A move that cannot marshal leaves the complet fully usable."""
        from repro.errors import SerializationError

        counter = Counter(5, _core=cluster["alpha"])
        anchor = cluster["alpha"].repository.get(counter._fargo_target_id)
        anchor.handle = open("/dev/null", "rb")
        try:
            with pytest.raises(SerializationError):
                cluster.move(counter, "beta")
        finally:
            anchor.handle.close()
        del anchor.handle
        assert cluster.locate(counter) == "alpha"
        assert counter.increment() == 6
        cluster.move(counter, "beta")  # works once the handle is gone
        assert cluster.locate(counter) == "beta"

    def test_unreachable_destination_aborts_cleanly(self, cluster):
        from repro.errors import CoreDownError

        counter = Counter(0, _core=cluster["alpha"])
        cluster.transport.set_node_down("beta")
        with pytest.raises(CoreDownError):
            cluster.move(counter, "beta")
        assert cluster.locate(counter) == "alpha"
        assert counter.increment() == 1


class TestMovementAccounting:
    def test_moves_counted(self, cluster):
        counter = Counter(0, _core=cluster["alpha"])
        sent = cluster["alpha"].movement.moves_sent
        received = cluster["beta"].movement.moves_received
        cluster.move(counter, "beta")
        assert cluster["alpha"].movement.moves_sent == sent + 1
        assert cluster["beta"].movement.moves_received == received + 1

    def test_departure_and_arrival_events(self, cluster):
        seen = []
        cluster["alpha"].events.subscribe("completDeparted", seen.append)
        cluster["beta"].events.subscribe("completArrived", seen.append)
        counter = Counter(0, _core=cluster["alpha"])
        cluster.move(counter, "beta")
        names = [e.name for e in seen]
        assert "completArrived" in names
        assert "completDeparted" in names

    def test_bytes_scale_with_closure(self, cluster):
        small = Counter(0, _core=cluster["alpha"])
        cluster.move(small, "beta")
        small_bytes = cluster.stats.bytes
        big = DataSource(100_000, _core=cluster["alpha"])
        cluster.move(big, "beta")
        assert cluster.stats.bytes - small_bytes > 90_000

    def test_a_departed_group_is_freed_at_once(self, cluster):
        """Nothing the move built keeps the group's old objects in a reference
        cycle: they go when the move returns, not at the next collection."""
        import gc
        import weakref

        from repro.complet.relocators import Pull
        from repro.core.core import Core

        head = Holder(None, _core=cluster["alpha"])
        anchor = cluster["alpha"].repository.get(head._fargo_target_id)
        anchor.refs = [DataSource(1000, _core=cluster["alpha"]) for _ in range(3)]
        for stub in anchor.refs:
            Core.get_meta_ref(stub).set_relocator(Pull())
        departed = [weakref.ref(a) for a in cluster["alpha"].repository.anchors()]
        del anchor
        gc.disable()
        try:
            cluster.move(head, "beta")
            assert [ref() for ref in departed] == [None] * 4
        finally:
            gc.enable()

    def test_probe_history_travels(self, cluster):
        probe = Probe(_core=cluster["alpha"])
        cluster.move(probe, "beta")
        cluster.move(probe, "alpha")
        history = probe.get_history()
        assert history.count("pre_arrival") == 2


class TestHandover:
    """The move's own messages settle the pointer sets: nothing is posted.

    Each scenario runs per bookkeeping mode on the simulated network and,
    as its ``tcp`` twin, on the TCP hub.
    """

    #: The move back of a four-member pull group (head and three members)
    #: that left alpha for beta, in every mode: the messages of that move
    #: and every pointer set afterwards.
    GROUP_BACK = (
        {"MOVE_REQUEST": 2, "MOVE_COMPLET": 2},
        {**{f"alpha/t{i}": [f"beta/t{i}"] for i in range(1, 5)},
         **{f"beta/t{i}": [] for i in range(1, 5)}},
    )

    #: ``driver.move`` then one call, three times over a <-> b: the messages
    #: of each round.
    MOVE_THEN_CALL = {
        "eager": [{"MOVE_REQUEST": 2, "MOVE_COMPLET": 2, "INVOKE": 2}] * 3,
        "registry": [
            {"MOVE_REQUEST": 2, "MOVE_COMPLET": 2, "INVOKE": 2,
             "LOCATION_QUERY": 2, "LOCATION_UPDATE": 1},
            {"MOVE_REQUEST": 2, "MOVE_COMPLET": 2, "INVOKE": 2, "LOCATION_QUERY": 2},
            {"MOVE_REQUEST": 2, "MOVE_COMPLET": 2, "INVOKE": 2,
             "LOCATION_QUERY": 2, "LOCATION_UPDATE": 1},
        ],
    }

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("transport", BACKENDS)
    def test_a_pull_group_moved_back(self, deploy, transport, mode):
        from repro.complet.relocators import Pull
        from repro.core.core import Core

        cluster = deploy(["alpha", "beta"], transport, **MODES[mode])
        head = Holder(None, _core=cluster["alpha"])
        anchor = cluster["alpha"].repository.get(head._fargo_target_id)
        anchor.refs = [Counter(i, _core=cluster["alpha"]) for i in range(3)]
        for stub in anchor.refs:
            Core.get_meta_ref(stub).set_relocator(Pull())
        cluster.move(head, "beta")
        settle(cluster, head)
        cluster.reset_stats()
        cluster.move(head, "alpha")
        sent, sets = self.GROUP_BACK
        assert kinds(cluster) == sent
        assert eventually(lambda: pointer_sets(cluster) == sets), pointer_sets(cluster)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("transport", BACKENDS)
    def test_a_requested_move_shortens_the_requester(self, deploy, transport, mode):
        """The answer to MOVE_REQUEST names the new host: the next call goes straight there."""
        cluster = deploy(["driver", "a", "b"], transport, **MODES[mode])
        counter = Counter(0, _core=cluster["driver"], _at="a")
        rounds = []
        for calls, destination in enumerate(["b", "a", "b"], 1):
            settle(cluster, counter)
            cluster.reset_stats()
            cluster.move(counter, destination)
            settle(cluster, counter)
            assert counter.increment() == calls
            rounds.append(kinds(cluster))
        assert rounds == self.MOVE_THEN_CALL[mode]
        assert counter._fargo_tracker.next_hop.core == "b"
        assert eventually(lambda: not pointer_set_violations(cluster.cores.values()))
