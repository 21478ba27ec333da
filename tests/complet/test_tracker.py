"""Tests for trackers: states, chains, shortening, collectability (§3.1)."""

import itertools
import random
import sys
import threading

import pytest

from repro.complet.tracker import Tracker, TrackerAddress
from repro.errors import CompletError, DanglingReferenceError
from repro.util.ids import CompletId, TrackerId
from repro.cluster.workload import Counter, Echo


def _tracker():
    return Tracker(
        TrackerId("alpha", 1), CompletId("alpha", 1, "Echo"), "repro.cluster.workload:Echo_"
    )


class TestStates:
    def test_fresh_tracker_is_dangling(self):
        tracker = _tracker()
        assert tracker.is_dangling
        assert not tracker.is_local
        assert not tracker.is_forwarding

    def test_point_to_local(self):
        from repro.cluster.workload import Echo_

        tracker = _tracker()
        tracker.point_to_local(Echo_("x"))
        assert tracker.is_local
        assert not tracker.is_forwarding

    def test_point_to_remote(self):
        tracker = _tracker()
        tracker.point_to(TrackerAddress("beta", 2))
        assert tracker.is_forwarding
        assert tracker.next_hop == TrackerAddress("beta", 2)

    def test_self_forwarding_rejected(self):
        tracker = _tracker()
        with pytest.raises(CompletError):
            tracker.point_to(tracker.address)

    def test_mark_dangling(self):
        tracker = _tracker()
        tracker.point_to(TrackerAddress("beta", 2))
        tracker.mark_dangling()
        assert tracker.is_dangling

    def test_address_roundtrip(self):
        tracker = _tracker()
        assert tracker.address == TrackerAddress("alpha", 1)
        assert tracker.address.tracker_id == TrackerId("alpha", 1)


class TestCollectability:
    def test_local_tracker_never_collectable(self):
        from repro.cluster.workload import Echo_

        tracker = _tracker()
        tracker.point_to_local(Echo_("x"))
        assert not tracker.is_collectable

    def test_pointed_tracker_not_collectable(self):
        tracker = _tracker()
        tracker.point_to(TrackerAddress("beta", 2))
        tracker.note_pointer(TrackerAddress("gamma", 3), 1, registered=True)
        assert not tracker.is_collectable

    def test_orphan_tracker_collectable(self):
        tracker = _tracker()
        tracker.point_to(TrackerAddress("beta", 2))
        assert tracker.is_collectable

    def test_live_stub_prevents_collection(self, cluster):
        echo = Echo("x", _core=cluster["alpha"])
        cluster.move(echo, "beta")
        tracker = echo._fargo_tracker
        assert tracker.live_stub_count == 1
        assert not tracker.is_collectable


class TestPointerEpochs:
    """A tracker keeps the newest update of each pointer, whatever the order."""

    POINTER = TrackerAddress("gamma", 3)

    @pytest.mark.parametrize(
        "updates, registered",
        [
            ([(1, True), (1, False)], False),  # a discard wins a tie
            ([(1, True), (2, False), (3, True)], True),  # re-pointed back: a reclaim
            ([(2, True), (1, False), (1, True)], True),  # a late discard, a late register
        ],
    )
    def test_every_order_of_arrival_ends_alike(self, updates, registered):
        for order in itertools.permutations(updates):
            tracker = _tracker()
            for epoch, register in order:
                tracker.note_pointer(self.POINTER, epoch, registered=register)
            assert (self.POINTER in tracker.remote_pointers) is registered, order

    def test_updates_on_many_threads_keep_the_newest(self):
        """Eight threads apply the updates of 58 pointers in a shuffled order:
        a compare and a write that another thread splits loses the newest."""
        pointers = [TrackerAddress("gamma", serial) for serial in range(2, 60)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(10):
                updates = [
                    (pointer, epoch, register)
                    for pointer in pointers
                    for epoch in range(1, 21)
                    for register in (True, False)
                ]
                updates += [(pointer, 21, True) for pointer in pointers]
                random.Random(seed).shuffle(updates)
                tracker = _tracker()

                def apply(chunk, tracker=tracker):
                    for pointer, epoch, register in chunk:
                        tracker.note_pointer(pointer, epoch, registered=register)

                threads = [threading.Thread(target=apply, args=(updates[i::8],)) for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(10.0)
                assert not any(thread.is_alive() for thread in threads)
                assert tracker.remote_pointers == dict.fromkeys(pointers, 21), seed
        finally:
            sys.setswitchinterval(interval)


class TestChains:
    """End-to-end chain behaviour through a real cluster (Figure 2)."""

    def test_chain_forms_across_hops(self, cluster4):
        counter = Counter(0, _core=cluster4["alpha"])
        origin_tracker = counter._fargo_tracker
        for dest in ("beta", "gamma", "delta"):
            cluster4.move_via_host(counter, dest)
        # alpha's tracker saw only the first hop; the chain leads onward.
        assert origin_tracker.next_hop.core == "beta"
        beta_tracker = cluster4["beta"].repository.existing_tracker(
            counter._fargo_target_id
        )
        assert beta_tracker.next_hop.core == "gamma"

    def test_invocation_shortens_whole_chain(self, cluster4):
        counter = Counter(0, _core=cluster4["alpha"])
        for dest in ("beta", "gamma", "delta"):
            cluster4.move_via_host(counter, dest)
        assert counter.increment() == 1
        # Every tracker on the path now points straight at delta.
        for name in ("alpha", "beta", "gamma"):
            tracker = cluster4[name].repository.existing_tracker(
                counter._fargo_target_id
            )
            assert tracker.next_hop.core == "delta", name

    def test_second_invocation_is_single_hop(self, cluster4):
        counter = Counter(0, _core=cluster4["alpha"])
        for dest in ("beta", "gamma", "delta"):
            cluster4.move_via_host(counter, dest)
        counter.increment()
        forwarded_before = cluster4["beta"].invocation.forwarded
        counter.increment()
        assert cluster4["beta"].invocation.forwarded == forwarded_before

    def test_shortening_enables_gc(self, cluster4):
        counter = Counter(0, _core=cluster4["alpha"])
        for dest in ("beta", "gamma", "delta"):
            cluster4.move_via_host(counter, dest)
        counter.increment()  # shortens; intermediate trackers unreferenced
        collected = cluster4.collect_all_trackers()
        assert collected >= 2  # beta's and gamma's trackers
        assert cluster4["beta"].repository.existing_tracker(
            counter._fargo_target_id
        ) is None

    def test_dangling_after_destroy(self, cluster):
        echo = Echo("x", _core=cluster["alpha"])
        cluster["alpha"].repository.destroy(echo._fargo_target_id)
        with pytest.raises(DanglingReferenceError):
            echo.ping()

    def test_locate_walks_chain(self, cluster4):
        counter = Counter(0, _core=cluster4["alpha"])
        for dest in ("beta", "gamma"):
            cluster4.move(counter, dest)
        assert cluster4.locate(counter) == "gamma"

    def test_move_back_and_forth(self, cluster):
        counter = Counter(0, _core=cluster["alpha"])
        for _ in range(3):
            cluster.move(counter, "beta")
            cluster.move(counter, "alpha")
        assert counter.increment() == 1
        assert cluster.locate(counter) == "alpha"
