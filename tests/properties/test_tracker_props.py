"""Property-based tests: tracker-chain invariants under random itineraries."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.workload import Counter
from repro.complet.relocators import Link
from repro.complet.tokens import RefToken
from repro.complet.tracker import TrackerAddress
from repro.net.serializer import PLAIN
from repro.util.ids import CompletId

CORES = ["a", "b", "c", "d"]

itineraries = st.lists(st.sampled_from(CORES), min_size=1, max_size=10)


def _fresh_cluster():
    return Cluster(CORES)


class TestChainInvariants:
    @settings(max_examples=30, deadline=None)
    @given(hops=itineraries)
    def test_complet_hosted_at_exactly_one_core(self, hops):
        cluster = _fresh_cluster()
        counter = Counter(0, _core=cluster["a"])
        for destination in hops:
            cluster.move_via_host(counter, destination)
        hosts = [
            core.name
            for core in cluster
            if core.repository.hosts(counter._fargo_target_id)
        ]
        final = hops[-1] if hops else "a"
        assert hosts == [final]

    @settings(max_examples=30, deadline=None)
    @given(hops=itineraries)
    def test_invocation_always_reaches_target(self, hops):
        """However the complet wandered, the original stub resolves it."""
        cluster = _fresh_cluster()
        counter = Counter(0, _core=cluster["a"])
        for destination in hops:
            cluster.move_via_host(counter, destination)
        assert counter.increment() == 1

    @settings(max_examples=30, deadline=None)
    @given(hops=itineraries)
    def test_invocation_path_is_direct_afterwards(self, hops):
        """§3.1 shortening post-condition: after an invocation, the
        caller's tracker points directly at the Core hosting the target."""
        cluster = _fresh_cluster()
        counter = Counter(0, _core=cluster["a"])
        for destination in hops:
            cluster.move_via_host(counter, destination)
        counter.increment()
        host = cluster.locate(counter)
        tracker = counter._fargo_tracker
        assert tracker.is_local and host == "a" or tracker.next_hop.core == host

    @settings(max_examples=30, deadline=None)
    @given(hops=itineraries)
    def test_gc_fixpoint_leaves_only_referenced_trackers(self, hops):
        """After invocation + GC to a fixpoint, every surviving tracker is
        local, referenced by a live stub, or pointed at by a survivor —
        chains of garbage trackers collapse entirely."""
        cluster = _fresh_cluster()
        counter = Counter(0, _core=cluster["a"])
        for destination in hops:
            cluster.move_via_host(counter, destination)
        counter.increment()
        cluster.collect_all_trackers()
        target_id = counter._fargo_target_id
        survivors = {
            core.name: core.repository.existing_tracker(target_id)
            for core in cluster
            if core.repository.existing_tracker(target_id) is not None
        }
        for name, tracker in survivors.items():
            assert (
                tracker.is_local
                or tracker.live_stub_count > 0
                or tracker.remote_pointers
            ), name
        # And the reference still works after collection:
        assert counter.increment() == 2

    @settings(max_examples=30, deadline=None)
    @given(hops=itineraries)
    def test_gc_preserves_resolvability(self, hops):
        """Collecting trackers never breaks a live reference."""
        cluster = _fresh_cluster()
        counter = Counter(0, _core=cluster["a"])
        for destination in hops:
            cluster.move_via_host(counter, destination)
        counter.increment()
        cluster.collect_all_trackers()
        assert counter.increment() == 2

    @settings(max_examples=30, deadline=None)
    @given(hops=itineraries, observers=st.lists(st.sampled_from(CORES), max_size=3))
    def test_one_tracker_per_target_per_core(self, hops, observers):
        """However many stubs exist at a Core, there is one tracker."""
        cluster = _fresh_cluster()
        counter = Counter(0, _core=cluster["a"])
        stubs = [cluster.stub_at(observer, counter) for observer in observers]
        for destination in hops:
            cluster.move_via_host(counter, destination)
        for stub in stubs:
            stub.increment()
        target_id = counter._fargo_target_id
        for core in cluster:
            trackers = [
                t for t in core.repository.trackers() if t.target_id == target_id
            ]
            assert len(trackers) <= 1


addresses = st.builds(TrackerAddress, st.text(min_size=1, max_size=16), st.integers(0, 2**63 - 1))


class TestAddressWireForm:
    """A tracker address pickles as its two fields; what it is does not change."""

    @given(address=addresses)
    def test_round_trips_through_plain(self, address):
        back = PLAIN.loads(PLAIN.dumps(address))
        assert type(back) is TrackerAddress
        assert back == address and hash(back) == hash(address) and str(back) == str(address)
        with pytest.raises(dataclasses.FrozenInstanceError):
            back.serial = address.serial + 1  # type: ignore[misc]

    @given(address=addresses)
    def test_round_trips_inside_a_ref_token(self, address):
        token = RefToken(CompletId("a", 1, "Echo"), "repro.cluster.workload:Echo_", address, Link())
        back = PLAIN.loads(PLAIN.dumps(token))
        assert back == token and type(back.last_known) is TrackerAddress
