"""Tests for the reference handler: materialization, location, pointers."""

import pytest

from repro.complet.relocators import Link, Pull
from repro.complet.tokens import RefToken, StampToken
from repro.errors import DanglingReferenceError, SerializationError, StampResolutionError
from repro.cluster.workload import Counter, Echo, Printer, Printer_


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

    def test_lazy_mode_skips_updates(self, make_cluster):
        lazy = make_cluster(["a", "b", "c"], eager_pointer_updates=False)
        counter = Counter(0, _core=lazy["a"])
        lazy.move_via_host(counter, "b")
        b_tracker = lazy["b"].repository.existing_tracker(counter._fargo_target_id)
        # Arrival pre-registration still happens (it rides the payload),
        # but shortening housekeeping does not.
        lazy.move_via_host(counter, "c")
        counter.increment()
        assert counter._fargo_tracker.address not in {
            p for p in b_tracker.remote_pointers if p.core == "a"
        } or not lazy["a"].eager_pointer_updates

    def test_pointer_update_to_dead_core_swallowed(self, cluster):
        """Pointer housekeeping is best-effort: dead peers are skipped."""
        from repro.complet.tracker import TrackerAddress

        counter = Counter(0, _core=cluster["alpha"])
        cluster.transport.set_node_down("beta")
        cluster["alpha"].references._notify_pointer(
            TrackerAddress("beta", 1), counter._fargo_tracker.address, register=True
        )  # must not raise

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
