"""Tests for complet closure computation and boundary enforcement."""

import pytest

from repro.complet.closure import compute_closure
from repro.errors import CompletBoundaryError, SerializationError
from repro.net.serializer import BULK_BYTES
from repro.cluster.workload import DataSource, Echo, Echo_, Worker
from tests.anchors import Holder, Pair


class TestClosureScan:
    def test_size_reflects_content(self):
        small = compute_closure(Echo_("x"))
        big_anchor = Echo_("x")
        big_anchor.blob = bytes(50_000)
        big = compute_closure(big_anchor)
        assert big.size_bytes > small.size_bytes + 49_000

    def test_bulk_buffer_is_counted_once_not_scanned(self):
        anchor = Echo_("x")
        empty = compute_closure(anchor).size_bytes
        anchor.blob = bytes(4 * BULK_BYTES)
        anchor.again = [anchor.blob]  # the same object: in one closure once
        anchor.other = bytes([1]) * BULK_BYTES
        assert 0 <= compute_closure(anchor).size_bytes - empty - 5 * BULK_BYTES < 100

    def test_object_count_grows_with_graph(self):
        flat = Echo_("x")
        nested = Echo_("x")
        nested.tree = {"a": [{"b": [1, 2]}, {"c": "d"}]}
        assert compute_closure(nested).object_count > compute_closure(flat).object_count

    def test_no_outgoing_refs(self):
        info = compute_closure(Echo_("x"))
        assert info.outgoing == []

    def test_outgoing_stub_found(self, cluster):
        source = DataSource(100, _core=cluster["alpha"])
        worker = Worker(source, _core=cluster["alpha"])
        anchor = cluster["alpha"].repository.get(worker._fargo_target_id)
        info = compute_closure(anchor)
        assert len(info.outgoing) == 1
        assert info.outgoing[0]._fargo_target_id == source._fargo_target_id

    def test_multiple_outgoing_deduplicated(self, cluster):
        echo = Echo("e", _core=cluster["alpha"])
        pair = Pair(echo, echo, _core=cluster["alpha"])
        anchor = cluster["alpha"].repository.get(pair._fargo_target_id)
        info = compute_closure(anchor)
        # Both attributes hold the SAME stub object (materialized once
        # for the constructor call), so one boundary crossing is found.
        assert len(info.outgoing) == 1

    def test_distinct_stubs_both_reported(self, cluster):
        echo = Echo("e", _core=cluster["alpha"])
        other = Echo("o", _core=cluster["alpha"])
        pair = Pair(echo, other, _core=cluster["alpha"])
        anchor = cluster["alpha"].repository.get(pair._fargo_target_id)
        assert len(compute_closure(anchor).outgoing) == 2

    def test_stub_internals_not_traversed(self, cluster):
        """The scan must not recurse into the stub (tracker, Core...)."""
        source = DataSource(100, _core=cluster["alpha"])
        worker = Worker(source, _core=cluster["alpha"])
        anchor = cluster["alpha"].repository.get(worker._fargo_target_id)
        info = compute_closure(anchor)
        # Size excludes the target's 100-byte blob entirely.
        lone = compute_closure(Worker.__mro__[0]._fargo_anchor_cls(None))
        assert abs(info.size_bytes - lone.size_bytes) < 200


class TestBoundaryEnforcement:
    def test_raw_foreign_anchor_rejected(self, cluster):
        victim = Echo("v", _core=cluster["alpha"])
        victim_anchor = cluster["alpha"].repository.get(victim._fargo_target_id)
        offender = Echo("o", _core=cluster["alpha"])
        offender_anchor = cluster["alpha"].repository.get(offender._fargo_target_id)
        offender_anchor.leak = victim_anchor  # direct anchor reference!
        with pytest.raises(CompletBoundaryError):
            compute_closure(offender_anchor)

    def test_foreign_anchor_behind_bulk_still_rejected(self, cluster):
        victim = Echo("v", _core=cluster["alpha"])
        offender = Echo("o", _core=cluster["alpha"])
        offender_anchor = cluster["alpha"].repository.get(offender._fargo_target_id)
        offender_anchor.state = [
            bytes(BULK_BYTES), cluster["alpha"].repository.get(victim._fargo_target_id)
        ]
        with pytest.raises(CompletBoundaryError):
            compute_closure(offender_anchor)

    def test_move_refuses_boundary_violation(self, cluster):
        victim = Echo("v", _core=cluster["alpha"])
        victim_anchor = cluster["alpha"].repository.get(victim._fargo_target_id)
        offender = Echo("o", _core=cluster["alpha"])
        offender_anchor = cluster["alpha"].repository.get(offender._fargo_target_id)
        offender_anchor.leak = victim_anchor
        with pytest.raises(CompletBoundaryError):
            cluster.move(offender, "beta")

    def test_self_anchor_in_closure_allowed(self):
        anchor = Echo_("x")
        anchor.me = anchor  # cycle back to the root anchor is fine
        info = compute_closure(anchor)
        assert info.size_bytes > 0

    def test_unmarshalable_closure_reported(self):
        anchor = Echo_("x")
        anchor.handle = open("/dev/null", "rb")
        try:
            with pytest.raises(SerializationError):
                compute_closure(anchor)
        finally:
            anchor.handle.close()
