"""Unit tests for the movement planner and marshaler internals."""

import pickle

import pytest

from repro.complet.marshal import (
    CloneEntry,
    InvocationMarshaler,
    MovementMarshaler,
    MovementPlan,
    MovementUnmarshaler,
    marshal_clone,
    unmarshal_clone,
)
from repro.complet.relocators import Duplicate, Pull
from repro.complet.tokens import InGroupToken, RefToken
from repro.core.core import Core
from repro.complet.continuation import Continuation
from repro.errors import CompletBoundaryError, SerializationError
from repro.store import StoreProxy
from repro.net.serializer import BULK_BYTES, PLAIN, Segments
from repro.cluster.workload import Counter, DataSource, Echo, Worker
from tests.anchors import Holder


def _anchor(cluster, stub):
    return cluster.core(cluster.locate(stub)).repository.get(stub._fargo_target_id)


class TestMovementPlan:
    def test_single_complet_plan(self, cluster):
        echo = Echo("x", _core=cluster["alpha"])
        plan = MovementPlan(cluster["alpha"], _anchor(cluster, echo))
        assert list(plan.movers) == [echo._fargo_target_id]
        assert plan.local_clones == {}
        assert plan.remote_pulls == []

    def test_pull_extends_group(self, cluster):
        target = Counter(0, _core=cluster["alpha"])
        holder = Holder(target, _core=cluster["alpha"])
        anchor = _anchor(cluster, holder)
        Core.get_meta_ref(anchor.ref).set_relocator(Pull())
        plan = MovementPlan(cluster["alpha"], anchor)
        assert set(plan.movers) == {
            holder._fargo_target_id,
            target._fargo_target_id,
        }

    def test_remote_pull_recorded_not_grouped(self, cluster):
        target = Counter(0, _core=cluster["beta"], _at="beta")
        holder = Holder(target, _core=cluster["alpha"])
        anchor = _anchor(cluster, holder)
        Core.get_meta_ref(anchor.ref).set_relocator(Pull())
        plan = MovementPlan(cluster["alpha"], anchor)
        assert list(plan.movers) == [holder._fargo_target_id]
        assert len(plan.remote_pulls) == 1

    def test_duplicate_assigns_fresh_clone_id(self, cluster):
        source = DataSource(50, _core=cluster["alpha"])
        worker = Worker(source, _core=cluster["alpha"])
        anchor = _anchor(cluster, worker)
        Core.get_meta_ref(anchor.source).set_relocator(Duplicate())
        plan = MovementPlan(cluster["alpha"], anchor)
        clone_id, clone_anchor = plan.local_clones[source._fargo_target_id]
        assert clone_id != source._fargo_target_id
        assert clone_anchor is _anchor(cluster, source)
        assert clone_id in plan.group_ids

    def test_root_first_in_movers(self, cluster):
        target = Counter(0, _core=cluster["alpha"])
        holder = Holder(target, _core=cluster["alpha"])
        anchor = _anchor(cluster, holder)
        Core.get_meta_ref(anchor.ref).set_relocator(Pull())
        plan = MovementPlan(cluster["alpha"], anchor)
        assert next(iter(plan.movers)) == holder._fargo_target_id


class TestMarshalerPayload:
    def test_payload_metadata(self, cluster):
        echo = Echo("x", _core=cluster["alpha"])
        plan = MovementPlan(cluster["alpha"], _anchor(cluster, echo))
        payload = MovementMarshaler(cluster["alpha"], plan).payload(None)
        assert payload.source_core == "alpha"
        assert payload.member_ids == [echo._fargo_target_id]
        member = payload.members[0]
        source, epoch = member.source_tracker
        assert source.core == "alpha"
        assert epoch == echo._fargo_tracker.epoch

    def test_payload_is_plain_picklable(self, cluster):
        """The whole movement payload crosses in one PLAIN message."""
        target = Counter(0, _core=cluster["alpha"])
        holder = Holder(target, _core=cluster["alpha"])
        anchor = _anchor(cluster, holder)
        Core.get_meta_ref(anchor.ref).set_relocator(Pull())
        plan = MovementPlan(cluster["alpha"], anchor)
        payload = MovementMarshaler(cluster["alpha"], plan).payload(None)
        assert PLAIN.roundtrip(payload).member_ids == payload.member_ids

    def test_in_group_references_tokenized(self, cluster):
        target = Counter(0, _core=cluster["alpha"])
        holder = Holder(target, _core=cluster["alpha"])
        anchor = _anchor(cluster, holder)
        Core.get_meta_ref(anchor.ref).set_relocator(Pull())
        plan = MovementPlan(cluster["alpha"], anchor)
        marshaler = MovementMarshaler(cluster["alpha"], plan)
        token = marshaler.reference_token(anchor.ref, Pull())
        assert isinstance(token, InGroupToken)

    def test_outside_references_tokenized_as_ref(self, cluster):
        target = Counter(0, _core=cluster["alpha"])
        holder = Holder(target, _core=cluster["alpha"])
        anchor = _anchor(cluster, holder)  # link: target stays
        plan = MovementPlan(cluster["alpha"], anchor)
        marshaler = MovementMarshaler(cluster["alpha"], plan)
        token = marshaler.reference_token(anchor.ref, anchor.ref._fargo_meta.get_relocator())
        assert isinstance(token, RefToken)
        assert token.target_id == target._fargo_target_id


class TestCloneStreams:
    def test_clone_roundtrip(self, cluster):
        source = DataSource(100, _core=cluster["alpha"])
        anchor = _anchor(cluster, source)
        clone_id = cluster["alpha"].repository.new_complet_id(anchor)
        entry = marshal_clone(cluster["alpha"], anchor, clone_id)
        clone = unmarshal_clone(cluster["beta"], entry)
        assert clone.complet_id == clone_id
        assert clone.blob == anchor.blob
        assert clone is not anchor

    def test_clone_outgoing_refs_degrade_to_link(self, cluster):
        source = DataSource(100, _core=cluster["alpha"])
        worker = Worker(source, _core=cluster["alpha"])
        anchor = _anchor(cluster, worker)
        Core.get_meta_ref(anchor.source).set_relocator(Pull())
        clone_id = cluster["alpha"].repository.new_complet_id(anchor)
        entry = marshal_clone(cluster["alpha"], anchor, clone_id)
        clone = unmarshal_clone(cluster["beta"], entry)
        assert Core.get_meta_ref(clone.source).type_name == "link"

    def test_corrupt_clone_stream_rejected(self, cluster):
        entry = CloneEntry(
            cluster["alpha"].repository.new_complet_id(Echo.__mro__[0]._fargo_anchor_cls("x")),
            "repro.cluster.workload:Echo_",
            PLAIN.dumps("not an anchor"),
        )
        with pytest.raises(SerializationError):
            unmarshal_clone(cluster["beta"], entry)


class TestUnmarshaler:
    def test_group_roundtrip_through_objects(self, cluster):
        target = Counter(3, _core=cluster["alpha"])
        holder = Holder(target, _core=cluster["alpha"])
        anchor = _anchor(cluster, holder)
        Core.get_meta_ref(anchor.ref).set_relocator(Pull())
        plan = MovementPlan(cluster["alpha"], anchor)
        payload = MovementMarshaler(cluster["alpha"], plan).payload(None)
        shipped = PLAIN.roundtrip(payload)
        result = MovementUnmarshaler(cluster["beta"], shipped).load()
        movers = list(result.movers.values())
        assert len(movers) == 2
        arrived_holder = result.movers[holder._fargo_target_id]
        arrived_counter = result.movers[target._fargo_target_id]
        # The intra-group reference is wired to beta's tracker for the
        # counter that travelled in the same stream:
        assert arrived_holder.ref._fargo_target_id == target._fargo_target_id
        assert arrived_counter.value == 3


class TestBulkBesideTheStream:
    """A group's bulk buffers travel beside both pickle streams (dumps_segments)."""

    LEAF = 4 * BULK_BYTES

    def _group(self, cluster, relocator):
        """A worker whose source (a bulk blob) follows it by ``relocator``; the
        worker carries a bulk buffer of its own."""
        source = DataSource(self.LEAF, _core=cluster["alpha"])
        worker = Worker(source, _core=cluster["alpha"])
        anchor = _anchor(cluster, worker)
        anchor.scratch = bytes([5]) * self.LEAF
        Core.get_meta_ref(anchor.source).set_relocator(relocator)
        return source, worker, anchor

    def _ship(self, payload):
        """Through PLAIN the way the movement unit sends it, in every arrival form."""
        wire = PLAIN.dumps_segments(payload)
        assert isinstance(wire, Segments)
        return [PLAIN.loads(form) for form in (wire, bytes(wire), memoryview(bytes(wire)))]

    def test_pull_group_streams_are_segments_that_hold_the_very_buffers(self, cluster):
        source, _worker, anchor = self._group(cluster, Pull())
        plan = MovementPlan(cluster["alpha"], anchor)
        payload = MovementMarshaler(cluster["alpha"], plan).payload(None)
        assert isinstance(payload.stream, Segments)
        blob = _anchor(cluster, source).blob
        assert [part.obj for part in payload.stream.parts[1:]] == [anchor.scratch, blob]
        wire = PLAIN.dumps_segments(payload)
        assert [part.obj for part in wire.parts[-2:]] == [anchor.scratch, blob]
        assert sum(map(len, wire.parts[:-2])) < 2_000  # neither pickle holds a copy
        for shipped in self._ship(payload):
            result = MovementUnmarshaler(cluster["beta"], shipped).load()
            arrived = result.movers[source._fargo_target_id]
            assert type(arrived.blob) is bytes and arrived.blob == blob
            assert arrived.blob is not blob

    def test_duplicate_clone_entry_round_trips(self, cluster):
        source, worker, anchor = self._group(cluster, Duplicate())
        plan = MovementPlan(cluster["alpha"], anchor)
        payload = MovementMarshaler(cluster["alpha"], plan).payload(None)
        (entry,) = payload.clones
        assert type(entry.stream) is bytes and len(entry.stream) > self.LEAF  # in-band, cacheable
        for shipped in self._ship(payload):
            result = MovementUnmarshaler(cluster["beta"], shipped).load()
            (clone,) = result.clones
            assert clone.complet_id == entry.clone_id
            assert clone.blob == _anchor(cluster, source).blob
            arrived = result.movers[worker._fargo_target_id]
            assert arrived.scratch == anchor.scratch
            assert arrived.source._fargo_target_id == entry.clone_id

    def test_continuation_round_trips(self, cluster):
        _source, worker, anchor = self._group(cluster, Pull())
        plan = MovementPlan(cluster["alpha"], anchor)
        continuation = Continuation("work", (2,), {"label": bytes([6]) * self.LEAF})
        payload = MovementMarshaler(cluster["alpha"], plan).payload(continuation)
        for shipped in self._ship(payload):
            result = MovementUnmarshaler(cluster["beta"], shipped).load()
            assert result.continuation.method == "work"
            assert result.continuation.args == (2,)
            assert result.continuation.kwargs == {"label": bytes([6]) * self.LEAF}
            assert worker._fargo_target_id in result.movers

    def test_whole_move_with_bulk_over_the_sim(self, cluster):
        source, worker, anchor = self._group(cluster, Pull())
        checksum = source.checksum()
        cluster.move(worker, "beta")
        assert cluster.locate(source) == "beta" and source.checksum() == checksum

    def test_boundary_checks_fire_on_the_segment_path(self, cluster):
        _source, _worker, anchor = self._group(cluster, Pull())
        victim = _anchor(cluster, Echo("v", _core=cluster["alpha"]))
        plan = MovementPlan(cluster["alpha"], anchor)
        anchor.leak = victim  # after planning: only the marshaler's hook can see it
        with pytest.raises(CompletBoundaryError):
            MovementMarshaler(cluster["alpha"], plan).payload(None)
        anchor.leak = cluster["alpha"].repository.tracker_for(
            victim.complet_id, "repro.cluster.workload:Echo_"
        )
        with pytest.raises(SerializationError, match="Tracker reached the wire"):
            MovementMarshaler(cluster["alpha"], plan).payload(None)
        anchor.leak = cluster["alpha"]
        with pytest.raises(SerializationError, match="Core reached the wire"):
            MovementMarshaler(cluster["alpha"], plan).payload(None)

    def test_a_core_with_a_store_joins_once_and_offloads_by_content(self, make_cluster):
        cluster = make_cluster(["alpha", "beta"], store="memory")
        source, worker, anchor = self._group(cluster, Pull())
        plan = MovementPlan(cluster["alpha"], anchor)
        first = MovementMarshaler(cluster["alpha"], plan).payload(None)
        second = MovementMarshaler(cluster["alpha"], plan).payload(None)
        assert not isinstance(first.stream, (bytes, Segments))  # a StoreProxy
        assert first.stream.key == second.stream.key  # same content, same key
        result = MovementUnmarshaler(cluster["beta"], PLAIN.roundtrip(first)).load()
        assert result.movers[source._fargo_target_id].blob == _anchor(cluster, source).blob


class TestInvocationPartsThroughTheStore:
    """A Core with a store offloads each bulk part of a call on its own."""

    BULK = 4 * BULK_BYTES

    @pytest.fixture
    def ends(self, make_cluster):
        cluster = make_cluster(["alpha", "beta"], store="memory")
        store = cluster["alpha"].store_client.store
        return InvocationMarshaler(cluster["alpha"]), InvocationMarshaler(cluster["beta"]), store

    @staticmethod
    def _parts(wire: bytes) -> list:
        assert wire[:1] == b"\x01"
        return pickle.loads(wire[1:])

    def test_small_invoke_is_the_same_bytes_with_and_without_a_store(self, cluster, ends):
        """Golden: what the parent of PR 18 put on the wire for this call."""
        golden = (
            b"\x00\x80\x05\x95/\x00\x00\x00\x00\x00\x00\x00\x8c\x04ping\x94K\x01\x8c\x03two"
            b"\x94C\x05three\x94\x87\x94}\x94\x8c\x04four\x94G@\x10\x00\x00\x00\x00\x00\x00s\x87\x94."
        )
        call = ("ping", (1, "two", b"three"), {"four": 4.0})
        assert InvocationMarshaler(cluster["alpha"]).dumps(call) == golden
        sender, receiver, store = ends
        assert sender.dumps(call) == golden
        assert receiver.loads(golden) == call
        assert store.stats.puts == 0

    def test_each_distinct_buffer_is_put_once_and_the_store_drains(self, ends):
        sender, receiver, store = ends
        first, second = bytes([1]) * self.BULK, bytes([2]) * self.BULK
        wire = sender.dumps(("echo", (first, second, first), {}))
        head, *proxies = self._parts(wire)
        assert type(head) is bytes and len(wire) < 1_000
        assert [proxy.key.size for proxy in proxies] == [self.BULK, self.BULK]
        assert all(isinstance(proxy, StoreProxy) for proxy in proxies)
        assert store.stats.puts == 2
        _method, args, _kwargs = receiver.loads(wire)
        assert args == (first, second, first) and args[0] is args[2]
        assert all(type(arg) is bytes for arg in args)
        assert len(store) == 0 and store.stats.evictions == 2

    def test_a_buffer_sent_again_or_sent_back_is_not_hashed_again(self, ends):
        sender, receiver, store = ends
        buffer = bytes([3]) * self.BULK
        arrived = receiver.loads(sender.dumps(buffer))
        assert store.stats.bytes_hashed == self.BULK
        assert sender.loads(receiver.dumps(arrived)) is buffer  # the caller's own object
        receiver.loads(sender.dumps(buffer))
        assert store.stats.bytes_hashed == self.BULK
        assert len(store) == 0

    def test_bytearray_arrives_as_a_copy_the_callee_may_change(self, ends):
        sender, receiver, store = ends
        argument = bytearray(bytes([4]) * self.BULK)
        wire = sender.dumps(("fill", (argument,), {}))
        (whole,) = self._parts(wire)  # in the pickle, and the pickle in the store
        assert isinstance(whole, StoreProxy) and whole.key.size > self.BULK
        _method, (arrived,), _kwargs = receiver.loads(wire)
        assert type(arrived) is bytearray and arrived == argument
        arrived[0] = 99
        assert argument[0] == 4
        assert len(store) == 0

    def test_bulk_str_still_ships_as_one_proxy(self, ends):
        sender, receiver, store = ends
        text = "z" * self.BULK
        (whole,) = self._parts(sender.dumps(text))
        assert isinstance(whole, StoreProxy)
        assert store.stats.puts == 1
        assert receiver.loads(b"\x01" + pickle.dumps([whole])) == text
        assert len(store) == 0

    def test_parts_below_a_higher_threshold_stay_inline(self, make_cluster):
        cluster = make_cluster(["alpha", "beta"], store="memory", store_threshold=8 * BULK_BYTES)
        buffer = bytes([5]) * self.BULK
        wire = InvocationMarshaler(cluster["alpha"]).dumps(("echo", (buffer,), {}))
        assert wire[:1] == b"\x00" and len(wire) > self.BULK
        assert InvocationMarshaler(cluster["beta"]).loads(wire) == ("echo", (buffer,), {})
        assert cluster["alpha"].store_client.store.stats.puts == 0

    @pytest.mark.parametrize(
        "body", [StoreProxy, [], ["text"], [b"head", 7]], ids=["bare", "empty", "str", "int"]
    )
    def test_offloaded_body_that_is_not_a_part_list_is_refused(self, ends, body):
        _sender, receiver, _store = ends
        with pytest.raises(SerializationError):
            receiver.loads(b"\x01" + pickle.dumps(body))

    def test_an_offloaded_body_cut_short_is_a_typed_error(self, ends):
        _sender, receiver, _store = ends
        with pytest.raises(SerializationError):
            receiver.loads(b"\x01" + pickle.dumps([b"head"])[:-2])
