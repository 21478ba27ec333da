"""Tests for hooked serialization."""

import gc
import pickle
import sys
import threading
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.net.serializer import BULK_BYTES, PLAIN, STATS, Segments, Serializer


class Payload:
    def __init__(self, value):
        self.value = value


class Diverted:
    """Marker type diverted out of the stream by the test hooks."""

    def __init__(self, tag):
        self.tag = tag


class TestPlainSerializer:
    def test_roundtrip_basics(self):
        for obj in [1, "s", 3.5, None, True, [1, 2], {"a": (1, 2)}, b"bytes"]:
            assert PLAIN.roundtrip(obj) == obj

    def test_roundtrip_is_a_copy(self):
        original = {"k": [1, 2, 3]}
        copy = PLAIN.roundtrip(original)
        assert copy == original
        assert copy is not original
        assert copy["k"] is not original["k"]

    def test_custom_class_roundtrip(self):
        out = PLAIN.roundtrip(Payload({"deep": [Payload(1)]}))
        assert isinstance(out, Payload)
        assert isinstance(out.value["deep"][0], Payload)

    def test_unserializable_raises(self):
        with pytest.raises(SerializationError):
            PLAIN.dumps(lambda: None)

    def test_a_dump_without_hooks_makes_no_python_call_per_object(self):
        control = [{"kind": "lookup", "id": i, "at": ("a", 7000 + i)} for i in range(1000)]
        PLAIN.dumps(control)  # the pickler exists before the count starts
        calls: list[str] = []

        def count(frame, event, _arg) -> None:
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(count)
        try:
            PLAIN.dumps(control)
        finally:
            sys.setprofile(None)
        assert calls == ["dumps", "_dump"]  # the serializer's own two frames, nothing per object

    def test_token_without_decode_hook_raises(self):
        encoder = Serializer(encode_hook=lambda o: "tok" if isinstance(o, Diverted) else None)
        data = encoder.dumps(Diverted("x"))
        with pytest.raises(SerializationError):
            PLAIN.loads(data)


class TestHookedSerializer:
    def _pair(self):
        registry = {}

        def encode(obj):
            if isinstance(obj, Diverted):
                registry[obj.tag] = obj
                return ("diverted", obj.tag)
            return None

        def decode(token):
            kind, tag = token
            assert kind == "diverted"
            return registry[tag]

        return Serializer(encode_hook=encode, decode_hook=decode), registry

    def test_diverted_objects_keep_identity(self):
        serializer, _registry = self._pair()
        diverted = Diverted("a")
        out = serializer.roundtrip({"inner": diverted})
        assert out["inner"] is diverted

    def test_non_diverted_copied(self):
        serializer, _registry = self._pair()
        payload = Payload(7)
        out = serializer.roundtrip([payload, Diverted("b")])
        assert out[0] is not payload
        assert out[0].value == 7
        assert out[1].tag == "b"

    def test_nested_divert_in_graph(self):
        serializer, _ = self._pair()
        graph = {"list": [Diverted("x"), {"deep": Diverted("y")}]}
        out = serializer.roundtrip(graph)
        assert out["list"][0].tag == "x"
        assert out["list"][1]["deep"].tag == "y"

    def test_shared_object_stays_shared(self):
        serializer, _ = self._pair()
        shared = Payload("shared")
        out = serializer.roundtrip((shared, shared))
        assert out[0] is out[1]

    def test_hook_exception_keeps_fargo_type(self):
        from repro.errors import CompletBoundaryError

        def encode(obj):
            if isinstance(obj, Diverted):
                raise CompletBoundaryError("boundary")
            return None

        serializer = Serializer(encode_hook=encode)
        with pytest.raises(CompletBoundaryError):
            serializer.dumps([Diverted("x")])


# -- bulk beside the stream (dumps_segments) -----------------------------------

#: A few distinct buffers around the threshold; graphs draw from them, so
#: the same object often appears more than once in one graph.
POOL = [bytes([seed]) * size for seed, size in
        ((1, BULK_BYTES), (2, BULK_BYTES + 1), (3, 3 * BULK_BYTES), (4, BULK_BYTES - 1), (5, 7))]



def from_pool(index: int) -> bytes:
    return POOL[index]


pooled = st.sampled_from(range(len(POOL))).map(from_pool)  # a strategy with a short repr
leaves = st.one_of(
    pooled, st.integers(), st.text(max_size=8), st.binary(max_size=16),
    st.builds(bytearray, pooled),
)
graphs = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.builds(Payload, children),
    ),
    max_leaves=12,
)


class Exporter:
    """Reduces to a PickleBuffer of its data, as protocol 5 exporters (numpy) do."""

    def __init__(self, data):
        self.data = data

    def __reduce_ex__(self, protocol):
        return Exporter, (pickle.PickleBuffer(self.data),)


def same(a, b) -> bool:
    """Structural equality that also compares exact types (bytes is not bytearray)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Payload):
        return same(a.value, b.value)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[key], b[key]) for key in a)
    return a == b


class TestSegments:
    @settings(max_examples=60, deadline=None)
    @given(graphs)
    def test_every_form_loads_like_the_in_band_round_trip(self, graph):
        expected = PLAIN.roundtrip(graph)
        dumped = PLAIN.dumps_segments(graph)
        joined = bytes(dumped)
        assert len(dumped) == len(joined)
        for form in (dumped, joined, memoryview(joined)):
            assert same(PLAIN.loads(form), expected)

    def test_nothing_large_gives_the_in_band_bytes(self):
        graph = {"small": POOL[3], "mutable": bytearray(POOL[2])}
        assert PLAIN.dumps_segments(graph) == PLAIN.dumps(graph)

    def test_bulk_is_beside_the_stream_and_comes_back_as_new_bytes(self):
        blob = POOL[2]
        dumped = PLAIN.dumps_segments(["head", blob])
        assert isinstance(dumped, Segments)
        head, beside = dumped.parts
        assert len(head) < 100 and beside.obj is blob  # a view of it, not a copy
        out = PLAIN.loads(dumped)[1]
        assert type(out) is bytes and out == blob
        assert out is not blob  # nothing shared across the sim boundary

    def test_one_buffer_referenced_twice_is_one_segment_and_one_object(self):
        blob = POOL[0]
        dumped = PLAIN.dumps_segments({"a": blob, "b": [blob], "c": POOL[1]})
        assert [len(part) for part in dumped.parts[1:]] == [len(blob), len(POOL[1])]
        for form in (dumped, bytes(dumped)):
            out = PLAIN.loads(form)
            assert out["a"] is out["b"][0] and out["a"] == blob

    def test_a_dump_is_a_snapshot_of_mutable_buffers(self):
        mutable = bytearray(POOL[2])
        dumped = PLAIN.dumps_segments([mutable, POOL[0]])
        mutable[:4] = b"late"
        out = PLAIN.loads(dumped)[0]
        assert type(out) is bytearray and out == POOL[2]

    def test_a_mutable_picklebuffer_stays_in_band(self):
        mutable, frozen = bytearray(POOL[0]), POOL[1]
        dumped = PLAIN.dumps_segments([Exporter(mutable), Exporter(frozen)])
        assert [part.obj for part in dumped.parts[1:]] == [frozen]
        mutable[:4] = b"late"
        first, second = PLAIN.loads(bytes(dumped))
        assert first.data == POOL[0] and second.data == frozen

    def test_nested_segments_are_copied_neither_way(self):
        inner = PLAIN.dumps_segments([POOL[0], POOL[2]])
        outer = PLAIN.dumps_segments({"stream": inner, "more": POOL[1]})
        assert [part.obj for part in outer.parts[2:]] == [POOL[0], POOL[2], POOL[1]]
        arrived = memoryview(bytes(outer))
        stream = PLAIN.loads(arrived)["stream"]
        assert isinstance(stream, Segments)
        assert all(part.obj is arrived.obj for part in stream.parts)  # views of the frame
        assert PLAIN.loads(stream) == [POOL[0], POOL[2]]
        # In-band the parts are copied in, and still load.
        assert PLAIN.loads(PLAIN.roundtrip({"stream": inner})["stream"]) == [POOL[0], POOL[2]]

    def test_buffer_tag_without_buffers_is_refused(self):
        dumped = PLAIN.dumps_segments([POOL[0]])
        with pytest.raises(SerializationError):
            PLAIN.loads(dumped.parts[0])  # the head alone
        with pytest.raises(SerializationError):
            PLAIN.loads(Segments(dumped.parts[:1]))

    @pytest.mark.parametrize("damage", ["truncated", "extended", "count", "table"])
    def test_length_table_that_does_not_add_up_is_refused(self, damage):
        joined = bytearray(bytes(PLAIN.dumps_segments([POOL[0], POOL[1]])))
        if damage == "truncated":
            del joined[-1:]
        elif damage == "extended":
            joined += b"\x00"
        elif damage == "count":
            joined[1:5] = (0xFFFFFFFF).to_bytes(4, "little")
        else:
            del joined[9:]
        with pytest.raises(SerializationError):
            PLAIN.loads(bytes(joined))

    def test_bytes_out_counts_what_travels_beside_the_stream(self):
        before = STATS.bytes_out
        dumped = PLAIN.dumps_segments([POOL[2]])
        assert STATS.bytes_out - before == len(dumped) > len(POOL[2])

    def test_hooks_run_as_on_the_in_band_path(self):
        def encode(obj):
            return ("diverted", obj.tag) if isinstance(obj, Diverted) else None

        serializer = Serializer(encode_hook=encode, decode_hook=lambda token: Diverted(token[1]))
        out = serializer.loads(serializer.dumps_segments([Diverted("t"), POOL[0]]))
        assert out[0].tag == "t" and out[1] == POOL[0]

    def test_a_dump_leaves_no_reference_cycle_and_pins_no_payload(self):
        serializer = Serializer()
        blob = bytes(BULK_BYTES)
        serializer.loads(serializer.dumps_segments([blob]))  # the cached pickler exists now
        gc.collect()
        gc.disable()
        try:
            references = sys.getrefcount(blob)
            serializer.loads(bytes(serializer.dumps_segments([blob])))
            assert sys.getrefcount(blob) == references  # the idle pickler let go of it
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_threads_sharing_one_serializer_never_share_a_pickler(self):
        """PLAIN is every dispatch thread's serializer."""
        failures: list = []

        def hammer(worker: int) -> None:
            mine = [bytes([worker]) * BULK_BYTES, {"worker": worker, "pad": "x" * 500}]
            for _ in range(150):
                if PLAIN.loads(PLAIN.dumps_segments(mine)) != mine:
                    failures.append(("segments", worker))
                if PLAIN.loads(PLAIN.dumps(mine[1])) != mine[1]:
                    failures.append(("in-band", worker))

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures


def test_in_band_dumps_is_byte_for_byte_what_it_was(cluster):
    """``Serializer.dumps`` did not change: every existing caller's bytes, pinned.

    (length, CRC-32) of a control message, an INVOKE payload and a clone
    stream, each holding a buffer above BULK_BYTES, as the commit before
    ``dumps_segments`` produced them in this same two-Core cluster — the
    INVOKE payload as since ``TrackerAddress`` pickles as its two fields,
    four bytes shorter.
    """
    from repro.cluster.workload import Counter, DataSource
    from repro.complet.marshal import marshal_clone

    core = cluster["alpha"]
    counter = Counter(3, _core=core, _at="beta")
    source = DataSource(70_000, _core=core)
    anchor = core.repository.get(source._fargo_target_id)
    control = PLAIN.dumps(("tracker_lookup", 7, {"hops": 0, "blob": b"\x00" * 70_000}))
    invoke = core.invocation.marshaler.dumps(("increment", (counter, b"x" * 70_000), {"by": 2}))
    clone = marshal_clone(core, anchor, core.repository.new_complet_id(anchor)).stream
    assert [(len(data), zlib.crc32(data)) for data in (control, invoke, clone)] == [
        (70_068, 2486353830), (70_295, 2355197145), (70_194, 1699126250),
    ]
