"""The length-prefixed TCP wire framing: round trips and malformed input."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import CoreDownError, SerializationError, TransportError
from repro.net import framing
from repro.net.framing import Frame, FrameDecoder, FramingError
from repro.net.messages import Envelope, MessageKind
from repro.net.serializer import BULK_BYTES, PLAIN, Segments


def request_envelope(payload: bytes = b"body", headers: dict | None = None) -> Envelope:
    return Envelope(
        src="alpha",
        dst="beta",
        kind=MessageKind.INVOKE,
        payload=payload,
        headers=headers or {},
    )


class TestRoundTrip:
    def test_request(self):
        envelope = request_envelope(b"hello", {"oneway": "0", "trace": "t1"})
        data = framing.encode_request(envelope, 42)
        frames = FrameDecoder().feed(data)
        assert len(frames) == 1
        frame = frames[0]
        assert frame.type == framing.REQUEST
        assert frame.request_id == 42
        assert frame.src == "alpha"
        assert frame.dst == "beta"
        assert frame.kind == MessageKind.INVOKE.value
        assert frame.headers == {"oneway": "0", "trace": "t1"}
        assert frame.payload == b"hello"

    def test_oneway(self):
        data = framing.encode_request(request_envelope(), 7, oneway=True)
        frame = FrameDecoder().feed(data)[0]
        assert frame.type == framing.ONEWAY

    def test_to_envelope_rebuilds_coordinates(self):
        original = request_envelope(b"p", {"h": "v"})
        frame = FrameDecoder().feed(framing.encode_request(original, 1))[0]
        rebuilt = frame.to_envelope()
        assert rebuilt.src == original.src
        assert rebuilt.dst == original.dst
        assert rebuilt.kind is original.kind
        assert rebuilt.payload == original.payload
        assert rebuilt.headers == original.headers

    def test_reply(self):
        data = framing.encode_reply(9, b"\x00result")
        frame = FrameDecoder().feed(data)[0]
        assert frame.type == framing.REPLY
        assert frame.request_id == 9
        assert frame.payload == b"\x00result"

    def test_wire_layout_is_length_then_head_then_body(self):
        """The bytes on the wire, spelled out: encoders may not drift from them."""
        request = framing.encode_request(request_envelope(b"pay", {"k": "v"}), 0x0102)
        body = (
            bytes([framing.VERSION, framing.REQUEST]) + (0x0102).to_bytes(8, "little")
            + b"\x05\x00alpha" + b"\x04\x00beta"
            + len(MessageKind.INVOKE.value).to_bytes(2, "little")
            + MessageKind.INVOKE.value.encode()
            + b"\x01\x00" + b"\x01\x00k" + b"\x01\x00v" + b"pay"
        )
        assert request == len(body).to_bytes(4, "little") + body
        reply = framing.encode_reply(7, b"xyz")
        head = bytes([framing.VERSION, framing.REPLY]) + (7).to_bytes(8, "little")
        assert reply == (len(head) + 3).to_bytes(4, "little") + head + b"xyz"

    def test_payload_is_plain_bytes_and_the_decoder_stays_usable(self):
        """Frames are decoded in place; nothing may keep the buffer pinned."""
        decoder = FrameDecoder()
        data = framing.encode_request(request_envelope(b"one"), 1) + framing.encode_reply(1, b"two")
        first, second = decoder.feed(data + data[:3])
        assert type(first.payload) is bytes and type(second.payload) is bytes
        assert decoder.pending_bytes == 3
        assert [f.payload for f in decoder.feed(data[3:])] == [b"one", b"two"]

    def test_empty_payloads(self):
        data = framing.encode_request(request_envelope(b""), 1)
        data += framing.encode_reply(2, b"")
        frames = FrameDecoder().feed(data)
        assert [f.payload for f in frames] == [b"", b""]

    def test_error_frame_carries_typed_exception(self):
        error = CoreDownError("node 'beta' is down")
        data = framing.encode_error(3, error)
        frame = FrameDecoder().feed(data)[0]
        assert frame.type == framing.ERROR
        decoded = framing.decode_error(frame.payload)
        assert isinstance(decoded, CoreDownError)
        assert "beta" in str(decoded)

    def test_unpicklable_error_degrades_to_repr(self):
        class Evil(Exception):
            def __reduce__(self):
                raise RuntimeError("nope")

        data = framing.encode_error(4, Evil("boom"))
        decoded = framing.decode_error(FrameDecoder().feed(data)[0].payload)
        assert isinstance(decoded, TransportError)
        assert "boom" in str(decoded)


class TestPartialReads:
    def test_byte_by_byte(self):
        envelope = request_envelope(b"fragmented-payload", {"k": "v"})
        data = framing.encode_request(envelope, 11)
        decoder = FrameDecoder()
        collected = []
        for i in range(len(data)):
            collected.extend(decoder.feed(data[i:i + 1]))
        assert len(collected) == 1
        assert collected[0].payload == b"fragmented-payload"
        assert decoder.pending_bytes == 0

    def test_several_frames_in_one_chunk(self):
        data = b"".join(
            framing.encode_request(request_envelope(bytes([i]) * i), i)
            for i in range(1, 5)
        )
        frames = FrameDecoder().feed(data)
        assert [f.request_id for f in frames] == [1, 2, 3, 4]

    def test_frame_split_across_chunks_keeps_residue(self):
        data = framing.encode_request(request_envelope(b"abc"), 1)
        decoder = FrameDecoder()
        assert decoder.feed(data[:5]) == []
        assert decoder.pending_bytes == 5
        frames = decoder.feed(data[5:])
        assert len(frames) == 1


class TestMalformedInput:
    def test_bad_version(self):
        data = bytearray(framing.encode_request(request_envelope(), 1))
        data[4] = framing.VERSION + 1
        with pytest.raises(FramingError):
            FrameDecoder().feed(bytes(data))

    def test_unknown_type(self):
        data = bytearray(framing.encode_request(request_envelope(), 1))
        data[5] = 99
        with pytest.raises(FramingError):
            FrameDecoder().feed(bytes(data))

    def test_oversized_length_prefix(self):
        import struct

        data = struct.pack("<I", framing.MAX_FRAME_BYTES + 1)
        with pytest.raises(FramingError):
            FrameDecoder().feed(data)

    def test_undersized_frame(self):
        import struct

        data = struct.pack("<I", 2) + b"xx"
        with pytest.raises(FramingError):
            FrameDecoder().feed(data)

    def test_truncated_string_field(self):
        data = bytearray(framing.encode_request(request_envelope(), 1))
        # Claim src is far longer than the remaining body.
        offset = 4 + 10  # length prefix + head
        data[offset:offset + 2] = (60_000).to_bytes(2, "little")
        with pytest.raises(FramingError):
            FrameDecoder().feed(bytes(data))

    def test_decode_error_rejects_garbage(self):
        with pytest.raises(FramingError) as raised:
            framing.decode_error(b"not-a-pickle")
        # Decoded by the plain serializer, whose failures are typed.
        assert isinstance(raised.value.__cause__, SerializationError)

    def test_decode_error_rejects_non_exception(self):
        with pytest.raises(FramingError):
            framing.decode_error(pickle.dumps({"not": "an exception"}))

    def test_overlong_string_field_rejected_at_encode(self):
        envelope = request_envelope()
        envelope.headers["k"] = "v" * 70_000
        with pytest.raises(FramingError):
            framing.encode_request(envelope, 1)


def test_framing_error_is_transport_error():
    assert issubclass(FramingError, TransportError)


def test_frame_dataclass_defaults():
    frame = Frame(type=framing.REPLY, request_id=1, payload=b"")
    assert frame.src == "" and frame.headers == {}


# -- bulk frames: gathered out, received in place ------------------------------

LEAF = 256 * 1024


def bulk_payload() -> Segments:
    """Shaped like a group move: a small head and three 256 KiB buffers."""
    payload = PLAIN.dumps_segments({"leaves": [bytes([seed]) * LEAF for seed in (1, 2, 3)]})
    assert isinstance(payload, Segments) and len(payload.parts) == 4
    return payload


def feed_in_place(decoder: FrameDecoder, chunks) -> list[Frame]:
    """What a TCP connection does: receive into the tail where one is offered."""
    frames: list[Frame] = []
    for chunk in chunks:
        chunk = memoryview(chunk)
        while len(chunk):
            tail = decoder.tail()
            if tail is None:
                # A read never knows where a frame ends: offer everything.
                frames += decoder.feed(chunk)
                break
            count = min(len(tail), len(chunk))
            tail[:count] = chunk[:count]
            frames += decoder.landed(count)
            chunk = chunk[count:]
    return frames


def split_at(data: bytes, *offsets: int) -> list[bytes]:
    bounds = [0, *sorted(offsets), len(data)]
    return [data[begin:end] for begin, end in zip(bounds, bounds[1:])]


def summary(frames: list[Frame]) -> list[tuple]:
    return [(f.type, f.request_id, f.src, f.dst, f.kind, f.headers, bytes(f.payload))
            for f in frames]


class TestBulkFrames:
    def test_segments_encode_to_the_buffers_of_the_same_frame(self):
        payload = bulk_payload()
        parts = framing.encode_request(request_envelope(payload, {"k": "v"}), 5)
        assert isinstance(parts, list)
        assert [part.obj for part in parts[-3:]] == [part.obj for part in payload.parts[1:]]
        assert sum(map(len, parts[:-3])) < 200  # everything else is small
        joined = framing.encode_request(request_envelope(bytes(payload), {"k": "v"}), 5)
        assert type(joined) is bytes and joined == b"".join(parts)
        reply = framing.encode_reply(5, payload)
        assert b"".join(reply) == framing.encode_reply(5, bytes(payload))

    def test_frame_header_and_version_are_unchanged(self):
        parts = framing.encode_request(request_envelope(bulk_payload()), 0x0102)
        head = parts[0]
        assert int.from_bytes(head[:4], "little") == sum(map(len, parts)) - 4
        assert head[4:6] == bytes([framing.VERSION, framing.REQUEST])
        assert int.from_bytes(head[6:14], "little") == 0x0102

    def test_bulk_payload_is_a_read_only_view_that_outlives_the_decoder(self):
        decoder = FrameDecoder()
        data = framing.encode_reply(1, bytes(BULK_BYTES)) + framing.encode_reply(2, b"small")
        bulk, small = decoder.feed(data)
        assert isinstance(bulk.payload, memoryview) and bulk.payload.readonly
        assert type(small.payload) is bytes
        first = bytes(bulk.payload)
        assert decoder.feed(framing.encode_reply(3, bytes([7]) * BULK_BYTES))[0].payload[0] == 7
        del decoder
        assert bulk.payload == first  # its buffer was its own

    def test_threshold_is_the_frame_length(self):
        head = 10  # version, type, request id
        below = FrameDecoder().feed(framing.encode_reply(1, bytes(BULK_BYTES - head - 1)))[0]
        at = FrameDecoder().feed(framing.encode_reply(1, bytes(BULK_BYTES - head)))[0]
        assert type(below.payload) is bytes and isinstance(at.payload, memoryview)

    @pytest.mark.parametrize("feeder", ["feed", "in_place"])
    def test_bulk_then_small_decodes_the_same_however_it_is_split(self, feeder):
        payload = bulk_payload()
        parts = framing.encode_request(request_envelope(payload, {"trace": "t"}), 11)
        data = b"".join(parts) + framing.encode_reply(12, b"after")

        def decode(chunks) -> list[tuple]:
            decoder = FrameDecoder()
            if feeder == "feed":
                frames = [frame for chunk in chunks for frame in decoder.feed(chunk)]
            else:
                frames = feed_in_place(decoder, chunks)
            assert decoder.pending_bytes == 0 and decoder.tail() is None
            return summary(frames)

        whole = decode([data])
        assert [entry[1] for entry in whole] == [11, 12]
        assert whole[0][-1] == bytes(payload) and whole[1][-1] == b"after"
        assert PLAIN.loads(whole[0][-1]) == PLAIN.loads(payload)
        assert decode([data[i:i + 1] for i in range(len(data))]) == whole  # byte by byte
        # The prefix, the end of the frame head, every segment boundary, the frame's end.
        boundaries = {4, 14}
        position = 0
        for part in parts:
            position += len(part)
            boundaries.add(position)
        for boundary in sorted(boundaries):
            for offset in range(max(1, boundary - 8), min(len(data), boundary + 9)):
                assert decode(split_at(data, offset)) == whole, offset
                assert decode(split_at(data, offset, min(len(data) - 1, offset + 70_000))) == whole

    def test_pending_bytes_counts_a_bulk_frame_in_progress(self):
        decoder = FrameDecoder()
        data = framing.encode_reply(1, bytes(BULK_BYTES))
        assert decoder.feed(data[:3]) == [] and decoder.pending_bytes == 3
        assert decoder.tail() is None  # the length is not known yet
        assert decoder.feed(data[3:100]) == [] and decoder.pending_bytes == 100
        assert len(decoder.tail()) == len(data) - 100
        assert len(decoder.feed(data[100:])) == 1 and decoder.pending_bytes == 0

    def test_malformed_bulk_frame_is_refused_and_the_decoder_left_clean(self):
        data = bytearray(framing.encode_reply(1, bytes(BULK_BYTES)))
        data[4] = framing.VERSION + 1
        decoder = FrameDecoder()
        with pytest.raises(FramingError):
            decoder.feed(bytes(data))
        assert decoder.tail() is None and decoder.pending_bytes == 0


class TestOversizedFrames:
    """Refused where they are built, typed, before a byte is written."""

    @pytest.fixture(autouse=True)
    def small_ceiling(self, monkeypatch):
        monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 4 * LEAF)

    @pytest.mark.parametrize("form", ["bytes", "segments"])
    def test_request_reply_and_error(self, form):
        big = PLAIN.dumps_segments([bytes([seed]) * LEAF for seed in range(5)])
        assert isinstance(big, Segments) and len(big) > framing.MAX_FRAME_BYTES
        payload = big if form == "segments" else bytes(big)
        with pytest.raises(FramingError, match="MAX_FRAME_BYTES"):
            framing.encode_request(request_envelope(payload), 1)
        with pytest.raises(FramingError, match="MAX_FRAME_BYTES"):
            framing.encode_reply(1, payload)

    def test_a_frame_of_exactly_the_ceiling_passes(self):
        overhead = len(framing.encode_reply(1, b"")) - 4
        frame = framing.encode_reply(1, bytes(framing.MAX_FRAME_BYTES - overhead))
        assert len(FrameDecoder().feed(frame)) == 1
        with pytest.raises(FramingError):
            framing.encode_reply(1, bytes(framing.MAX_FRAME_BYTES - overhead + 1))

    def test_oversized_error_body(self):
        with pytest.raises(FramingError, match="MAX_FRAME_BYTES"):
            framing.encode_error(1, TransportError("x" * (5 * LEAF)))
