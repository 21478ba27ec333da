"""The length-prefixed TCP wire framing: round trips and malformed input."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import CoreDownError, TransportError
from repro.net import framing
from repro.net.framing import Frame, FrameDecoder, FramingError
from repro.net.messages import Envelope, MessageKind


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
        with pytest.raises(FramingError):
            framing.decode_error(b"not-a-pickle")

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
