"""Length-prefixed wire framing for stream transports (TCP).

The simulated network hands :class:`~repro.net.messages.Envelope`
objects across a function call; a byte stream needs explicit frames.
One frame is::

    <u32 length> <u8 version> <u8 type> <u64 request-id> <body>

where ``length`` counts everything after itself.  REQUEST/ONEWAY bodies
carry the envelope coordinates (src, dst, kind as length-prefixed UTF-8,
then the header dict) followed by the payload; REPLY bodies are raw
reply bytes; ERROR bodies are a pickled transport-level exception that
the sender re-raises (reachability failures such as "destination down"
must surface as the same typed errors the simulated network raises).

The payload itself is passed through *untouched*: it is whatever the
RPC layer already produced — the struct-framed INVOKE encoding and the
1-byte status-prefix reply frames — so the per-message overhead of the
codec is exactly the header above, and the application-level encoding
is byte-identical on both backends.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass, field

from repro.errors import TransportError
from repro.net.messages import Envelope, MessageKind

#: Frame types.
REQUEST = 1
REPLY = 2
ONEWAY = 3
ERROR = 4

#: Protocol version byte; bumped on incompatible frame-layout changes.
VERSION = 1

#: Hard ceiling on one frame (guards a corrupted length prefix from
#: allocating gigabytes); generous enough for any marshaled pull group.
MAX_FRAME_BYTES = 1 << 30

_LENGTH = struct.Struct("<I")
_HEAD = struct.Struct("<BBQ")       # version, type, request id
_PREFIXED_HEAD = struct.Struct("<IBBQ")  # _LENGTH then _HEAD, no padding
_SHORT = struct.Struct("<H")        # length of one UTF-8 field / count
_TYPES = frozenset({REQUEST, REPLY, ONEWAY, ERROR})


class FramingError(TransportError):
    """The byte stream does not decode as a valid frame."""


@dataclass(slots=True)
class Frame:
    """One decoded wire frame."""

    type: int
    request_id: int
    payload: bytes
    src: str = ""
    dst: str = ""
    kind: str = ""
    headers: dict[str, str] = field(default_factory=dict)

    def to_envelope(self) -> Envelope:
        """Rebuild the envelope of a REQUEST/ONEWAY frame."""
        return Envelope(
            src=self.src,
            dst=self.dst,
            kind=MessageKind(self.kind),
            payload=self.payload,
            headers=dict(self.headers),
        )


def _pack_str(text: str) -> bytes:
    data = text.encode("utf-8")
    if len(data) > 0xFFFF:
        raise FramingError(f"string field too long to frame ({len(data)} bytes)")
    return _SHORT.pack(len(data)) + data


def encode_request(envelope: Envelope, request_id: int, *, oneway: bool = False) -> bytes:
    """Frame an outgoing envelope (REQUEST, or ONEWAY when ``oneway``)."""
    parts = [
        b"",  # the length prefix, known once the rest is
        _HEAD.pack(VERSION, ONEWAY if oneway else REQUEST, request_id),
        _pack_str(envelope.src),
        _pack_str(envelope.dst),
        _pack_str(envelope.kind.value),
        _SHORT.pack(len(envelope.headers)),
    ]
    for key, value in envelope.headers.items():
        parts.append(_pack_str(key))
        parts.append(_pack_str(value))
    parts.append(envelope.payload)
    parts[0] = _LENGTH.pack(sum(map(len, parts)))
    return b"".join(parts)  # the one copy of the payload


def _prefixed(frame_type: int, request_id: int, body: bytes) -> bytes:
    """A whole REPLY/ERROR frame; ``body`` is copied once."""
    return _PREFIXED_HEAD.pack(_HEAD.size + len(body), VERSION, frame_type, request_id) + body


def encode_reply(request_id: int, payload: bytes) -> bytes:
    """Frame the reply bytes for request ``request_id``."""
    return _prefixed(REPLY, request_id, payload)


def encode_error(request_id: int, error: BaseException) -> bytes:
    """Frame a transport-level failure (re-raised at the sender)."""
    try:
        body = pickle.dumps(error, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:  # noqa: BLE001 - exotic exception state
        body = pickle.dumps(TransportError(repr(error)))
    return _prefixed(ERROR, request_id, body)


def decode_error(payload: bytes) -> BaseException:
    """Recover the exception carried by an ERROR frame."""
    try:
        error = pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 - corrupted peer frame
        raise FramingError(f"undecodable ERROR frame: {exc!r}") from exc
    if not isinstance(error, BaseException):
        raise FramingError(f"ERROR frame carried {type(error).__name__}, not an exception")
    return error


def _decode_body(body: memoryview) -> Frame:
    """Decode what follows the length prefix; the payload is copied out once."""
    version, frame_type, request_id = _HEAD.unpack_from(body)
    if version != VERSION:
        raise FramingError(f"unsupported frame version {version} (expected {VERSION})")
    if frame_type not in _TYPES:
        raise FramingError(f"unknown frame type {frame_type}")
    offset = _HEAD.size
    if frame_type in (REPLY, ERROR):
        return Frame(type=frame_type, request_id=request_id, payload=bytes(body[offset:]))

    def take_str() -> str:
        nonlocal offset
        (length,) = _SHORT.unpack_from(body, offset)
        offset += _SHORT.size
        if offset + length > len(body):
            raise FramingError("truncated string field inside frame")
        text = str(body[offset:offset + length], "utf-8")
        offset += length
        return text

    src = take_str()
    dst = take_str()
    kind = take_str()
    (header_count,) = _SHORT.unpack_from(body, offset)
    offset += _SHORT.size
    headers: dict[str, str] = {}
    for _ in range(header_count):
        key = take_str()
        headers[key] = take_str()
    return Frame(
        type=frame_type,
        request_id=request_id,
        payload=bytes(body[offset:]),
        src=src,
        dst=dst,
        kind=kind,
        headers=headers,
    )


class FrameDecoder:
    """Incremental decoder: feed stream chunks, take out whole frames.

    Handles arbitrary fragmentation — a frame split across reads, or
    several frames arriving in one read — which is exactly what a TCP
    stream does and what the unit tests exercise byte by byte.
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[Frame]:
        """Append ``data``; return every frame completed by it."""
        self._buffer.extend(data)
        frames: list[Frame] = []
        while True:
            frame = self._next()
            if frame is None:
                return frames
            frames.append(frame)

    def _next(self) -> Frame | None:
        if len(self._buffer) < _LENGTH.size:
            return None
        (length,) = _LENGTH.unpack_from(self._buffer)
        if length > MAX_FRAME_BYTES:
            raise FramingError(f"frame of {length} bytes exceeds MAX_FRAME_BYTES")
        if length < _HEAD.size:
            raise FramingError(f"frame of {length} bytes is shorter than its header")
        end = _LENGTH.size + length
        if len(self._buffer) < end:
            return None
        # Decoded in place: the payload is the only part copied, and once.
        # Every view is gone again before the buffer is resized.
        with memoryview(self._buffer) as view:
            frame = _decode_body(view[_LENGTH.size:end])
        del self._buffer[:end]
        return frame

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards an incomplete frame."""
        return len(self._buffer)
