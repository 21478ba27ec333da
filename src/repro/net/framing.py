"""Length-prefixed wire framing for stream transports (TCP).

The simulated network hands :class:`~repro.net.messages.Envelope`
objects across a function call; a byte stream needs explicit frames.
One frame is::

    <u32 length> <u8 version> <u8 type> <u64 request-id> <body>

where ``length`` counts everything after itself.  REQUEST/ONEWAY bodies
carry the envelope coordinates (src, dst, kind as length-prefixed UTF-8,
then the header dict) followed by the payload; REPLY bodies are raw
reply bytes; ERROR bodies are a transport-level exception, pickled by
the plain serializer, that the sender re-raises (reachability failures
such as "destination down" must surface as the same typed errors the
simulated network raises).

The payload itself is passed through *untouched*: it is whatever the
RPC layer already produced — the struct-framed INVOKE encoding and the
1-byte status-prefix reply frames — so the per-message overhead of the
codec is exactly the header above, and the application-level encoding
is byte-identical on both backends.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.errors import TransportError
from repro.net.messages import Envelope, MessageKind
from repro.net.serializer import BULK_BYTES, PLAIN, Segments

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
_SHORT = struct.Struct("<H")        # length of one UTF-8 field / count
_TYPES = frozenset({REQUEST, REPLY, ONEWAY, ERROR})


class FramingError(TransportError):
    """The byte stream does not decode as a valid frame."""


@dataclass(slots=True)
class Frame:
    """One decoded wire frame."""

    type: int
    request_id: int
    payload: bytes | memoryview
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


def _frame(head: bytes, payload: bytes | memoryview | Segments) -> bytes | list[bytes]:
    """The frame of ``head`` (what goes between length prefix and payload) and ``payload``.

    One ``bytes``, the one copy of the payload — or, for :class:`Segments`,
    the frame's buffers in order, uncopied.  An oversized frame is
    refused here, before a byte of it is written.
    """
    length = len(head) + len(payload)
    if length > MAX_FRAME_BYTES:
        raise FramingError(f"frame of {length} bytes exceeds MAX_FRAME_BYTES")
    head = _LENGTH.pack(length) + head
    if isinstance(payload, Segments):
        return [head, *payload.wire()]
    return head + payload


def encode_request(
    envelope: Envelope, request_id: int, *, oneway: bool = False
) -> bytes | list[bytes]:
    """Frame an outgoing envelope (REQUEST, or ONEWAY when ``oneway``)."""
    parts = [
        _HEAD.pack(VERSION, ONEWAY if oneway else REQUEST, request_id),
        _pack_str(envelope.src),
        _pack_str(envelope.dst),
        _pack_str(envelope.kind.value),
        _SHORT.pack(len(envelope.headers)),
    ]
    for key, value in envelope.headers.items():
        parts.append(_pack_str(key))
        parts.append(_pack_str(value))
    return _frame(b"".join(parts), envelope.payload)


def encode_reply(
    request_id: int, payload: bytes | memoryview | Segments
) -> bytes | list[bytes]:
    """Frame the reply bytes for request ``request_id``."""
    return _frame(_HEAD.pack(VERSION, REPLY, request_id), payload)


def encode_error(request_id: int, error: BaseException) -> bytes:
    """Frame a transport-level failure (re-raised at the sender)."""
    try:
        body = PLAIN.dumps(error)
    except Exception:  # noqa: BLE001 - exotic exception state
        body = PLAIN.dumps(TransportError(repr(error)))
    return _frame(_HEAD.pack(VERSION, ERROR, request_id), body)  # type: ignore[return-value]


def decode_error(payload: bytes) -> BaseException:
    """Recover the exception carried by an ERROR frame."""
    try:
        error = PLAIN.loads(payload)
    except Exception as exc:  # noqa: BLE001 - corrupted peer frame: SerializationError
        raise FramingError(f"undecodable ERROR frame: {exc!r}") from exc
    if not isinstance(error, BaseException):
        raise FramingError(f"ERROR frame carried {type(error).__name__}, not an exception")
    return error


def _decode_body(body: memoryview, own=bytes) -> Frame:
    """Decode what follows the length prefix; the payload is ``own(its part of body)``:
    copied out once by ``bytes``, kept in place by ``memoryview.toreadonly``."""
    version, frame_type, request_id = _HEAD.unpack_from(body)
    if version != VERSION:
        raise FramingError(f"unsupported frame version {version} (expected {VERSION})")
    if frame_type not in _TYPES:
        raise FramingError(f"unknown frame type {frame_type}")
    offset = _HEAD.size
    if frame_type in (REPLY, ERROR):
        return Frame(type=frame_type, request_id=request_id, payload=own(body[offset:]))

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
        payload=own(body[offset:]),
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

    A frame of :data:`BULK_BYTES` or more gets a buffer of exactly its
    size once its length prefix is known; a reader that asks for
    :meth:`tail` receives the rest of the frame straight into it.  The
    payload is a read-only view of that buffer, which is the frame's
    alone: whoever holds the view may keep it, and the memory with it.
    """

    __slots__ = ("_buffer", "_bulk", "_filled")

    def __init__(self) -> None:
        self._buffer = bytearray()
        #: The bulk frame being received (``_buffer`` is empty meanwhile).
        self._bulk: memoryview | None = None
        self._filled = 0

    def feed(self, data: bytes | memoryview) -> list[Frame]:
        """Take in ``data``; return every frame completed by it."""
        frames: list[Frame] = []
        if self._buffer:  # the start of a frame is waiting for its rest
            self._buffer.extend(data)
            # Every view is gone again before the buffer is resized.
            with memoryview(self._buffer) as view:
                used = self._take(view, frames)
            del self._buffer[:used]
        else:  # decoded where it is; only an incomplete start is kept
            view = memoryview(data)
            self._buffer.extend(view[self._take(view, frames):])
        return frames

    def tail(self) -> memoryview | None:
        """Where the next bytes belong while a bulk frame is incomplete, else None.

        Receive into it, any number of bytes, then call :meth:`landed`.
        """
        return None if self._bulk is None else self._bulk[self._filled:]

    def landed(self, count: int) -> list[Frame]:
        """``count`` bytes were received into :meth:`tail`; the frame, if complete."""
        assert self._bulk is not None
        self._filled += count
        if self._filled < len(self._bulk):
            return []
        body, self._bulk = self._bulk, None
        return [_decode_body(body, memoryview.toreadonly)]

    def _take(self, view: memoryview, frames: list[Frame]) -> int:
        """Decode the frames in ``view`` onto ``frames``; how much of it is used up."""
        at = 0
        while True:
            tail = self.tail()
            if tail is not None:  # what is here of a bulk frame moves over
                count = min(len(view) - at, len(tail))
                tail[:count] = view[at:at + count]
                frames += self.landed(count)
                at += count
                if self._bulk is not None:
                    return at  # all of it; the rest lands in place
            if len(view) - at < _LENGTH.size:
                return at
            (length,) = _LENGTH.unpack_from(view, at)
            if length > MAX_FRAME_BYTES:
                raise FramingError(f"frame of {length} bytes exceeds MAX_FRAME_BYTES")
            if length < _HEAD.size:
                raise FramingError(f"frame of {length} bytes is shorter than its header")
            end = at + _LENGTH.size + length
            if length >= BULK_BYTES:
                self._bulk, self._filled = memoryview(bytearray(length)), 0
                at += _LENGTH.size
            elif len(view) < end:
                return at
            else:  # the payload is the only part copied, and once
                frames.append(_decode_body(view[at + _LENGTH.size:end]))
                at = end

    @property
    def pending_bytes(self) -> int:
        """Bytes received towards an incomplete frame."""
        if self._bulk is not None:
            return _LENGTH.size + self._filled
        return len(self._buffer)
