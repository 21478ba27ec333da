"""Pickle-based serialization with pluggable complet-aware hooks.

The paper's mobility protocol rides on Java Serialization, intercepting
the graph traversal whenever it reaches a complet reference and applying
a per-reference-type routine (recurse for ``pull``, copy for
``duplicate``, type-only for ``stamp``, token for ``link``).  The Python
analogue is pickle's ``persistent_id`` / ``persistent_load`` pair: the
:class:`Serializer` here accepts an *encode hook* called for every object
the pickler visits (returning a token diverts the object out of the
stream) and a *decode hook* that materializes tokens on the other side.
The complet layer (:mod:`repro.complet.marshal`) supplies hooks bound to
the operation in progress; plain control messages use no hooks.

There are two ways out.  :meth:`Serializer.dumps` is in-band, one
``bytes``: what the store, checkpoints, the clone-stream cache and every
control message use.  :meth:`Serializer.dumps_segments` is for a payload
on its way to a transport: exact ``bytes`` of :data:`BULK_BYTES` or more
(and the parts of a nested :class:`Segments`) travel *beside* the pickle
stream as protocol 5 out-of-band buffers, uncopied down to the socket.
Mutable buffers stay in-band, so a dump is still a snapshot.
:meth:`Serializer.loads` takes either form; a bulk buffer comes back as
``bytes(view)``, the one copy of it that is left.
"""

from __future__ import annotations

import io
import itertools
import pickle
import struct
from collections.abc import Callable

from repro.errors import FarGoError, SerializationError

#: An encode hook maps an object to a token (any picklable value) or None
#: to let pickle serialize the object normally.
EncodeHook = Callable[[object], object | None]
#: A decode hook maps a token back to a live object at the receiving side.
DecodeHook = Callable[[object], object]

#: Size from which bulk is not copied: a buffer travels beside the stream,
#: a frame is received in place, the closure scanner counts instead of
#: scanning.  Pickle's own large-object size and the store's offload size.
BULK_BYTES = 1 << 16

#: Persistent id of a diverted bulk ``bytes``: ``(tag, ordinal, buffer | None if met before)``.
_BULK_TAG = "fargo-bulk"
#: First byte of a joined :class:`Segments`; no pickle starts with it.
_JOINED = 0xFF
_TABLE = struct.Struct("<BI")  # _JOINED, number of parts; then a u64 length for each


class Segments:
    """A payload in parts: the head pickle, then the buffers beside it.

    ``len()`` is its size on the wire and ``bytes()`` the joined form (a
    table of lengths, then the parts), which ``loads`` accepts like the parts.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: list) -> None:
        self.parts = parts

    def wire(self) -> list:
        """What a transport writes, in order; the parts are not copied."""
        lengths = [len(part) for part in self.parts]
        table = struct.pack(f"<BI{len(lengths)}Q", _JOINED, len(lengths), *lengths)
        return [table, *self.parts]

    def __len__(self) -> int:
        return _TABLE.size + sum(8 + len(part) for part in self.parts)

    def __bytes__(self) -> bytes:
        return b"".join(self.wire())

    def __reduce__(self) -> tuple:
        # Out-of-band again inside an outer segment dump; copied in by ``dumps``.
        return Segments, ([pickle.PickleBuffer(part) for part in self.parts],)


def _split(data: bytes | memoryview) -> list:
    """The parts of a joined :class:`Segments`, as views."""
    view = memoryview(data)
    _tag, count = _TABLE.unpack_from(view)
    lengths = struct.unpack_from(f"<{count}Q", view, _TABLE.size)
    ends = list(itertools.accumulate(lengths, initial=_TABLE.size + 8 * count))
    if ends[-1] != len(view):
        raise SerializationError("segment lengths do not add up to the payload")
    return [view[begin:end] for begin, end in itertools.pairwise(ends)]


class SerializerStats:
    """Process-wide serializer counters (deterministic, bench-facing).

    All :class:`Serializer` instances feed the same tallies so a bench
    scenario can measure total pickling work regardless of which unit
    (movement, invocation, persistence, control plane) triggered it.
    """

    __slots__ = ("dumps_calls", "loads_calls", "bytes_out", "buffers_allocated")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.dumps_calls = 0
        self.loads_calls = 0
        self.bytes_out = 0
        self.buffers_allocated = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "dumps_calls": self.dumps_calls,
            "loads_calls": self.loads_calls,
            "bytes_out": self.bytes_out,
            "buffers_allocated": self.buffers_allocated,
        }


#: Shared counters; ``STATS.reset()`` scopes a measurement window.
STATS = SerializerStats()


class _HookedPickler(pickle.Pickler):
    """Calls the encode hook, if there is one, as its ``persistent_id``:
    without one, a dump makes no Python-level call per object."""

    #: What the last dump put beside the stream: nothing, in-band.
    beside: tuple | list = ()

    def __init__(self, buffer: io.BytesIO, encode_hook: EncodeHook | None, **options) -> None:
        if encode_hook is not None:
            self.persistent_id = encode_hook  # type: ignore[method-assign]
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL, **options)


class _SegmentPickler(_HookedPickler):
    """Puts immutable bulk beside the stream, in :attr:`beside`."""

    def __init__(self, buffer: io.BytesIO, encode_hook: EncodeHook | None) -> None:
        #: Views that left the stream during this dump, in stream order, and
        #: id() -> ordinal of each diverted ``bytes`` (kept alive by its view).
        self.beside: list[memoryview] = []
        self._ordinals: dict[int, int] = {}
        beside = self.beside  # a callback holding the pickler would be a cycle

        def collect(buffer: pickle.PickleBuffer) -> bool:
            view = buffer.raw()
            if not view.readonly:
                return True  # in-band: what can still change is copied now
            beside.append(view)
            return False

        self._encode_hook = encode_hook  # called below, not as the persistent_id
        super().__init__(buffer, None, buffer_callback=collect)

    def persistent_id(self, obj: object) -> object | None:  # noqa: D102
        if type(obj) is bytes and len(obj) >= BULK_BYTES:
            ordinal = self._ordinals.get(id(obj))
            if ordinal is not None:
                return (_BULK_TAG, ordinal, None)
            ordinal = self._ordinals[id(obj)] = len(self._ordinals)
            return (_BULK_TAG, ordinal, pickle.PickleBuffer(obj))
        hook = self._encode_hook
        return None if hook is None else hook(obj)

    def clear_memo(self) -> None:
        """Also forget what the last dump put beside the stream."""
        super().clear_memo()
        self.beside.clear()
        self._ordinals.clear()


class _HookedUnpickler(pickle.Unpickler):
    """Constructed bare (no Python-level ``__init__`` on the hot path); ``loads`` sets the hook."""

    _decode_hook: DecodeHook | None = None

    def persistent_load(self, token: object) -> object:  # noqa: D102
        if type(token) is tuple and token[:1] == (_BULK_TAG,):
            _tag, ordinal, view = token
            bulk = self.__dict__.setdefault("_bulk", {})  # ordinal -> bytes, this load
            if view is not None:
                bulk[ordinal] = bytes(view)  # the one copy of a bulk buffer
            return bulk[ordinal]
        if self._decode_hook is None:
            raise SerializationError(
                "stream contains persistent tokens but no decode hook was given"
            )
        return self._decode_hook(token)


class Serializer:
    """Serialize and deserialize payloads crossing a Core boundary.

    A serializer without hooks is a plain (but still isolating) pickler;
    supplying hooks turns it into the reference-aware marshaler the
    movement and invocation units need.
    """

    def __init__(
        self,
        encode_hook: EncodeHook | None = None,
        decode_hook: DecodeHook | None = None,
    ) -> None:
        self._encode_hook = encode_hook
        self._decode_hook = decode_hook
        #: The idle (buffer, pickler) per pickler class.  A dump takes its
        #: pair out, so a re-entrant or concurrent dump builds its own.
        self._idle: dict[type, tuple[io.BytesIO, _HookedPickler]] = {}

    def dumps(self, obj: object) -> bytes:
        return self._dump(obj, _HookedPickler)  # type: ignore[return-value]

    def dumps_segments(self, obj: object) -> bytes | Segments:
        """:meth:`dumps` with immutable bulk beside the stream: :class:`Segments`,
        or the same ``bytes`` as :meth:`dumps` when nothing large was met."""
        return self._dump(obj, _SegmentPickler)

    def _dump(self, obj: object, kind: type[_HookedPickler]) -> bytes | Segments:
        STATS.dumps_calls += 1
        idle = self._idle.pop(kind, None)
        if idle is None:
            STATS.buffers_allocated += 1
            buffer = io.BytesIO()
            idle = buffer, kind(buffer, self._encode_hook)
        buffer, pickler = idle
        try:  # a failed dump does not return its pair: framer state is suspect
            pickler.dump(obj)
        except FarGoError:
            raise  # hook errors (boundary violations, ...) keep their type
        except Exception as exc:  # noqa: BLE001 - pickle raises many types
            raise SerializationError(f"cannot serialize {type(obj).__name__}: {exc}") from exc
        data: bytes | Segments = buffer.getvalue()
        beside = pickler.beside
        if beside:
            data = Segments([data, *beside])
        STATS.bytes_out += len(data)
        # Emptied before it idles, not to keep a whole movement group alive.
        buffer.seek(0)
        buffer.truncate()
        pickler.clear_memo()
        self._idle[kind] = idle
        return data

    def loads(self, data: bytes | memoryview | Segments) -> object:
        STATS.loads_calls += 1
        try:
            segmented = isinstance(data, Segments)
            if not segmented and data[0] != _JOINED:  # a plain pickle, the usual case
                unpickler = _HookedUnpickler(io.BytesIO(data))
            else:
                head, *buffers = data.parts if segmented else _split(data)
                unpickler = _HookedUnpickler(io.BytesIO(head), buffers=buffers)
            unpickler._decode_hook = self._decode_hook
            return unpickler.load()
        except FarGoError:
            raise  # hook errors (stamp resolution, ...) keep their type
        except Exception as exc:  # noqa: BLE001
            raise SerializationError(f"cannot deserialize payload: {exc}") from exc

    def roundtrip(self, obj: object) -> object:
        """Deep-copy ``obj`` through the wire format.

        Used for by-value parameter passing between *colocated* complets:
        the paper requires complets to be "always considered remote to
        each other with respect to parameter passing", so even a local
        invocation copies its arguments exactly as the wire would.
        """
        return self.loads(self.dumps(obj))


#: Hook-less serializer for control payloads.
PLAIN = Serializer()
