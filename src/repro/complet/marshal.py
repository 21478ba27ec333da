"""Reference-aware marshaling: the mobility protocol's wire format (§3.3).

Two kinds of payload cross Core boundaries:

- **Movement payloads** carry a whole *movement group* — the moved
  complet plus every complet its ``pull`` references drag along and
  every copy its ``duplicate`` references spawn — in a single stream,
  which is why a group move is one inter-Core message (the paper's
  single-stream property).  Outgoing references at the group boundary
  are diverted into wire tokens chosen by their relocators.

- **Invocation payloads** carry method arguments and results.  Complet
  references (stubs, or a raw anchor passed by the complet itself, e.g.
  ``self``) become reference tokens degraded to ``link``; everything
  else is copied by value — §3.1's parameter-passing semantics.

Marshaling happens in two phases, mirroring the paper's protocol:
*planning* (:class:`MovementPlan`) walks closures and decides group
membership by consulting each reference's relocator, then *marshaling*
(:class:`MovementMarshaler`) produces the stream, with relocators again
choosing each boundary reference's token.
"""

from __future__ import annotations

import pickle
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.complet.anchor import Anchor
from repro.complet.closure import compute_closure
from repro.complet.continuation import Continuation
from repro.complet.relocators import Link, Relocator, Stamp
from repro.complet.stub import Stub
from repro.complet.tokens import CloneToken, InGroupToken, RefToken, StampToken
from repro.complet.tracker import Pointer, Tracker, TrackerAddress
from repro.errors import CompletBoundaryError, CompletError, SerializationError
from repro.net.serializer import PLAIN, Segments, Serializer
from repro.store.proxy import StoreProxy
from repro.util.ids import CompletId

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.core import Core

#: Tag wrapping every diverted reference in the pickle stream.
_REF_TAG = "fargo-ref"

#: Invocation-payload prefix: the marshaled body follows inline.
_INLINE_PREFIX = b"\x00"
#: Invocation-payload prefix: the pickled list of the body's parts follows,
#: each part its bytes or the StoreProxy standing for them.
_OFFLOADED_PREFIX = b"\x01"


def _offload_stream(
    core: "Core", stream: "bytes | Segments", kind: str
) -> "bytes | Segments | StoreProxy":
    """Substitute a store proxy for ``stream`` when the Core offloads.

    The store keys content, so a segmented stream is joined for it, once.
    """
    client = getattr(core, "store_client", None)
    if client is None:
        return stream
    return client.offload(bytes(stream), kind=kind)


def _resolve_stream(core: "Core", obj: "bytes | Segments | StoreProxy") -> "bytes | Segments":
    """The stream ``obj`` stands for, releasing the store reference if proxied."""
    if not isinstance(obj, StoreProxy):
        return obj
    client = getattr(core, "store_client", None)
    if client is not None:
        return client.resolve(obj, release=True)
    data = obj.fetch()
    obj.release()
    return data


@dataclass(frozen=True, slots=True)
class MemberInfo:
    """Metadata for one complet travelling in a movement payload.

    ``source_tracker`` is the sending Core's tracker for the member, at
    its epoch; the receiving Core pre-registers it as a remote pointer
    because the sender will re-point that tracker here the moment the move
    commits.  ``requester`` is the tracker of the Core whose MOVE_REQUEST
    this move serves, which re-points here on the answer: it is
    registered beside.
    """

    complet_id: CompletId
    anchor_ref: str
    source_tracker: "Pointer | None" = None
    requester: "Pointer | None" = None


@dataclass(frozen=True, slots=True)
class CloneEntry:
    """One duplicate copy travelling in a movement payload.

    The clone's closure is a nested stream so that two copies of the
    same original stay distinct objects at the destination.  The stream
    may travel as a :class:`~repro.store.StoreProxy` when the marshaling
    Core offloads large payloads.
    """

    clone_id: CompletId
    anchor_ref: str
    stream: "bytes | StoreProxy"


@dataclass(slots=True)
class MovementPayload:
    """Everything one MOVE_COMPLET message carries.

    With store offloading enabled, ``stream`` (and each clone entry's
    stream) travels as a :class:`~repro.store.StoreProxy` instead of the
    marshaled bytes, so a group move costs O(reference) transport bytes.
    """

    source_core: str
    members: list[MemberInfo]
    stream: "bytes | Segments | StoreProxy"
    clones: list[CloneEntry] = field(default_factory=list)

    @property
    def member_ids(self) -> list[CompletId]:
        return [m.complet_id for m in self.members]


class MovementPlan:
    """Phase one: compute the movement group for one move request.

    Walks the moved complet's closure; every outgoing reference's
    relocator gets a chance to extend the group (``pull`` recurses into
    local targets, ``duplicate`` registers a copy).  Pull targets that
    live on *other* Cores cannot join this stream; they are recorded so
    the movement unit can issue follow-up move requests to their hosts.
    """

    def __init__(self, core: "Core", root: Anchor) -> None:
        self.core = core
        #: Complets moving in this stream, in discovery order.
        self.movers: dict[CompletId, Anchor] = {}
        #: target complet id -> (fresh clone id, local anchor to copy).
        self.local_clones: dict[CompletId, tuple[CompletId, Anchor]] = {}
        #: Prefabricated clone entries fetched from remote hosts.
        self.remote_clones: list[CloneEntry] = []
        #: Pull references whose targets live on other Cores.
        self.remote_pulls: list[Stub] = []
        self._queue: list[Anchor] = [root]
        self._build()

    def _build(self) -> None:
        while self._queue:
            anchor = self._queue.pop(0)
            if anchor.complet_id in self.movers:
                continue
            self.movers[anchor.complet_id] = anchor
            for stub in compute_closure(anchor).outgoing:
                stub._fargo_meta.get_relocator().plan(stub, self)

    # -- GroupPlanner interface (called back by relocators) ---------------------

    def pull(self, stub: Stub) -> None:
        tracker = stub._fargo_tracker
        if tracker.is_local:
            assert tracker.local_anchor is not None
            self._queue.append(tracker.local_anchor)
        else:
            self.remote_pulls.append(stub)

    def duplicate(self, stub: Stub) -> None:
        target_id = stub._fargo_target_id
        if target_id in self.local_clones:
            return
        tracker = stub._fargo_tracker
        if tracker.is_local:
            assert tracker.local_anchor is not None
            clone_id = self.core.repository.new_complet_id(tracker.local_anchor)
            self.local_clones[target_id] = (clone_id, tracker.local_anchor)
        else:
            entry = self.core.movement.fetch_remote_clone(stub)
            self.remote_clones.append(entry)
            # Register the mapping so the reference can point at the copy.
            self.local_clones[target_id] = (entry.clone_id, None)  # type: ignore[assignment]

    @property
    def group_ids(self) -> set[CompletId]:
        ids = set(self.movers)
        ids.update(clone_id for clone_id, _ in self.local_clones.values())
        return ids


class MovementMarshaler:
    """Phase two: produce the single-stream movement payload."""

    def __init__(self, core: "Core", plan: MovementPlan) -> None:
        self.core = core
        self.plan = plan
        self._group_ids = plan.group_ids
        self._clone_ids = {
            target: clone_id for target, (clone_id, _) in plan.local_clones.items()
        }

    def payload(
        self, continuation: Continuation | None, requester: "Pointer | None" = None
    ) -> MovementPayload:
        """The payload; ``requester`` travels on the root, the first member."""
        members = []
        for cid, anchor in self.plan.movers.items():
            ref = _anchor_ref(anchor)
            source = self.core.repository.tracker_for(cid, ref)
            members.append(
                MemberInfo(
                    cid, ref, (source.address, source.epoch), None if members else requester
                )
            )
        # A serializer of its own, not an attribute: one holding this
        # marshaler's hook would be a cycle keeping the departed group in
        # memory until the next garbage collection.
        stream = Serializer(encode_hook=self._encode).dumps_segments(
            (self.plan.movers, continuation)
        )
        clones = list(self.plan.remote_clones)
        for target_id, (clone_id, anchor) in self.plan.local_clones.items():
            if anchor is None:
                continue  # remote clone, already prefabricated
            clones.append(marshal_clone(self.core, anchor, clone_id, offload=True))
        return MovementPayload(
            source_core=self.core.name,
            members=members,
            stream=_offload_stream(self.core, stream, "move"),
            clones=clones,
        )

    # -- pickle hook --------------------------------------------------------------

    def _encode(self, obj: object) -> object | None:
        if isinstance(obj, Stub):
            token = obj._fargo_meta.get_relocator().make_token(obj, self)
            return (_REF_TAG, token)
        if isinstance(obj, Anchor):
            if obj._complet_id is not None and obj._complet_id in self.plan.movers:
                return None  # a group member: serialize by value
            raise CompletBoundaryError(
                f"movement stream reached foreign anchor {obj!r} directly; "
                "inter-complet references must go through stubs"
            )
        _reject_runtime_object(obj)
        return None

    # -- TokenContext interface (called back by relocators) -------------------------

    def reference_token(self, stub: Stub, relocator: Relocator) -> object:
        target_id = stub._fargo_target_id
        tracker = stub._fargo_tracker
        if target_id in self._group_ids:
            return InGroupToken(target_id, tracker.anchor_ref, relocator)
        return RefToken(target_id, tracker.anchor_ref, _token_address(tracker), relocator)

    def clone_token(self, stub: Stub, relocator: Relocator) -> object:
        clone_id = self._clone_ids[stub._fargo_target_id]
        return CloneToken(clone_id, stub._fargo_tracker.anchor_ref, relocator)

    def stamp_token(self, stub: Stub, relocator: Relocator) -> object:
        fallback: RefToken | None = None
        if getattr(relocator, "fallback", "error") == "link":
            tracker = stub._fargo_tracker
            fallback = RefToken(
                stub._fargo_target_id, tracker.anchor_ref, _token_address(tracker), Link()
            )
        return StampToken(stub._fargo_tracker.anchor_ref, relocator, fallback)


class CloneStreamCache:
    """Memoized clone streams, keyed by ``(complet_id, preserve_stamps)``.

    A clone stream is independent of the clone id it is shipped under
    (the id is overwritten after unmarshaling), so repeated marshals of
    an *unchanged* complet — periodic checkpoints above all, but also
    repeated ``duplicate`` moves — can reuse the bytes instead of
    re-pickling the whole closure.

    An entry is reused only when it provably still matches what a fresh
    marshal would produce:

    - the cached anchor is the *same object* carrying the same
      ``_fargo_state_version`` (any attribute write, served invocation,
      or movement callback bumps the version);
    - every outgoing reference the stream encoded still resolves to the
      same relocator instance and the same wire address (retypes and
      chain shortening re-route tokens, so either invalidates).

    Entries hold only weak references to anchors and stubs, so caching
    never extends a complet's (or a tracker's) lifetime.
    """

    def __init__(self, capacity: int = 128) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, anchor: Anchor, preserve_stamps: bool) -> bytes | None:
        """Return the cached stream for ``anchor``, or None when stale."""
        key = (anchor._complet_id, preserve_stamps)
        entry = self._entries.get(key)
        if entry is None or anchor._complet_id is None:
            self.misses += 1
            return None
        version, anchor_ref, stream, deps = entry
        if anchor_ref() is not anchor or anchor._fargo_state_version != version:
            self._entries.pop(key, None)
            self.misses += 1
            return None
        for stub_ref, relocator, address in deps:
            stub = stub_ref()
            if (
                stub is None
                or stub._fargo_meta.get_relocator() is not relocator
                or _token_address(stub._fargo_tracker) != address
            ):
                self._entries.pop(key, None)
                self.misses += 1
                return None
        self._entries.move_to_end(key)
        self.hits += 1
        return stream

    def store(
        self,
        anchor: Anchor,
        preserve_stamps: bool,
        stream: bytes,
        deps: list[tuple[Stub, Relocator, "TrackerAddress"]],
    ) -> None:
        if anchor._complet_id is None:
            return
        key = (anchor._complet_id, preserve_stamps)
        weak_deps = tuple(
            (weakref.ref(stub), relocator, address)
            for stub, relocator, address in deps
        )
        self._entries[key] = (
            anchor._fargo_state_version,
            weakref.ref(anchor),
            stream,
            weak_deps,
        )
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


def marshal_clone(
    core: "Core",
    anchor: Anchor,
    clone_id: CompletId,
    *,
    preserve_stamps: bool = False,
    offload: bool = False,
) -> CloneEntry:
    """Marshal a *copy* of ``anchor``'s complet as a nested clone stream.

    The copy's outgoing references degrade to ``link`` (the same rule
    §3.1 applies to copied parameter graphs): the clone keeps pointing
    at the original targets, wherever they are.  With ``preserve_stamps``
    (used by persistence snapshots), ``stamp``-typed references keep
    their stamp semantics instead, so a restored complet re-resolves
    them against whatever the restore destination hosts.

    ``offload`` lets the Core's store client substitute a proxy for a
    large stream.  Only wire-bound entries (movement payloads, answered
    CLONE_REQUESTs) opt in; persistence snapshots stay self-contained
    bytes, valid long after any store entry would have been released.
    Offloading composes with the clone-stream cache: an unchanged complet
    re-marshals to the same bytes, hence the same content key, so repeat
    duplicates land on one store entry and repeat readers hit their
    resolve cache — and any state-version bump yields new bytes under a
    new key (version-stamped invalidation).
    """

    cache: CloneStreamCache | None = getattr(core, "marshal_cache", None)
    if cache is not None:
        cached = cache.lookup(anchor, preserve_stamps)
        if cached is not None:
            wire = _offload_stream(core, cached, "clone") if offload else cached
            return CloneEntry(clone_id, _anchor_ref(anchor.__class__), wire)

    deps: list[tuple[Stub, Relocator, TrackerAddress]] = []

    def encode(obj: object) -> object | None:
        if isinstance(obj, Stub):
            tracker = obj._fargo_tracker
            relocator = obj._fargo_meta.get_relocator()
            deps.append((obj, relocator, _token_address(tracker)))
            if preserve_stamps and isinstance(relocator, Stamp):
                fallback: RefToken | None = None
                if getattr(relocator, "fallback", "error") == "link":
                    fallback = RefToken(
                        obj._fargo_target_id,
                        tracker.anchor_ref,
                        _token_address(tracker),
                        Link(),
                    )
                return (_REF_TAG, StampToken(tracker.anchor_ref, relocator, fallback))
            token = RefToken(
                obj._fargo_target_id,
                tracker.anchor_ref,
                _token_address(tracker),
                relocator.degraded_for_parameter(),
            )
            return (_REF_TAG, token)
        if isinstance(obj, Anchor) and obj is not anchor:
            raise CompletBoundaryError(
                f"clone of {anchor!r} reaches foreign anchor {obj!r} directly"
            )
        _reject_runtime_object(obj)
        return None

    stream = Serializer(encode_hook=encode).dumps(anchor)
    if cache is not None:
        cache.store(anchor, preserve_stamps, stream, deps)
    wire = _offload_stream(core, stream, "clone") if offload else stream
    return CloneEntry(clone_id, _anchor_ref(anchor.__class__), wire)


def unmarshal_clone(core: "Core", entry: CloneEntry) -> Anchor:
    """Rebuild a clone stream into a live anchor carrying ``entry.clone_id``.

    Clone streams contain only plain reference tokens (marshal_clone
    degrades everything to ``link``), so no group trackers are needed.
    """
    memo: dict = {}

    def decode(wrapped: object) -> object:
        token = _unwrap(wrapped)
        if token not in memo:
            memo[token] = core.references.materialize(token)
        return memo[token]

    anchor = Serializer(decode_hook=decode).loads(_resolve_stream(core, entry.stream))
    if not isinstance(anchor, Anchor):
        raise SerializationError(
            f"clone stream for {entry.clone_id} did not contain an anchor"
        )
    anchor._complet_id = entry.clone_id
    return anchor


@dataclass(slots=True)
class UnmarshalResult:
    """What arrived in one movement payload, fully materialized."""

    movers: dict[CompletId, Anchor]
    clones: list[Anchor]
    continuation: Continuation | None


class MovementUnmarshaler:
    """Rebuild a movement group at the receiving Core.

    Trackers for every group member are claimed *before* the stream is
    decoded so that in-group references (mutual references between
    complets travelling together) wire up without any network traffic.
    """

    def __init__(self, core: "Core", payload: MovementPayload) -> None:
        self.core = core
        self.payload = payload
        # Equal tokens materialize to the same stub, preserving the
        # sharing structure of the original object graph.
        self._memo: dict = {}

    def load(self) -> UnmarshalResult:
        repository = self.core.repository
        for member in self.payload.members:
            repository.tracker_for(member.complet_id, member.anchor_ref)
        for entry in self.payload.clones:
            repository.tracker_for(entry.clone_id, entry.anchor_ref)

        serializer = Serializer(decode_hook=self._decode)
        stream = _resolve_stream(self.core, self.payload.stream)
        movers, continuation = serializer.loads(stream)  # type: ignore[misc]

        clones: list[Anchor] = []
        for entry in self.payload.clones:
            clone = Serializer(decode_hook=self._decode).loads(
                _resolve_stream(self.core, entry.stream)
            )
            if not isinstance(clone, Anchor):
                raise SerializationError(
                    f"clone stream for {entry.clone_id} did not contain an anchor"
                )
            clone._complet_id = entry.clone_id
            clones.append(clone)
        return UnmarshalResult(movers=movers, clones=clones, continuation=continuation)

    def _decode(self, wrapped: object) -> object:
        token = _unwrap(wrapped)
        if token not in self._memo:
            self._memo[token] = self.core.references.materialize(token)
        return self._memo[token]


class InvocationMarshaler:
    """By-value parameter/result marshaling with by-reference complets.

    One instance is bound to the Core doing the encoding or decoding.
    Used on both sides of every invocation — including invocations whose
    target happens to be colocated, because complets are "always
    considered remote to each other with respect to parameter passing".

    Every payload carries a one-byte prefix: an inline body follows it
    directly, and that is all a Core without a store ever sends.  A Core
    with a store client marshals with the bulk ``bytes`` *beside* the
    pickle (``Serializer.dumps_segments``) and puts each part at or above
    the client's ``threshold`` into the store on its own, keyed by its
    own content; the prefix is then followed by the pickled list of
    parts, a :class:`~repro.store.StoreProxy` where one was offloaded.
    ``loads`` hands such a buffer on as the object the store client
    holds, shared, which nothing can observe of ``bytes``; a ``bytearray``
    travels inside the pickle and arrives as a copy, as §3.1 has it.
    """

    def __init__(self, core: "Core") -> None:
        self.core = core
        self._encoder = Serializer(encode_hook=self._encode)

    def dumps(self, obj: object) -> bytes:
        client = getattr(self.core, "store_client", None)
        if client is None:
            return _INLINE_PREFIX + self._encoder.dumps(obj)
        data = self._encoder.dumps_segments(obj)
        parts = data.parts if isinstance(data, Segments) else [data]
        threshold = client.threshold
        if all(len(part) < threshold for part in parts):
            return _INLINE_PREFIX + bytes(data)
        return _OFFLOADED_PREFIX + pickle.dumps([
            client.offload(_whole(part), kind="invoke") if len(part) >= threshold else bytes(part)
            for part in parts
        ])

    def loads(self, data: bytes) -> object:
        prefix = data[:1]
        body: bytes | Segments = data[1:]
        if prefix == _OFFLOADED_PREFIX:
            parts = PLAIN.loads(body)
            if not (isinstance(parts, list) and parts):
                raise SerializationError("offloaded invocation payload is not a list of parts")
            parts = [_resolve_stream(self.core, part) for part in parts]
            body = parts[0] if len(parts) == 1 else Segments(parts)
        elif prefix != _INLINE_PREFIX:
            raise SerializationError(
                f"invocation payload has unknown prefix {prefix!r}"
            )
        # Per-payload memo: equal tokens materialize to the same stub,
        # preserving the sharing structure of the argument graph.
        memo: dict = {}

        def decode(wrapped: object) -> object:
            token = _unwrap(wrapped)
            if token not in memo:
                memo[token] = self.core.references.materialize(token)
            return memo[token]

        return Serializer(decode_hook=decode).loads(body)

    def _encode(self, obj: object) -> object | None:
        if isinstance(obj, Stub):
            tracker = obj._fargo_tracker
            token = RefToken(
                obj._fargo_target_id,
                tracker.anchor_ref,
                _token_address(tracker),
                obj._fargo_meta.get_relocator().degraded_for_parameter(),
            )
            return (_REF_TAG, token)
        if isinstance(obj, Anchor):
            # A complet passing itself (or a colocated anchor) as a
            # parameter: pass by complet reference, default link type.
            if obj._complet_id is None:
                raise CompletError(
                    f"anchor {obj!r} is not installed at any Core and cannot be "
                    "passed as a complet reference"
                )
            tracker = self.core.repository.tracker_for(
                obj._complet_id, _anchor_ref(obj.__class__)
            )
            token = RefToken(obj._complet_id, tracker.anchor_ref, tracker.address, Link())
            return (_REF_TAG, token)
        _reject_runtime_object(obj)
        return None


def _whole(part: "bytes | memoryview") -> bytes:
    """``part`` as the ``bytes`` object it is or views, which the store client may know."""
    owner = getattr(part, "obj", part)
    return owner if type(owner) is bytes and len(owner) == len(part) else bytes(part)


def _unwrap(wrapped: object) -> object:
    if not (isinstance(wrapped, tuple) and len(wrapped) == 2 and wrapped[0] == _REF_TAG):
        raise SerializationError(f"unknown persistent token {wrapped!r}")
    return wrapped[1]


def _token_address(tracker: Tracker) -> "TrackerAddress":
    """The address a wire token should carry for this reference.

    A forwarding tracker's knowledge is its next hop — the moved stub
    must point *past* the Core it is leaving (whose local tracker it can
    no longer reach as a local object), exactly as FarGo serializes an
    outgoing reference as a remote reference to the next tracker.
    """
    if tracker.next_hop is not None:
        return tracker.next_hop
    return tracker.address


def _anchor_ref(anchor_or_cls: object) -> str:
    from repro.complet.anchor import qualified_class_ref

    cls = anchor_or_cls if isinstance(anchor_or_cls, type) else type(anchor_or_cls)
    return qualified_class_ref(cls)


def _reject_runtime_object(obj: object) -> None:
    """Refuse to serialize runtime infrastructure that must never travel."""
    if isinstance(obj, Tracker):
        raise SerializationError("a Tracker reached the wire; trackers never travel")
    # Cores are detected by duck type to avoid an import cycle.
    if obj.__class__.__name__ == "Core" and hasattr(obj, "repository"):
        raise SerializationError("a Core reached the wire; Cores are stationary")
