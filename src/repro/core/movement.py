"""The Movement unit: the mobility protocol of §3.3.

A move request resolves its target (following tracker chains to the
hosting Core if needed), plans the movement group by consulting the
relocators of every outgoing reference, runs the ``pre_departure``
callbacks, marshals the whole group into a *single* MOVE_COMPLET
message, and — once the receiving Core replies with the new tracker
addresses — re-points the local trackers, runs ``post_departure``, and
releases the complets.  Pull targets living on third Cores get follow-up
move requests to the same destination.

The receiving side pre-registers the sender's trackers as remote
pointers, installs the arrivals between their ``pre_arrival`` and
``post_arrival`` callbacks, fires ``completArrived`` events, and invokes
the continuation, if one travelled along.  Its commit reply names the
arrivals' trackers; an arrival's stale tracker here is reused, so when it
pointed at the sender's own tracker the sender discards it from that
tracker's pointers as it re-points there, and nothing is posted.

A move requested by another Core (MOVE_REQUEST to the tracker's next hop)
is answered, when the host serves it itself, with the root's new tracker
address.  The requester's tracker rides the MOVE_COMPLET to be registered
at the destination, the host discards it from its own tracker, and the
requester re-points on the answer: its next call goes straight to the new
host and no TRACKER_UPDATE is sent.  A Core that chased the complet on
answers None, one that found it in place False: a move says if it moved.

Sending is an *abortable two-phase protocol*: phase one runs the
``pre_departure`` hooks and marshals the group, phase two ships the
stream and — only once the destination's reply commits the move —
re-points trackers and releases the complets.  Any failure before the
reply (marshaling, an unreachable destination after the RPC layer's
retries, a denial at the destination) triggers
``abort_departure``: every group member's :meth:`Anchor.abort_departure`
hook runs, the group stays hosted and invocable, trackers are left
untouched, and a ``moveFailed`` event tells the monitoring and scripting
layers — then the original error is re-raised to the caller.
"""

from __future__ import annotations

import logging

from repro.complet.anchor import Anchor, bump_state_version, execution_context
from repro.complet.continuation import Continuation
from repro.complet.marshal import (
    CloneEntry,
    MovementMarshaler,
    MovementPayload,
    MovementPlan,
    MovementUnmarshaler,
)
from repro.complet.stub import Stub, stub_target_id, stub_tracker
from repro.complet.tracker import Pointer, TrackerAddress
from repro.core.events import MOVE_COMPLETED, MOVE_FAILED
from repro.core.references import INDETERMINATE_ERRORS
from repro.errors import CompletError, FarGoError, MovementDeniedError
from repro.net.messages import MessageKind
from repro.net.rpc import NO_DEADLINE
from repro.net.serializer import PLAIN, Segments
from repro.util.ids import CompletId

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.core import Core

logger = logging.getLogger(__name__)

#: Bound on MOVE_REQUEST forwarding along tracker chains.  Two stale
#: trackers claiming each other's complet would otherwise bounce a
#: request forever.
MAX_FORWARD_HOPS = 16


class MovementUnit:
    """One Core's complet-migration engine."""

    def __init__(self, core: "Core") -> None:
        self.core = core
        core.peer.register_raw(MessageKind.MOVE_COMPLET, self._handle_move_complet)
        core.peer.register(MessageKind.MOVE_REQUEST, self._handle_move_request)
        core.peer.register(MessageKind.CLONE_REQUEST, self._handle_clone_request)
        # Counts live in the unified metrics registry (bound once here);
        # the attributes below remain readable as plain ints.
        self._moves_sent = core.metrics.counter("movement.moves_sent")
        self._moves_received = core.metrics.counter("movement.moves_received")
        self._moves_aborted = core.metrics.counter("movement.moves_aborted")
        #: complet -> the destination its departure's phase two commits it
        #: to: until it is released here, a move of it is that Core's to make.
        self._departing: dict[CompletId, str] = {}
        #: complet -> the request moving it back here, met before its departure
        #: committed (an arrival's rule, on sim): sent once it has.
        self._returning: dict[CompletId, tuple] = {}

    @property
    def moves_sent(self) -> int:
        """Group moves sent by this Core (for the benchmarks)."""
        return int(self._moves_sent.value)

    @property
    def moves_received(self) -> int:
        """Group moves received by this Core."""
        return int(self._moves_received.value)

    @property
    def moves_aborted(self) -> int:
        """Moves that ran abort_departure after a phase-two failure."""
        return int(self._moves_aborted.value)

    # -- public entry point -----------------------------------------------------------

    def move(
        self,
        target: Stub | Anchor | CompletId,
        destination: str,
        continuation: Continuation | None = None,
    ) -> bool:
        """Move ``target``'s complet (and whatever its references drag along).

        ``target`` may be a stub, the anchor itself (self-movement), or a
        complet id.  If the complet is not hosted here, the request is
        forwarded to its current host, so any Core can initiate any move.
        Returns False when the complet was at ``destination`` already.
        """
        tracer = self.core.tracer
        if tracer.enabled:
            with tracer.span("move", category="move", destination=destination):
                return self._move(target, destination, continuation)
        return self._move(target, destination, continuation)

    def _move(
        self,
        target: Stub | Anchor | CompletId,
        destination: str,
        continuation: Continuation | None,
    ) -> bool:
        anchor = self._resolve_local(target)
        if anchor is None:
            return self._forward_request(target, destination, continuation)
        if anchor.complet_id in self._departing:
            return self._chase(anchor.complet_id, destination, continuation, 0) is not False
        if destination == self.core.name:
            return False  # already in place; a move would be a no-op
        self._move_local(anchor, destination, continuation)
        return True

    def _resolve_local(self, target: Stub | Anchor | CompletId) -> Anchor | None:
        if isinstance(target, Stub):
            tracker = stub_tracker(target)
            return tracker.local_anchor
        if isinstance(target, Anchor):
            if not target.is_installed or not self.core.repository.hosts(
                target.complet_id
            ):
                raise MovementDeniedError(
                    f"anchor {target!r} is not hosted at Core {self.core.name!r}"
                )
            return target
        if isinstance(target, CompletId):
            return self.core.repository.get(target)
        raise CompletError(f"cannot move {target!r}: not a complet reference")

    # -- sending side ------------------------------------------------------------------

    def _move_local(
        self,
        anchor: Anchor,
        destination: str,
        continuation: Continuation | None,
        requester: Pointer | None = None,
    ) -> TrackerAddress:
        tracer = self.core.tracer
        if tracer.enabled:
            with tracer.span(
                "move:twophase",
                category="move",
                complet=anchor.complet_id.short(),
                destination=destination,
            ):
                return self._move_twophase(anchor, destination, continuation, requester)
        return self._move_twophase(anchor, destination, continuation, requester)

    def _move_twophase(
        self,
        anchor: Anchor,
        destination: str,
        continuation: Continuation | None,
        requester: Pointer | None,
    ) -> TrackerAddress:
        """Move ``anchor``'s group; returns the root's tracker at ``destination``.

        ``requester`` is the tracker whose MOVE_REQUEST this serves: the
        destination registers it.
        """
        plan = MovementPlan(self.core, anchor)
        sanitizer = self.core.sanitizer
        stamps: dict[str, dict] = {}
        if sanitizer is not None:
            # Stamp every group member now, while the issuing context
            # (the rule firing, if any) is still active; the stamps are
            # joined at the destination before completArrived fires.
            for complet_id in plan.movers:
                subject = str(complet_id)
                stamps[subject] = sanitizer.record(
                    "move", subject, core=self.core, detail=destination
                )
                sanitizer.pending_move(subject, destination, stamps[subject])
        for mover in plan.movers.values():
            with execution_context(self.core, mover.complet_id):
                mover.pre_departure(destination)
                bump_state_version(mover)
        self._departing.update(dict.fromkeys(plan.movers, destination))
        try:
            payload = MovementMarshaler(self.core, plan).payload(continuation, requester)
            # The commit request is deadline-exempt: once the destination's
            # reply is in hand the group is installed *there*, so a timeout
            # raised here would abort the departure while the arrivals stay
            # live — the same complets hosted on two Cores.  Reachability
            # failures are raised before the handler runs and abort safely.
            raw_reply = self.core.peer.request_raw(
                destination,
                MessageKind.MOVE_COMPLET,
                PLAIN.dumps_segments(payload),  # bulk beside the stream, uncopied
                timeout=NO_DEADLINE,
            )
        except Exception as exc:
            # Phase two never committed: undo phase one and keep hosting.
            for complet_id in plan.movers:
                self._departing.pop(complet_id, None)
                self._returning.pop(complet_id, None)  # it stays: it is back
            if sanitizer is not None:
                for subject in stamps:
                    sanitizer.abort_move(subject, destination)
            self._abort_departure(plan, anchor, destination, exc)
            raise
        arrived: dict[CompletId, Pointer]
        arrived = PLAIN.loads(raw_reply)  # type: ignore[assignment]
        self._moves_sent.inc()
        if sanitizer is not None:
            # The commit orders everything the sender publishes next
            # (completDeparted, moveCompleted) after the move itself.
            for subject, stamp in stamps.items():
                sanitizer.commit_move(subject, self.core, stamp)

        for complet_id, mover in plan.movers.items():
            tracker = self.core.repository.existing_tracker(complet_id)
            assert tracker is not None
            address, epoch = arrived[complet_id]
            tracker.point_to(address)
            # The destination reused its stale tracker, which may have
            # pointed here until that epoch.
            tracker.note_pointer(address, epoch, registered=False)
            with execution_context(self.core, complet_id):
                mover.post_departure()
            self.core.repository.release(complet_id)
            self._departing.pop(complet_id, None)
            self.core.events.publish(
                "completDeparted",
                complet=str(complet_id),
                type=complet_id.type_name,
                destination=destination,
            )
        self.core.events.publish(
            MOVE_COMPLETED,
            complet=str(anchor.complet_id),
            type=anchor.complet_id.type_name,
            destination=destination,
            group=[str(cid) for cid in plan.movers],
        )
        for stub in plan.remote_pulls:
            self._forward_request(stub, destination, None)
        for complet_id in self._returning and list(plan.movers):
            self._ask_back(complet_id)
        return arrived[anchor.complet_id][0]

    def _abort_departure(
        self, plan: MovementPlan, root: Anchor, destination: str, error: BaseException
    ) -> None:
        """Undo phase one of a move that failed before the commit reply.

        Every group member's ``abort_departure`` hook runs (failures are
        isolated and logged — the abort itself must not die half-way),
        nothing is released and no tracker is re-pointed, and a
        ``moveFailed`` event is published so layout scripts can react
        (``on moveFailed ... do call retryMove(...) end``).
        """
        for complet_id, mover in plan.movers.items():
            try:
                with execution_context(self.core, complet_id):
                    mover.abort_departure(destination)
                    bump_state_version(mover)
            except Exception:  # noqa: BLE001 - abort hooks are isolated
                logger.warning(
                    "abort_departure of %s failed", complet_id, exc_info=True
                )
        self._moves_aborted.inc()
        self.core.events.publish(
            MOVE_FAILED,
            complet=str(root.complet_id),
            type=root.complet_id.type_name,
            destination=destination,
            reason=type(error).__name__,
            detail=str(error),
            group=[str(cid) for cid in plan.movers],
        )

    def _forward_request(
        self,
        target: Stub | Anchor | CompletId,
        destination: str,
        continuation: Continuation | None,
    ) -> bool:
        if isinstance(target, Stub):
            target_id = stub_target_id(target)
            tracker = stub_tracker(target)
        elif isinstance(target, CompletId):
            tracker = self.core.repository.existing_tracker(target)
            if tracker is None:
                raise CompletError(
                    f"Core {self.core.name!r} holds no reference to {target}"
                )
            target_id = target
        else:
            raise CompletError(f"cannot forward a move of {target!r}")
        # No lookup first: the walk's first hop gets the request, chases the
        # complet if it has moved on, and does nothing if it is in place.
        address = self.core.locator.first_hop(tracker)
        try:
            moved_to = self.core.peer.request(
                address.core,
                MessageKind.MOVE_REQUEST,
                self._request_body(
                    target_id, destination, continuation, pointer=(tracker.address, tracker.epoch)
                ),
            )
        except INDETERMINATE_ERRORS:
            self.core.references.reclaim(tracker)
            raise
        if isinstance(moved_to, TrackerAddress):
            # The host that moved it handed this tracker over to the
            # destination, and released it if it was the next hop.
            self.core.references.shorten(
                tracker, moved_to, registered=True, released=address == tracker.next_hop
            )
        return moved_to is not False

    def _request_body(
        self,
        target_id: CompletId,
        destination: str,
        continuation: Continuation | None,
        hops: int = 0,
        pointer: Pointer | None = None,
    ) -> tuple:
        """Encode a forwarded move request.

        Continuation arguments may contain complet references, so they are
        marshaled with the invocation marshaler rather than pickled raw.
        ``hops`` counts tracker-chain forwards so a cycle of stale
        trackers cannot bounce the request forever.  ``pointer`` is the
        requesting tracker at its epoch, to be handed over.
        """
        if continuation is None:
            return (target_id, destination, None, None, hops, pointer)
        args_bytes = self.core.invocation.marshaler.dumps(
            (continuation.args, continuation.kwargs)
        )
        return (target_id, destination, continuation.method, args_bytes, hops, pointer)

    # -- receiving side ------------------------------------------------------------------

    def _handle_move_complet(self, src: str, raw: bytes | memoryview | Segments) -> bytes:
        payload = PLAIN.loads(raw)
        assert isinstance(payload, MovementPayload)
        result = MovementUnmarshaler(self.core, payload).load()
        arrivals: list[Anchor] = list(result.movers.values()) + result.clones

        for anchor in arrivals:
            with execution_context(self.core, anchor._complet_id):
                anchor.pre_arrival()

        sources = {member.complet_id: member.source_tracker[0] for member in payload.members}
        arrived: dict[CompletId, Pointer] = {}
        for anchor in arrivals:
            # If this Core already tracked the arriving complet through a
            # chain, it stops forwarding now.  The old pointee must learn
            # it: the sender does so itself from the commit reply when it
            # is that pointee; any other is told.
            stale = self.core.repository.existing_tracker(anchor.complet_id)
            hop = stale.next_hop if stale is not None else None
            tracker = self.core.repository.adopt(anchor)
            if hop not in (None, sources.get(anchor.complet_id)):
                self.core.references.unregister_remote_pointer(hop, tracker.address, tracker.epoch)
            arrived[anchor.complet_id] = (tracker.address, tracker.epoch)
        for member in payload.members:
            tracker = self.core.repository.tracker_for(member.complet_id, member.anchor_ref)
            tracker.take_over(p for p in (member.source_tracker, member.requester) if p is not None)
        self.core.locator.announce({cid: address for cid, (address, _) in arrived.items()})

        if self.core.sanitizer is not None:
            # Join each in-flight move's stamp into this Core's clock
            # before completArrived fires: rules the arrival triggers
            # are ordered after the move that caused it.
            for anchor in arrivals:
                self.core.sanitizer.arrive(str(anchor.complet_id), self.core)
        for anchor in arrivals:
            with execution_context(self.core, anchor.complet_id):
                anchor.post_arrival()
            self.core.events.publish(
                "completArrived",
                complet=str(anchor.complet_id),
                type=anchor.complet_id.type_name,
                source=payload.source_core,
            )
        self._moves_received.inc()

        if result.continuation is not None and result.movers:
            root = next(iter(result.movers.values()))
            # Resolve eagerly so a bad continuation still aborts the move,
            # but *run* it deferred: the paper starts a fresh thread for
            # post-arrival work, so the continuation must not execute
            # inside the movement protocol itself (a continuation that
            # moves the complet again — an agent itinerary — would find
            # the protocol still holding the previous copy).
            method = result.continuation.resolve(root)
            continuation = result.continuation
            self.core.scheduler.call_after(
                0.0, self._run_continuation, root, method, continuation
            )

        return PLAIN.dumps(arrived)

    def _run_continuation(self, root: Anchor, method, continuation: Continuation) -> None:
        if not self.core.repository.hosts(root.complet_id):
            return  # the complet moved on before the continuation fired
        try:
            with execution_context(self.core, root.complet_id):
                method(*continuation.args, **continuation.kwargs)
                bump_state_version(root)
        except Exception:  # noqa: BLE001 - continuations run detached
            logger.warning(
                "continuation %s of %s failed", continuation.method,
                root.complet_id, exc_info=True,
            )

    def _handle_move_request(self, src: str, body: object):
        target_id, destination, method, args_bytes, hops, pointer = body  # type: ignore[misc]
        if hops >= MAX_FORWARD_HOPS:
            raise CompletError(
                f"move request for {target_id} reached the forward bound of "
                f"{MAX_FORWARD_HOPS} hops; stale-tracker cycle suspected"
            )
        continuation: Continuation | None = None
        if method is not None:
            args, kwargs = self.core.invocation.marshaler.loads(args_bytes)  # type: ignore[misc]
            continuation = Continuation(method, args, kwargs)
        anchor = self.core.repository.get(target_id)
        if anchor is not None and target_id not in self._departing:
            if destination == self.core.name:
                return False
            tracker = self.core.repository.existing_tracker(target_id)
            assert tracker is not None  # a hosted complet's own tracker
            moved_to = self._move_local(anchor, destination, continuation, pointer)
            if pointer is not None:
                # Only once the move is done: a failure leaves the requester registered.
                tracker.note_pointer(*pointer, registered=False)
            return moved_to
        return self._chase(target_id, destination, continuation, hops)

    def _chase(
        self, target_id: CompletId, destination: str, continuation: Continuation | None, hops: int
    ) -> bool | None:
        """Pass a move on to the Core a departure is committing the complet
        to, else to where this Core's tracker finds it: False if it is at
        ``destination``, else None (whether it moved, never its address)."""
        host = self._departing.get(target_id)
        if host is None:
            tracker = self.core.repository.existing_tracker(target_id)
            if tracker is None:
                raise CompletError(
                    f"Core {self.core.name!r} does not host (or track) {target_id}"
                )
            host = self.core.references.locate(tracker)
        if host == destination:
            return False
        request = (host, MessageKind.MOVE_REQUEST,
                   self._request_body(target_id, destination, continuation, hops + 1))
        if destination == self.core.name and target_id in self._departing:
            self._returning[target_id] = request  # asked once released, as over TCP
            if target_id not in self._departing:  # released meanwhile, on another thread
                self._ask_back(target_id)
            return None
        moved = self.core.peer.request(*request)
        return False if moved is False else None

    def _ask_back(self, complet_id: CompletId) -> None:
        """Send the move back here that met ``complet_id``'s departure, if
        neither this thread nor another has yet: each pop takes it once."""
        request = self._returning.pop(complet_id, None)
        try:
            if request is not None:
                self.core.peer.request(*request)
        except FarGoError:
            logger.warning("moving %s back failed", complet_id, exc_info=True)

    # -- remote duplicates -------------------------------------------------------------------

    def fetch_remote_clone(self, stub: Stub) -> CloneEntry:
        """Ask the Core hosting ``stub``'s target for a marshaled copy."""
        host = self.core.references.locate(stub_tracker(stub))
        entry = self.core.peer.request(
            host, MessageKind.CLONE_REQUEST, stub_target_id(stub)
        )
        assert isinstance(entry, CloneEntry)
        return entry

    def _handle_clone_request(self, src: str, target_id: object) -> CloneEntry:
        assert isinstance(target_id, CompletId)
        anchor = self.core.repository.get(target_id)
        if anchor is None:
            raise CompletError(
                f"complet {target_id} is not hosted at {self.core.name!r} "
                "(it may have moved); retry after re-locating"
            )
        from repro.complet.marshal import marshal_clone

        clone_id = self.core.repository.new_complet_id(anchor)
        # Offload: the entry crosses two links (here -> requester ->
        # destination) but is resolved only once, at the destination.
        return marshal_clone(self.core, anchor, clone_id, offload=True)
