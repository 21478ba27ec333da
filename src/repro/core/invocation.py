"""The Invocation unit: method calls over complet references (§3.1).

Every call issued through a stub passes through here.  Arguments and
results are marshaled by value (complet references by reference,
degraded to ``link``) — *also when the target happens to be colocated*,
because complets are always mutually remote with respect to parameter
passing.  Remote calls are forwarded along the tracker chain; the reply
carries the address of the tracker colocated with the target, and every
tracker on the chain re-points directly at it on the way back — the
paper's chain shortening.  A forwarder resolves the rest of the chain
with TRACKER_LOOKUPs before the call crosses, and those carry its
caller's tracker to the target's Core to be registered there; the reply
header's handover bit then tells the caller that its re-point is settled
and nothing needs posting (:meth:`~repro.core.references.ReferenceHandler.shorten`).

Fault tolerance: a forward that hits a reachability failure (after the
RPC layer's own retries, if the Core carries a
:class:`~repro.net.retry.RetryPolicy`) *re-locates* the target, as the
Core's :meth:`~repro.core.locator.Locator.recover_route` says (a chain
re-walk, or the home registry's record), and retries once against the
recovered address, so a complet that moved away while a hop was
unreachable is found again.  Only reachability errors (raised before the
remote handler ran) take this path; a
:class:`~repro.errors.DeadlineExceededError` propagates to the caller,
because the handler may well have executed and a transparent retry would
silently duplicate non-idempotent work.
"""

from __future__ import annotations

import struct
from inspect import getattr_static

from repro.complet.anchor import bump_state_version, current_complet, execution_context
from repro.complet.marshal import InvocationMarshaler
from repro.complet.stub import Stub, stub_meta, stub_tracker
from repro.complet.tracker import Tracker, TrackerAddress
from repro.core.references import INDETERMINATE_ERRORS
from repro.errors import (
    CompletError,
    CoreError,
    DanglingReferenceError,
    NoSuchMethodError,
)
from repro.net.messages import MessageKind
from repro.net.retry import REACHABILITY_ERRORS

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.core import Core

#: INVOKE wire framing.  The request prepends the target tracker serial
#: and the calling tracker's epoch to the marshaled call; the reply
#: prepends (core-name length, final serial) and the UTF-8 core name to
#: the marshaled result.  Fixed-width prefixes instead of pickling a
#: wrapper tuple around every hop.
_REQ_HEADER = struct.Struct("<II")
_REPLY_HEADER = struct.Struct("<Hq")
#: Top bit of the reply's core-name length: the forwarder that answered
#: handed its caller's tracker over to the final one.
_HANDED_OVER = 0x8000


def _pack_request(serial: int, epoch: int, request: bytes) -> bytes:
    return _REQ_HEADER.pack(serial, epoch) + request


def _unpack_request(frame: bytes) -> tuple[int, int, bytes]:
    serial, epoch = _REQ_HEADER.unpack_from(frame)
    return serial, epoch, frame[_REQ_HEADER.size:]


def _pack_reply(result_bytes: bytes, final: TrackerAddress, handed_over: bool = False) -> bytes:
    core_bytes = final.core.encode("utf-8")
    if len(core_bytes) >= _HANDED_OVER:
        raise CompletError(f"Core name of {len(core_bytes)} bytes does not fit an INVOKE reply")
    length = len(core_bytes) | _HANDED_OVER if handed_over else len(core_bytes)
    return _REPLY_HEADER.pack(length, final.serial) + core_bytes + result_bytes


def _unpack_reply(frame: bytes) -> tuple[bytes, TrackerAddress, bool]:
    length, serial = _REPLY_HEADER.unpack_from(frame)
    core_len = length & ~_HANDED_OVER
    start = _REPLY_HEADER.size
    core = frame[start:start + core_len].decode("utf-8")
    return frame[start + core_len:], TrackerAddress(core, serial), bool(length & _HANDED_OVER)


class InvocationUnit:
    """One Core's invocation engine."""

    def __init__(self, core: "Core") -> None:
        self.core = core
        self.marshaler = InvocationMarshaler(core)
        core.peer.register_raw(MessageKind.INVOKE, self._handle_invoke)
        # Counts live in the unified metrics registry (bound once here);
        # the attributes below remain readable as plain ints.
        self._executed = core.metrics.counter("invocation.executed")
        self._forwarded = core.metrics.counter("invocation.forwarded")

    @property
    def executed(self) -> int:
        """Invocations executed on this Core (targets hosted here)."""
        return int(self._executed.value)

    @property
    def forwarded(self) -> int:
        """Invocations this Core forwarded along a tracker chain."""
        return int(self._forwarded.value)

    # -- caller side ----------------------------------------------------------------

    def invoke_stub(self, stub: Stub, method: str, args: tuple, kwargs: dict) -> object:
        tracer = self.core.tracer
        if tracer.enabled:
            with tracer.span(
                f"invoke:{method}",
                category="invoke",
                target=str(stub_tracker(stub).target_id),
            ):
                return self._invoke_stub(stub, method, args, kwargs)
        return self._invoke_stub(stub, method, args, kwargs)

    def _invoke_stub(self, stub: Stub, method: str, args: tuple, kwargs: dict) -> object:
        tracker = stub_tracker(stub)
        source = current_complet()
        request = self.marshaler.dumps((method, args, kwargs))
        self.core.profiler.note_invocation(source, tracker.target_id, len(request))
        result_bytes, final = self._route(tracker, request)
        self.core.profiler.note_result_bytes(
            source, tracker.target_id, len(result_bytes)
        )
        stub_meta(stub).record_invocation(len(request) + len(result_bytes))
        return self.marshaler.loads(result_bytes)

    # -- routing ----------------------------------------------------------------------

    def _route(self, tracker: Tracker, request: bytes) -> tuple[bytes, TrackerAddress]:
        """Deliver ``request`` to the target, however many hops away.

        Returns the marshaled result together with the address of the
        tracker colocated with the target, at which ``tracker`` is
        re-pointed on the way back.
        """
        if tracker.is_local:
            return self._execute(tracker, request), tracker.address
        if tracker.next_hop is None:
            raise DanglingReferenceError(
                f"reference to {tracker.target_id} dangles: target was destroyed"
            )
        try:
            try:
                reply = self._forward(tracker, tracker.next_hop, request)
            except REACHABILITY_ERRORS:
                # A hop on the chain is gone (the RPC layer already spent its
                # retries).  Re-locate the target and go direct.  Only
                # reachability failures qualify: they are raised before the
                # remote handler ran, so the retry cannot duplicate work.  A
                # timeout (DeadlineExceededError) is indeterminate — the call
                # may have executed — and propagates to the caller instead.
                recovered = self.core.locator.recover_route(tracker)
                if recovered is None:
                    raise
                reply = self._forward(tracker, recovered, request)
        except INDETERMINATE_ERRORS:
            # A forwarder may have handed this tracker over before the reply was lost.
            self.core.references.reclaim(tracker)
            raise
        result_bytes, final, handed_over = _unpack_reply(reply)
        self.core.references.shorten(
            tracker, final, registered=handed_over, released=handed_over
        )
        return result_bytes, final

    def _forward(self, tracker: Tracker, address: TrackerAddress, request: bytes) -> bytes:
        frame = _pack_request(address.serial, tracker.epoch, request)
        return self.core.peer.request_raw(address.core, MessageKind.INVOKE, frame)

    def _handle_invoke(self, src: str, raw: bytes) -> bytes:
        serial, epoch, request = _unpack_request(raw)
        tracker = self.core.repository.tracker_by_serial(serial)
        if tracker is None:
            raise DanglingReferenceError(
                f"Core {self.core.name!r} has no tracker #{serial}; target destroyed"
            )
        if tracker.is_local:
            return _pack_reply(self._execute(tracker, request), tracker.address)
        tracker.forwarded_invocations += 1
        self._forwarded.inc()
        references = self.core.references
        caller = references.pointer_from(tracker, src, epoch)
        holder = self._collapse(tracker, caller, epoch)
        handed_over = False
        try:
            result_bytes, final = self._route(tracker, request)
            handed_over = final == holder
        finally:
            if holder is not None and not handed_over:
                # The call ended elsewhere, or not at all: the caller still points here.
                references.release(holder, (caller, epoch))
        if handed_over:
            tracker.note_pointer(caller, epoch, registered=False)
        return _pack_reply(result_bytes, final, handed_over)

    def _collapse(
        self, tracker: Tracker, caller: TrackerAddress | None, epoch: int
    ) -> TrackerAddress | None:
        """Resolve a forwarder's chain with TRACKER_LOOKUPs before the call crosses.

        The request body then crosses one link instead of riding every
        hop.  ``caller``, the calling Core's tracker at ``epoch``, rides the
        LOOKUPs; returns the final tracker, which registered it, if it rode.
        """
        carried = ((caller, epoch),) if caller is not None else ()
        try:
            final = self.core.references.resolve_final(tracker, carried)
        except DanglingReferenceError:
            raise
        except (CoreError, CompletError):
            # Collapse is an optimization only: if the chain cannot be
            # resolved up front (a hop briefly unreachable), forward hop
            # by hop as before.
            return None
        return final if carried else None

    # -- execution ---------------------------------------------------------------------

    def _execute(self, tracker: Tracker, request: bytes) -> bytes:
        anchor = tracker.local_anchor
        assert anchor is not None
        method, args, kwargs = self.marshaler.loads(request)  # type: ignore[misc]
        tracer = self.core.tracer
        if tracer.enabled:
            with tracer.span(
                f"exec:{method}",
                category="exec",
                complet=anchor.complet_id.short(),
            ):
                return self._execute_call(tracker, anchor, method, args, kwargs)
        return self._execute_call(tracker, anchor, method, args, kwargs)

    def _execute_call(
        self, tracker: Tracker, anchor, method: str, args: tuple, kwargs: dict
    ) -> bytes:
        attribute = self._check_invocable(type(anchor), method)
        with execution_context(self.core, anchor.complet_id):
            if isinstance(attribute, property):
                result = getattr(anchor, method)
            else:
                result = getattr(anchor, method)(*args, **kwargs)
                # The method may have mutated nested containers without
                # any attribute write, so conservatively invalidate any
                # cached marshal stream of this complet.
                bump_state_version(anchor)
        tracker.served_invocations += 1
        self._executed.inc()
        self.core.profiler.note_served(anchor.complet_id)
        return self.marshaler.dumps(result)

    @staticmethod
    def _check_invocable(anchor_cls: type, method: str) -> object:
        """The class attribute a call of ``method`` reaches, found without running it."""
        if method.startswith("_"):
            raise NoSuchMethodError(
                f"{anchor_cls.__name__}.{method} is not part of the complet interface"
            )
        try:
            return getattr_static(anchor_cls, method)
        except AttributeError:
            raise NoSuchMethodError(
                f"{anchor_cls.__name__} has no method {method!r}"
            ) from None
