"""Synchronous request/reply over the simulated network (the RMI analogue).

Each Core owns one :class:`RpcEndpoint`.  Handlers are registered per
:class:`~repro.net.messages.MessageKind` and receive the raw payload
bytes (the Core layer decides how each payload is serialized, because
invocation and movement payloads need complet-aware hooks).  Exceptions
raised by a handler are serialized into the reply frame and re-raised
*by value* at the caller — the same semantics a remote exception has in
RMI — chained to a :class:`~repro.errors.RemoteInvocationError` naming
the remote Core so the remote/local boundary stays visible.

Fault tolerance: every call may carry a per-kind (or per-call) timeout —
a round trip whose virtual time exceeds it raises
:class:`~repro.errors.DeadlineExceededError` — and a per-kind (or
per-call) :class:`~repro.net.retry.RetryPolicy` that re-sends after
reachability failures, backing off on the simulation scheduler.  One-way
messages are genuinely one-way: a receiving handler's failure is caught
at the receiving boundary, logged, and reported through
:attr:`RpcEndpoint.on_oneway_error` instead of travelling back.

Observability: the endpoint carries an optional
:class:`~repro.trace.tracer.Tracer` and
:class:`~repro.metrics.registry.MetricsRegistry` (the owning Core
attaches its own).  With tracing enabled, every request opens a client
span, injects the trace context into the envelope headers, and the
receiving endpoint opens a matching server span parented on it — which
is how one logical operation becomes one span tree across Cores.  The
registry records per-kind call counts, retries, and round-trip virtual
durations regardless of tracing.
"""

from __future__ import annotations

import logging
import pickle
from collections.abc import Callable

from repro.errors import DeadlineExceededError, RemoteInvocationError, TransportError
from repro.net.messages import Envelope, MessageKind
from repro.net.retry import RetryObserver, RetryPolicy
from repro.net.serializer import PLAIN, Segments
from repro.net.transport import Transport
from repro.trace.tracer import context_from_headers

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.registry import MetricsRegistry
    from repro.trace.tracer import Tracer

logger = logging.getLogger(__name__)

#: A handler consumes (source core name, payload) and returns reply bytes;
#: a payload that arrived in a bulk TCP frame is a read-only view.
RpcHandler = Callable[[str, "bytes | memoryview | Segments"], "bytes | memoryview"]

#: Envelope header marking fire-and-forget traffic.
ONEWAY_HEADER = "oneway"

#: Pass as ``timeout=`` to exempt one call from any configured deadline.
#: Commit traffic (``MOVE_COMPLET``) uses this: in the synchronous
#: network a reply in hand means the destination already committed, so a
#: deadline firing after the fact could only produce inconsistent
#: outcomes, never cancel the remote effect.
NO_DEADLINE = float("inf")


#: Reply frames are a one-byte status prefix followed by the body — no
#: pickling of an (status, body) tuple around every reply.  OK bodies are
#: raw handler bytes; error bodies are a pickled exception (or repr).
_OK_PREFIX = b"\x00"
_ERROR_PREFIX = b"\x01"
_OK_EMPTY = _OK_PREFIX


def _ok_frame(body: bytes) -> bytes:
    return _OK_PREFIX + body


def _err_frame(body: object) -> bytes:
    return _ERROR_PREFIX + pickle.dumps(body, protocol=pickle.HIGHEST_PROTOCOL)


class RpcEndpoint:
    """One node's request/reply port on a :class:`Transport`.

    Any transport implementation works — the deterministic simulated
    network for tests, real TCP for multi-process deployments.
    """

    def __init__(self, name: str, transport: Transport) -> None:
        self.name = name
        self.transport = transport
        #: Observability hooks, attached by the owning Core (optional).
        self.tracer: "Tracer | None" = None
        self.metrics: "MetricsRegistry | None" = None
        #: Per-kind (calls counter, duration histogram), bound lazily so
        #: the per-call cost is one dict lookup.
        self._instruments: dict[MessageKind, tuple] = {}
        self._handlers: dict[MessageKind, RpcHandler] = {}
        #: Round-trip deadline per kind, overriding :attr:`default_timeout`.
        self._timeouts: dict[MessageKind, float] = {}
        #: Retry policy per kind, overriding :attr:`default_retry`.
        self._retries: dict[MessageKind, RetryPolicy] = {}
        self.default_timeout: float | None = None
        self.default_retry: RetryPolicy | None = None
        #: Called as ``(envelope, error)`` when a one-way handler fails here.
        self.on_oneway_error: Callable[[Envelope, BaseException], None] | None = None
        #: Called as ``(dst, kind, attempt, delay, error)`` before a retry sleep.
        self.on_retry: Callable[[str, MessageKind, int, float, BaseException], None] | None = None
        self.transport.register(name, self._dispatch)

    # -- configuration --------------------------------------------------------

    def set_timeout(self, seconds: float | None, kind: MessageKind | None = None) -> None:
        """Set the round-trip deadline for ``kind`` (or the default)."""
        if seconds is not None and seconds <= 0.0:
            raise TransportError(f"timeout must be positive, got {seconds}")
        if kind is None:
            self.default_timeout = seconds
        elif seconds is None:
            self._timeouts.pop(kind, None)
        else:
            self._timeouts[kind] = seconds

    def set_retry_policy(
        self, policy: RetryPolicy | None, kind: MessageKind | None = None
    ) -> None:
        """Set the retry policy for ``kind`` (or the default for all kinds)."""
        if kind is None:
            self.default_retry = policy
        elif policy is None:
            self._retries.pop(kind, None)
        else:
            self._retries[kind] = policy

    def timeout_for(self, kind: MessageKind) -> float | None:
        return self._timeouts.get(kind, self.default_timeout)

    def retry_for(self, kind: MessageKind) -> RetryPolicy | None:
        return self._retries.get(kind, self.default_retry)

    # -- sending --------------------------------------------------------------

    def register(self, kind: MessageKind, handler: RpcHandler) -> None:
        """Install the handler for ``kind``; one handler per kind."""
        if kind in self._handlers:
            raise TransportError(f"{self.name!r} already handles {kind.value!r}")
        self._handlers[kind] = handler

    def call(
        self,
        dst: str,
        kind: MessageKind,
        payload: bytes | Segments,
        *,
        timeout: float | None = None,
        retry: RetryPolicy | None = None,
    ) -> bytes:
        """Send a request and return the reply payload.

        Remote handler exceptions are re-raised here, chained to a
        :class:`RemoteInvocationError` naming the remote Core.  An
        exception that cannot itself be serialized arrives as a bare
        :class:`RemoteInvocationError` carrying its repr.  ``timeout``
        and ``retry`` override the per-kind configuration for this call.
        """
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            with tracer.span(f"rpc:{kind.value}", category="rpc", dst=dst):
                return self._call(dst, kind, payload, timeout=timeout, retry=retry)
        return self._call(dst, kind, payload, timeout=timeout, retry=retry)

    def _call(
        self,
        dst: str,
        kind: MessageKind,
        payload: bytes | Segments,
        *,
        timeout: float | None,
        retry: RetryPolicy | None,
    ) -> bytes:
        limit = timeout if timeout is not None else self.timeout_for(kind)
        policy = retry if retry is not None else self.retry_for(kind)
        started = self.transport.scheduler.clock.now()
        if policy is None or policy.max_attempts <= 1:
            frame = self._attempt(dst, kind, payload, limit)
        else:
            frame = policy.run(
                self.transport.scheduler,
                lambda: self._attempt(dst, kind, payload, limit),
                on_retry=self._retry_observer(dst, kind),
            )
        if self.metrics is not None:
            calls, durations = self._instruments_for(kind)
            calls.inc()
            durations.observe(self.transport.scheduler.clock.now() - started)
        assert isinstance(frame, bytes)
        if frame[:1] == _OK_PREFIX:
            return frame[1:]
        body = PLAIN.loads(frame[1:])  # corrupt bytes raise SerializationError
        if isinstance(body, BaseException):
            raise body from RemoteInvocationError(
                f"raised remotely at Core {dst!r} handling {kind.value!r}"
            )
        raise RemoteInvocationError(f"remote error at {dst!r}: {body}")

    def _instruments_for(self, kind: MessageKind) -> tuple:
        pair = self._instruments.get(kind)
        if pair is None:
            assert self.metrics is not None
            pair = (
                self.metrics.counter("rpc.calls", kind=kind.value),
                self.metrics.histogram("rpc.duration", kind=kind.value),
            )
            self._instruments[kind] = pair
        return pair

    def _attempt(
        self, dst: str, kind: MessageKind, payload: bytes | Segments, limit: float | None
    ) -> bytes:
        envelope = Envelope(src=self.name, dst=dst, kind=kind, payload=payload)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            envelope.headers.update(tracer.context_headers())
        clock = self.transport.scheduler.clock
        started = clock.now()
        frame = self.transport.send(envelope, timeout=limit)
        elapsed = clock.now() - started
        if limit is not None and elapsed > limit:
            raise DeadlineExceededError(
                f"{kind.value!r} call from {self.name!r} to {dst!r} took "
                f"{elapsed:.3f}s, deadline was {limit:.3f}s"
            )
        return frame

    def _retry_observer(self, dst: str, kind: MessageKind) -> RetryObserver | None:
        hook = self.on_retry
        tracer = self.tracer
        metrics = self.metrics
        if hook is None and metrics is None and (tracer is None or not tracer.enabled):
            return None

        def observe(attempt: int, delay: float, error: BaseException) -> None:
            if metrics is not None:
                metrics.counter("rpc.retries", kind=kind.value).inc()
            if tracer is not None and tracer.enabled:
                current = tracer.current
                if current is not None:
                    current.set_attribute("attempt", attempt)
                    current.set_attribute("retry_error", repr(error))
            if hook is not None:
                hook(dst, kind, attempt, delay, error)

        return observe

    def post(self, dst: str, kind: MessageKind, payload: bytes) -> None:
        """Send a one-way message; the handler's reply (if any) is dropped.

        One-way means one-way: failures inside the *receiving* handler
        never propagate back here (they are logged and reported at the
        receiving boundary).  Reachability failures still raise, because
        they happen on the sending side.
        """
        headers = {ONEWAY_HEADER: "1"}
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            headers.update(tracer.context_headers())
        envelope = Envelope(
            src=self.name, dst=dst, kind=kind, payload=payload, headers=headers
        )
        if self.metrics is not None:
            self.metrics.counter("rpc.posts", kind=kind.value).inc()
        self.transport.post(envelope)

    def close(self) -> None:
        """Detach from the network (no further traffic in or out)."""
        self.transport.deregister(self.name)

    # -- receiving ------------------------------------------------------------

    def _dispatch(self, envelope: Envelope) -> bytes:
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            parent = context_from_headers(envelope.headers)
            if parent is not None:
                with tracer.span(
                    f"recv:{envelope.kind.value}",
                    category="recv",
                    parent=parent,
                    src=envelope.src,
                ):
                    return self._handle(envelope)
        return self._handle(envelope)

    def _handle(self, envelope: Envelope) -> bytes:
        handler = self._handlers.get(envelope.kind)
        if handler is None:
            error = TransportError(
                f"node {self.name!r} has no handler for {envelope.kind.value!r}"
            )
            return self._error_frame(envelope, error)
        try:
            reply = handler(envelope.src, envelope.payload)
        except BaseException as exc:  # noqa: BLE001 - crossing by value
            return self._error_frame(envelope, exc)
        if not isinstance(reply, (bytes, memoryview)):
            error = TransportError(
                f"handler for {envelope.kind.value!r} at {self.name!r} returned "
                f"{type(reply).__name__}, expected bytes"
            )
            return self._error_frame(envelope, error)
        if envelope.headers.get(ONEWAY_HEADER) == "1":
            # The sender dropped the reply before it was built; a bare
            # status byte acknowledges delivery without framing work.
            return _OK_EMPTY
        return _ok_frame(reply)

    def _error_frame(self, envelope: Envelope, exc: BaseException) -> bytes:
        if envelope.headers.get(ONEWAY_HEADER) == "1":
            # The sender is not listening; absorb the failure here.
            logger.warning(
                "one-way %s from %r failed at %r: %r",
                envelope.kind.value,
                envelope.src,
                self.name,
                exc,
            )
            if self.on_oneway_error is not None:
                self.on_oneway_error(envelope, exc)
            return _OK_EMPTY
        return _err_frame(_portable_exception(exc))


def _portable_exception(exc: BaseException) -> object:
    """Return ``exc`` if it survives serialization, else its repr."""
    try:
        pickle.loads(pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # noqa: BLE001
        return repr(exc)
    return exc
