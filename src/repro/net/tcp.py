"""Real TCP transport: Cores as separate OS processes.

One :class:`TcpTransport` is a *hub* for the Cores of one process —
usually exactly one.  Each registered node gets its own listener socket;
remote peers are named in an address book (:meth:`add_peer`).  The wire
format is the length-prefixed framing of :mod:`repro.net.framing`, with
the RPC payload bytes (struct-framed INVOKE, 1-byte status-prefix
replies) passed through untouched, so application-level encoding is
byte-identical with the simulated backend.

Threading model — who writes, who reads, who runs handlers:

- The **calling thread** of :meth:`TcpTransport.send` / ``post`` writes
  its own frame to the cached per-peer socket (under that connection's
  write lock) and then sleeps on a lock until its reply arrives — the
  RMI-style blocking call the RPC layer expects.
- **One I/O thread per hub** (``fargo-tcp-io``) runs a ``selectors``
  loop that only accepts and reads.  A REPLY/ERROR frame releases the
  caller waiting under its request id; a REQUEST/ONEWAY frame is handed
  to the dispatch pool.  Handlers never run here: a re-entrant chain
  A→B→A→B shares one connection per direction, so a handler blocked on a
  nested call would stop the very thread that must read its reply.
- A **dispatch thread** (``fargo-tcp-dispatch``) runs the node handler —
  and any nested synchronous calls it makes back across the network —
  and writes the reply itself.

A round trip therefore wakes two threads besides the two endpoints
(receiver's I/O thread → dispatch thread, sender's I/O thread →
caller).  The sockets are non-blocking underneath so that every write
and wait can honour the caller's deadline; only the I/O thread ever
touches the selector.

Failure semantics mirror the simulated network's types: a refused or
lost connection raises :class:`~repro.errors.CoreUnreachableError`, a
node administratively marked down answers (or refuses) with
:class:`~repro.errors.CoreDownError`, and an expired round-trip budget
— connect, write and wait together — raises
:class:`~repro.errors.DeadlineExceededError`.  Outgoing connections
reconnect per peer under a :class:`~repro.net.retry.RetryPolicy`.
Chaos hooks support node crash/revive, link cuts, injected latency, and
partitions; bandwidth shaping is simnet-only and raises
:class:`~repro.errors.TransportCapabilityError`.
"""

from __future__ import annotations

import itertools
import logging
import os
import selectors
import socket
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING

from repro.errors import (
    ConfigurationError,
    CoreDownError,
    CoreError,
    CoreUnreachableError,
    DeadlineExceededError,
    DuplicateCoreError,
    TransportError,
)
from repro.net import framing
from repro.net.messages import Envelope
from repro.net.retry import RetryPolicy
from repro.net.transport import (
    CAP_LATENCY,
    CAP_LINK_STATE,
    CAP_NODE_DOWN,
    CAP_PARTITION,
    LinkStats,
    NetworkStats,
    NodeHandler,
    TraceLog,
    Transport,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.scheduler import Scheduler

logger = logging.getLogger(__name__)

#: Address of one node: (host, port).
Address = tuple[str, int]

#: Reconnect schedule applied per peer when a connection cannot be
#: established; real-time sleeps on the calling thread, inside its deadline.
DEFAULT_RECONNECT = RetryPolicy(max_attempts=4, base_delay=0.05, multiplier=2.0, max_delay=0.5)

#: Size of the I/O thread's one receive buffer.
_READ_CHUNK = 1 << 18

_LISTEN_BACKLOG = 100

#: Most buffers one ``sendmsg`` takes; a longer list is EMSGSIZE.
_IOV_MAX = os.sysconf("SC_IOV_MAX")


class _Waiter:
    """A caller asleep on its reply: a held lock that the settler releases."""

    __slots__ = ("lock", "frame", "error")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.lock.acquire()
        self.frame: framing.Frame | None = None
        self.error: BaseException | None = None


class _Connection:
    """One established socket, outgoing or accepted.

    Any thread may write a whole frame under ``write_lock``; only the I/O
    thread reads, feeds ``decoder`` and closes the socket.  On an
    outgoing connection many blocked senders share the socket, matched
    to their replies by request id in ``pending``.
    """

    __slots__ = ("sock", "peer", "write_lock", "decoder", "pending", "closed")

    def __init__(self, sock: socket.socket, peer: str) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        self.sock = sock
        self.peer = peer
        self.write_lock = threading.Lock()
        self.decoder = framing.FrameDecoder()
        self.pending: dict[int, _Waiter] = {}
        self.closed = False

    def write(self, data: bytes | list[bytes], deadline: float) -> None:
        """Put one whole frame on the wire by ``deadline``.

        ``data`` is what :mod:`repro.net.framing` encoded: one ``bytes``,
        or the buffers of a frame, which are gathered, not joined.
        Raises :class:`TimeoutError` past the deadline and ``OSError`` on
        a dead socket.  A frame written in part poisons the stream, so
        either failure aborts the connection.
        """
        if not self.write_lock.acquire(timeout=max(0.0, deadline - time.monotonic())):
            raise TimeoutError("write lock not free by the deadline")
        try:
            if isinstance(data, bytes):  # the usual frame: one send, no list to build
                try:
                    sent = self.sock.send(data)
                except BlockingIOError:
                    sent = 0
                rest = [memoryview(data)[sent:]] if sent < len(data) else None
            else:
                rest = self._gather(data)
            if rest:
                self._write_rest(rest, deadline)
        except OSError:
            self.abort()
            raise
        finally:
            self.write_lock.release()

    def _gather(self, buffers: list) -> list:
        """One non-blocking gather write; what of ``buffers`` is still to go."""
        try:
            sent = self.sock.sendmsg(buffers[:_IOV_MAX])
        except BlockingIOError:
            return buffers
        for index, buffer in enumerate(buffers):
            if sent < len(buffer):
                return [memoryview(buffer)[sent:], *buffers[index + 1:]]
            sent -= len(buffer)
        return []

    def _write_rest(self, rest: list, deadline: float) -> None:
        """The send buffer is full: wait for room, never past ``deadline``."""
        with selectors.DefaultSelector() as writable:
            writable.register(self.sock, selectors.EVENT_WRITE)
            while rest:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0 or not writable.select(remaining):
                    raise TimeoutError("peer did not drain the socket by the deadline")
                rest = self._gather(rest)

    def request(
        self, request_id: int, data: bytes | list[bytes], deadline: float
    ) -> framing.Frame:
        """Write a REQUEST frame and sleep until its reply or ``deadline``."""
        waiter = self.pending[request_id] = _Waiter()
        try:
            if self.closed:  # torn down before the waiter was visible to fail()
                raise ConnectionResetError(f"connection to {self.peer!r} lost")
            self.write(data, deadline)
            if not waiter.lock.acquire(timeout=max(0.0, deadline - time.monotonic())):
                if self.pending.pop(request_id, None) is not None:
                    raise TimeoutError("no reply by the deadline")
                waiter.lock.acquire()  # settled between the timeout and the pop
        finally:
            self.pending.pop(request_id, None)
        if waiter.error is not None:
            raise waiter.error
        assert waiter.frame is not None
        return waiter.frame

    def settle(self, frame: framing.Frame) -> None:
        """Hand a REPLY/ERROR frame to the caller waiting for it, if any."""
        waiter = self.pending.pop(frame.request_id, None)
        if waiter is not None:
            waiter.frame = frame
            waiter.lock.release()

    def fail(self, error: BaseException) -> None:
        """Mark closed and wake every waiting caller with ``error``."""
        self.closed = True
        while self.pending:
            try:
                _request_id, waiter = self.pending.popitem()
            except KeyError:  # a timed-out caller took the last one
                break
            waiter.error = error
            waiter.lock.release()

    def abort(self) -> None:
        """Give the connection up from any thread.

        Shutting the socket down makes it readable, so the I/O thread —
        which alone may unregister and close it — tears it down next.
        """
        self.closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass


class TcpTransport(Transport):
    """TCP hub implementing the :class:`Transport` protocol."""

    CAPABILITIES = frozenset({CAP_NODE_DOWN, CAP_LINK_STATE, CAP_LATENCY, CAP_PARTITION})

    def __init__(
        self,
        scheduler: "Scheduler | None" = None,
        *,
        host: str = "127.0.0.1",
        ports: dict[str, int] | None = None,
        reconnect: RetryPolicy = DEFAULT_RECONNECT,
        request_timeout: float = 30.0,
        connect_timeout: float = 10.0,
        trace_capacity: int = 256,
        max_dispatch_threads: int = 32,
    ) -> None:
        if scheduler is None:
            from repro.sim.clock import RealClock
            from repro.sim.scheduler import Scheduler

            scheduler = Scheduler(RealClock())
        if request_timeout <= 0.0 or connect_timeout <= 0.0:
            raise ConfigurationError("timeouts must be positive")
        self.scheduler = scheduler
        self.stats = NetworkStats()
        self.trace = TraceLog(trace_capacity)
        self._host = host
        self._ports = dict(ports or {})
        self._reconnect = reconnect
        self._request_timeout = request_timeout
        self._connect_timeout = connect_timeout
        self._handlers: dict[str, NodeHandler] = {}
        self._listeners: dict[str, socket.socket] = {}
        self._peers: dict[str, Address] = {}
        self._down: set[str] = set()
        self._blocked: set[tuple[str, str]] = set()
        self._latency: dict[tuple[str, str], float] = {}
        self._partition_of: dict[str, int] = {}
        self._link_stats: dict[tuple[str, str], LinkStats] = {}
        self._stats_lock = threading.Lock()
        self._request_ids = itertools.count(1)
        self._msg_ids = itertools.count(1)
        self._connections: dict[str, _Connection] = {}
        self._connect_locks: dict[str, threading.Lock] = {}
        self._closed = False
        self._executor = ThreadPoolExecutor(
            max_workers=max_dispatch_threads, thread_name_prefix="fargo-tcp-dispatch"
        )
        # The selector belongs to the I/O thread.  Other threads ask it
        # to watch or drop a socket through _io_calls and the wake pair.
        self._selector = selectors.DefaultSelector()
        self._io_calls: deque[tuple] = deque()
        self._io_calls_lock = threading.Lock()
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._selector.register(self._wake_recv, selectors.EVENT_READ, None)
        self._io_thread = threading.Thread(
            target=self._io_loop, name="fargo-tcp-io", daemon=True
        )
        self._io_thread.start()

    # -- the I/O thread: accept and read, nothing else -----------------------

    def _io_call(self, function, *args) -> None:
        """Have the I/O thread run ``function(*args)`` (control path only)."""
        with self._io_calls_lock:
            if self._closed:
                raise TransportError("transport is closed")
            self._io_calls.append((function, args))
            self._wake()

    def _wake(self) -> None:
        """Make the selector return; call with ``_io_calls_lock`` held.

        close() takes the same lock before it lets go of the wake pair,
        so no wake-up is ever sent into a closed socket.
        """
        try:
            self._wake_send.send(b"\0")
        except BlockingIOError:
            pass  # enough wake-ups are already queued

    def _io_loop(self) -> None:
        selector = self._selector
        buffer = memoryview(bytearray(_READ_CHUNK))
        while not self._closed or self._io_calls:
            for key, _events in selector.select():
                target = key.data
                try:
                    if target is None:
                        self._run_io_calls()
                    elif isinstance(target, _Connection):
                        self._read_ready(target, buffer)
                    else:
                        self._accept_ready(key.fileobj, target)
                except Exception:  # noqa: BLE001 - the hub is deaf without this thread
                    logger.exception("TcpTransport I/O thread: event on %r failed", target)
        selector.unregister(self._wake_recv)  # close() owns the wake pair
        for key in list(selector.get_map().values()):
            self._drop(key.fileobj)
        selector.close()

    def _run_io_calls(self) -> None:
        try:
            self._wake_recv.recv(4096)
        except BlockingIOError:
            pass
        while self._io_calls:
            function, args = self._io_calls.popleft()
            function(*args)

    def _watch(self, sock: socket.socket, target) -> None:
        """Start reading ``sock``: a :class:`_Connection`, or a listener's node name."""
        self._selector.register(sock, selectors.EVENT_READ, target)

    def _drop(self, sock: socket.socket) -> None:
        """Stop watching ``sock`` and close it, failing whoever waits on it."""
        try:
            key = self._selector.unregister(sock)
        except (KeyError, ValueError):
            return  # never watched, or dropped already
        sock.close()
        if isinstance(key.data, _Connection):
            key.data.fail(ConnectionResetError(f"connection to {key.data.peer!r} lost"))

    def _accept_ready(self, listener: socket.socket, name: str) -> None:
        try:
            sock, address = listener.accept()
        except OSError:
            return  # the connecting peer gave up first
        self._watch(sock, _Connection(sock, f"{address[0]}:{address[1]} (calling {name!r})"))

    def _read_ready(self, connection: _Connection, buffer: memoryview) -> None:
        decoder = connection.decoder
        tail = decoder.tail()  # of a bulk frame: the bytes land where they stay
        try:
            count = connection.sock.recv_into(buffer if tail is None else tail)
        except BlockingIOError:
            return
        except OSError:
            count = 0
        if count and not connection.closed:
            try:
                frames = decoder.feed(buffer[:count]) if tail is None else decoder.landed(count)
            except framing.FramingError:
                logger.warning("undecodable stream from peer; dropping connection",
                               exc_info=True)
            else:
                for frame in frames:
                    if frame.type in (framing.REPLY, framing.ERROR):
                        connection.settle(frame)
                    else:
                        self._executor.submit(self._dispatch_frame, frame, connection)
                return
        self._drop(connection.sock)

    # -- attachment ----------------------------------------------------------

    def register(self, name: str, handler: NodeHandler) -> None:
        """Attach a local node: its listener socket is bound immediately.

        The port comes from the ``ports`` map given at construction
        (fixed ports for multi-process deployments) or is ephemeral.
        """
        if name in self._handlers:
            raise DuplicateCoreError(f"node {name!r} is already registered")
        family = socket.AF_INET6 if ":" in self._host else socket.AF_INET
        listener = socket.create_server(
            (self._host, self._ports.get(name, 0)), family=family, backlog=_LISTEN_BACKLOG
        )
        listener.setblocking(False)
        try:
            self._io_call(self._watch, listener, name)
        except TransportError:
            listener.close()
            raise
        self._listeners[name] = listener
        self._handlers[name] = handler
        self._peers[name] = (self._host, listener.getsockname()[1])
        self._down.discard(name)

    def deregister(self, name: str) -> None:
        """Detach a local node: close its listener, refuse its traffic."""
        listener = self._listeners.pop(name, None)
        if listener is not None:
            dropped = threading.Event()
            try:
                self._io_call(self._drop, listener)
                self._io_call(dropped.set)
            except TransportError:
                pass  # closed: the I/O thread dropped it on its way out
            else:
                dropped.wait(self._connect_timeout)  # the port is free on return
        self._handlers.pop(name, None)
        self._down.add(name)

    def add_peer(self, name: str, address: Address) -> None:
        """Record (or update) the address of a remote node."""
        self._peers[name] = (address[0], int(address[1]))
        # A re-announced peer may have restarted: drop any stale connection.
        self._invalidate(name)

    def local_address(self, name: str) -> Address:
        """The (host, port) a registered local node is listening on."""
        if name not in self._listeners:
            raise TransportError(f"node {name!r} is not served by this transport")
        return self._peers[name]

    def known_peers(self) -> dict[str, Address]:
        """Every known node address (local and remote)."""
        return dict(self._peers)

    # -- addressing / reachability -------------------------------------------

    def nodes(self) -> list[str]:
        return sorted(self._peers)

    def is_up(self, name: str) -> bool:
        return name in self._peers and name not in self._down

    def can_reach(self, src: str, dst: str) -> bool:
        return self._refusal(src, dst) is None

    def _refusal(self, src: str, dst: str) -> CoreError | None:
        """The typed error delivery from src to dst would hit, if any.

        Covers what this hub can know locally: administrative down marks,
        cut links, and partitions.  A remote crash this hub was never
        told about surfaces later, as a connection failure.
        """
        for name in (src, dst):
            if name not in self._peers:
                return CoreUnreachableError(f"node {name!r} is not on the network")
            if name in self._down:
                return CoreDownError(f"node {name!r} is down")
        if src == dst:
            return None
        if (src, dst) in self._blocked:
            return CoreUnreachableError(f"link {src!r} -> {dst!r} is down")
        if self._partition_of:
            if self._partition_of.get(src) != self._partition_of.get(dst):
                return CoreUnreachableError(
                    f"nodes {src!r} and {dst!r} are in different partitions"
                )
        return None

    def _check(self, src: str, dst: str) -> None:
        error = self._refusal(src, dst)
        if error is not None:
            raise error

    # -- accounting ----------------------------------------------------------

    def link_stats(self, src: str, dst: str) -> LinkStats:
        key = (src, dst)
        stats = self._link_stats.get(key)
        if stats is None:
            stats = self._link_stats.setdefault(key, LinkStats())
        return stats

    def transfer_time(self, src: str, dst: str, nbytes: int) -> float:
        """Injected latency only; real wire time is measured, not modelled."""
        if src == dst:
            return 0.0
        return self._latency.get((src, dst), 0.0)

    def _charge(self, src: str, dst: str, kind, nbytes: int, seconds: float) -> None:
        with self._stats_lock:
            self.stats.record(kind, nbytes, seconds)
            if src != dst:
                self.link_stats(src, dst).record(nbytes, seconds)

    # -- delivery: sending side ----------------------------------------------

    def send(self, envelope: Envelope, timeout: float | None = None) -> bytes:
        """Request/reply over the socket; blocks the calling thread."""
        self._check(envelope.src, envelope.dst)
        self._sleep_injected_latency(envelope.src, envelope.dst)
        envelope.msg_id = next(self._msg_ids)
        self.trace.append(envelope)
        request_id = next(self._request_ids)
        data = framing.encode_request(envelope, request_id)
        limit = self._effective_timeout(timeout)
        started = time.monotonic()
        deadline = started + limit
        dst = envelope.dst
        try:
            frame = self._acquire(dst, deadline).request(request_id, data, deadline)
        except TimeoutError:
            raise DeadlineExceededError(
                f"{envelope.kind.value!r} call from {envelope.src!r} to "
                f"{dst!r} exceeded its {limit:.3f}s transport deadline"
            ) from None
        except OSError as exc:
            raise CoreUnreachableError(
                f"connection to node {dst!r} failed mid-request: {exc!r}"
            ) from exc
        elapsed = time.monotonic() - started
        self._charge(envelope.src, dst, envelope.kind, len(envelope.payload), elapsed)
        if frame.type == framing.ERROR:
            raise self._remote_refusal(dst, frame)
        self._charge(dst, envelope.src, envelope.kind, len(frame.payload), 0.0)
        # A bulk reply arrives as a view; callers of send() are promised bytes.
        return bytes(frame.payload)

    def post(self, envelope: Envelope) -> None:
        """Fire-and-forget: blocks only until the frame is on the wire."""
        self._check(envelope.src, envelope.dst)
        self._sleep_injected_latency(envelope.src, envelope.dst)
        envelope.msg_id = next(self._msg_ids)
        self.trace.append(envelope)
        request_id = next(self._request_ids)
        data = framing.encode_request(envelope, request_id, oneway=True)
        started = time.monotonic()
        deadline = started + self._request_timeout
        try:
            self._acquire(envelope.dst, deadline).write(data, deadline)
        except OSError as exc:  # a TimeoutError too: nothing was delivered
            raise CoreUnreachableError(
                f"connection to node {envelope.dst!r} failed while posting: {exc!r}"
            ) from exc
        self._charge(
            envelope.src, envelope.dst, envelope.kind,
            len(envelope.payload), time.monotonic() - started,
        )

    def _effective_timeout(self, timeout: float | None) -> float:
        """The per-request wall-clock budget; the backstop bounds hangs."""
        if timeout is None or timeout == float("inf"):
            return self._request_timeout
        return timeout

    def _sleep_injected_latency(self, src: str, dst: str) -> None:
        delay = self._latency.get((src, dst), 0.0)
        if delay > 0.0:
            time.sleep(delay)

    @staticmethod
    def _remote_refusal(dst: str, frame: framing.Frame) -> BaseException:
        error = framing.decode_error(frame.payload)
        if isinstance(error, (CoreError, TransportError)):
            return error
        return TransportError(f"transport-level failure at {dst!r}: {error!r}")

    def _acquire(self, dst: str, deadline: float, attempts: int | None = None) -> _Connection:
        """Cached connection to ``dst``, (re)connecting inside ``deadline``.

        Raises :class:`TimeoutError` when the deadline passes first and
        :class:`~repro.errors.CoreUnreachableError` when ``attempts``
        connects (default: the reconnect policy's) all failed.  The
        per-peer lock makes concurrent callers share one new connection;
        it is free during the back-off sleeps.
        """
        connection = self._connections.get(dst)
        if connection is not None and not connection.closed:
            return connection
        lock = self._connect_locks.setdefault(dst, threading.Lock())
        attempts = attempts or self._reconnect.max_attempts
        attempt = 1
        while True:
            if not lock.acquire(timeout=max(0.0, deadline - time.monotonic())):
                raise TimeoutError("connect lock not free by the deadline")
            try:
                connection = self._connections.get(dst)
                if connection is not None and not connection.closed:
                    return connection  # connected by whoever held the lock
                if self._closed:
                    raise TransportError("transport is closed")
                address = self._peers.get(dst)
                if address is None:
                    raise CoreUnreachableError(f"node {dst!r} is not on the network")
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    raise TimeoutError("not connected by the deadline")
                try:
                    sock = socket.create_connection(
                        address, timeout=min(self._connect_timeout, remaining)
                    )
                except OSError as exc:
                    if attempt >= attempts:
                        raise CoreUnreachableError(
                            f"cannot connect to node {dst!r} at "
                            f"{address[0]}:{address[1]} after {attempt} attempts: {exc!r}"
                        ) from exc
                else:
                    connection = _Connection(sock, dst)
                    try:
                        self._io_call(self._watch, sock, connection)
                    except TransportError:
                        sock.close()
                        raise
                    self._connections[dst] = connection
                    return connection
            finally:
                lock.release()
            backoff = self._reconnect.backoff(attempt)
            time.sleep(max(0.0, min(backoff, deadline - time.monotonic())))
            attempt += 1

    def _invalidate(self, dst: str) -> None:
        connection = self._connections.pop(dst, None)
        if connection is not None:
            connection.abort()

    def probe(self, dst: str, timeout: float | None = None) -> bool:
        """Reuse the connection to ``dst``, or try once to establish it.

        Readiness and liveness check: True once the peer's listener
        accepts.  One connect attempt, no back-off — callers bring their
        own cadence.  Never raises on ordinary connection failure.
        """
        deadline = time.monotonic() + (timeout or self._connect_timeout)
        try:
            self._acquire(dst, deadline, attempts=1)
        except (CoreError, TransportError, OSError):
            return False
        return True

    # -- delivery: receiving side --------------------------------------------

    def _dispatch_frame(self, frame: framing.Frame, connection: _Connection) -> None:
        """Run one incoming frame through its node handler (dispatch thread)."""
        oneway = frame.type == framing.ONEWAY

        def respond(data: bytes | list[bytes]) -> None:
            if oneway:
                return
            try:
                # No caller's deadline is known here; the hub's backstop
                # keeps a peer that stopped reading from pinning the pool.
                connection.write(data, time.monotonic() + self._request_timeout)
            except OSError:
                logger.debug("reply to %s could not be written", connection.peer,
                             exc_info=True)

        error = self._refusal(frame.src, frame.dst)
        if error is None and frame.dst not in self._handlers:
            error = CoreUnreachableError(
                f"node {frame.dst!r} is not served by this transport"
            )
        if error is not None:
            respond(framing.encode_error(frame.request_id, error))
            return
        envelope = frame.to_envelope()
        envelope.msg_id = next(self._msg_ids)
        self.trace.append(envelope)
        handler = self._handlers[frame.dst]
        try:
            reply = handler(envelope)
        except BaseException as exc:  # noqa: BLE001 - crossing by value
            # Node handlers (RpcEndpoint._dispatch) serialize their own
            # failures; anything escaping is a transport-level fault.
            if oneway:
                logger.warning("one-way %s handler at %r failed",
                               frame.kind, frame.dst, exc_info=True)
                return
            respond(framing.encode_error(frame.request_id, exc))
            return
        if oneway:
            return
        if not isinstance(reply, (bytes, memoryview)):  # a view: part of a bulk request
            respond(framing.encode_error(
                frame.request_id,
                TransportError(
                    f"handler at {frame.dst!r} returned "
                    f"{type(reply).__name__}, expected bytes"
                ),
            ))
            return
        try:
            data = framing.encode_reply(frame.request_id, reply)
        except framing.FramingError as exc:  # too large to frame: say so, typed
            data = framing.encode_error(frame.request_id, exc)
        respond(data)

    # -- chaos hooks -----------------------------------------------------------

    def set_node_down(self, name: str, down: bool = True) -> None:
        """Crash (or revive) a node as seen from this hub.

        For a local node this refuses incoming requests with
        :class:`~repro.errors.CoreDownError`; for a remote one it blocks
        outgoing traffic at the sender (a cluster-level injector
        broadcasts the mark to every hub).
        """
        if down:
            self._down.add(name)
        else:
            self._down.discard(name)

    def set_link(
        self,
        a: str,
        b: str,
        *,
        bandwidth: float | None = None,
        latency: float | None = None,
        up: bool | None = None,
        symmetric: bool = True,
    ) -> None:
        if bandwidth is not None:
            self._require("bandwidth", "bandwidth shaping")
        if latency is not None and latency < 0:
            raise ConfigurationError(f"latency must be non-negative, got {latency}")
        directions = [(a, b), (b, a)] if symmetric else [(a, b)]
        for key in directions:
            if latency is not None:
                self._latency[key] = latency
            if up is True:
                self._blocked.discard(key)
            elif up is False:
                self._blocked.add(key)

    def partition(self, *groups: set[str]) -> None:
        partition_of: dict[str, int] = {}
        for index, group in enumerate(groups):
            for name in group:
                if name in partition_of:
                    raise ConfigurationError(f"node {name!r} appears in two partitions")
                partition_of[name] = index
        self._partition_of = partition_of

    def heal_partition(self) -> None:
        self._partition_of = {}

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Close every socket, fail pending requests, join the I/O thread."""
        with self._io_calls_lock:
            if self._closed:
                return
            self._closed = True  # no _io_call is accepted from here on
            self._wake()
        # The I/O thread never runs a handler, so it is never far from its
        # selector: it drops every socket it watches on the way out.
        self._io_thread.join(timeout=self._connect_timeout)
        if self._io_thread.is_alive():
            logger.warning("TcpTransport I/O thread did not stop")
        self._wake_send.close()
        self._wake_recv.close()
        self._connections.clear()
        self._listeners.clear()
        self._executor.shutdown(wait=False, cancel_futures=True)
        self._handlers.clear()

    def __repr__(self) -> str:
        local = sorted(self._listeners)
        return f"<TcpTransport host={self._host} local={local} peers={len(self._peers)}>"
