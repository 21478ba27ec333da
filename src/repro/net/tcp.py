"""Real TCP transport: Cores as separate OS processes.

One :class:`TcpTransport` is a *hub* for the Cores of one process —
usually exactly one.  Each registered node gets its own listener socket;
remote peers are named in an address book (:meth:`add_peer`).  The wire
format is the length-prefixed framing of :mod:`repro.net.framing`, with
the RPC payload bytes (struct-framed INVOKE, 1-byte status-prefix
replies) passed through untouched, so application-level encoding is
byte-identical with the simulated backend.

Threading model — a connection carries one call at a time, as an RMI
connection does, so a round trip wakes its two endpoints and no other
thread (docs/TRANSPORT.md has the measurements and the dead ends):

- **Who connects, writes and reads.**  The thread that calls
  :meth:`TcpTransport.send` / ``post`` checks a connection out of the
  destination's idle pool (the one returned last, first) or connects,
  inside its own deadline.  The connection is then that thread's alone:
  it writes its frame and, for ``send``, reads its own reply until the
  deadline.  The one frame that may arrive is the REPLY or ERROR with its
  request id; anything else closes the connection and is a
  :class:`~repro.errors.CoreUnreachableError`.  After the call the
  connection returns to the pool, which keeps :data:`_IDLE_CAP` per peer.
- **What a timeout does.**  A connection whose call ran out of time, lost
  its peer or was written in part is closed, never reused: the late reply
  dies with the socket.  An *idle* connection whose peer hung up (a
  restarted child) is found at check-out by one zero-timeout poll and
  replaced unseen; :meth:`add_peer` drops the peer's idle connections.
- **Who runs handlers.**  Each accepted connection has one serving thread
  (``fargo-tcp-conn``) that blocks in ``recv_into``, runs a REQUEST
  through the node handler *itself* and writes the reply.  A handler
  that calls back (A→B→A→B) finds A→B checked out and opens a second
  connection, with a serving thread of its own: re-entrancy needs no more.
- **Why ONEWAY frames alone change threads.**  Their sender returned the
  connection once the frame was written, so the next frame may arrive
  while the handler runs, and a handler that calls its sender back would
  block the thread that has to read that call.  They are queued for
  ``fargo-tcp-dispatch`` threads; one more starts when more frames are
  outstanding than there are threads, up to ``max_dispatch_threads``.
- **Who accepts and who closes.**  One I/O thread per hub
  (``fargo-tcp-io``) accepts, starts serving threads and runs control
  calls; it reads no connection and runs no handler.  A connection is
  closed by its owner: a caller its failed one, a serving thread its own
  when the peer hangs up, the hub the idle ones.  :meth:`TcpTransport.close`
  shuts every socket down, which wakes every serving thread and every
  caller blocked on a reply, and joins the hub's threads.

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
import queue
import select
import selectors
import socket
import threading
import time
from collections import deque
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
from repro.net.messages import Envelope, MessageKind
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

#: Size of each connection's receive buffer; a bulk frame bypasses it.
_READ_CHUNK = 1 << 16

#: Most idle connections kept per peer; one returned beyond it is closed.
_IDLE_CAP = 8

_LISTEN_BACKLOG = 100

#: Most buffers one ``sendmsg`` takes; a longer list is EMSGSIZE.
_IOV_MAX = os.sysconf("SC_IOV_MAX")


class _Connection:
    """One established socket, outgoing or accepted, owned by one thread at a time.

    Only the owner — the caller that checked it out, or an accepted one's
    serving thread — writes, reads and closes it; any thread may
    :meth:`abort` it to wake the owner.  Reads block; writes pass
    ``MSG_DONTWAIT`` and wait for room themselves, to honour a deadline.
    """

    __slots__ = ("sock", "peer", "address", "decoder", "buffer", "poller")

    def __init__(self, sock: socket.socket, peer: str, address: Address | None = None) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        self.sock = sock
        self.peer = peer
        self.address = address  # what an outgoing connection connected to
        self.decoder = framing.FrameDecoder()
        self.buffer = memoryview(bytearray(_READ_CHUNK))
        self.poller = select.poll()
        self.poller.register(sock, select.POLLIN)

    def write(self, data: bytes | list[bytes], deadline: float) -> None:
        """Put one whole frame on the wire by ``deadline``.

        ``data`` is what :mod:`repro.net.framing` encoded: one ``bytes``,
        or the buffers of a frame, which are gathered, not joined.
        Raises :class:`TimeoutError` past the deadline and ``OSError`` on
        a dead socket; either way the stream is poisoned by half a frame.
        """
        if isinstance(data, bytes):  # the usual frame: one send, no list to build
            try:
                sent = self.sock.send(data, socket.MSG_DONTWAIT)
            except BlockingIOError:
                sent = 0
            rest = [memoryview(data)[sent:]] if sent < len(data) else None
        else:
            rest = self._gather(data)
        if not rest:
            return
        writable = select.poll()  # the send buffer is full: wait for room
        writable.register(self.sock, select.POLLOUT)
        while rest:
            remaining = deadline - time.monotonic()
            if remaining <= 0.0 or not writable.poll(remaining * 1000.0):
                raise TimeoutError("peer did not drain the socket by the deadline")
            rest = self._gather(rest)

    def _gather(self, buffers: list) -> list:
        """One non-blocking gather write; what of ``buffers`` is still to go."""
        try:
            sent = self.sock.sendmsg(buffers[:_IOV_MAX], (), socket.MSG_DONTWAIT)
        except BlockingIOError:
            return buffers
        for index, buffer in enumerate(buffers):
            if sent < len(buffer):
                return [memoryview(buffer)[sent:], *buffers[index + 1:]]
            sent -= len(buffer)
        return []

    def receive(self) -> list[framing.Frame]:
        """Block in one ``recv_into`` (a bulk frame's rest lands in ``FrameDecoder.tail()``,
        where it stays); the frames it completed.  ``OSError`` at the end of the stream."""
        decoder = self.decoder
        tail = decoder.tail()
        count = self.sock.recv_into(self.buffer if tail is None else tail)
        if not count:
            raise ConnectionResetError(f"connection to {self.peer!r} lost")
        return decoder.feed(self.buffer[:count]) if tail is None else decoder.landed(count)

    def read_reply(self, request_id: int, deadline: float) -> framing.Frame:
        """The reply to ``request_id``, the one frame that may arrive now: :class:`TimeoutError`
        past ``deadline``, ``OSError`` when the stream ends, does not decode or carries more."""
        frames: list[framing.Frame] = []
        while not frames:
            remaining = deadline - time.monotonic()
            if remaining <= 0.0 or not self.poller.poll(remaining * 1000.0):
                raise TimeoutError("no reply by the deadline")
            try:
                frames = self.receive()
            except framing.FramingError as exc:
                raise ConnectionAbortedError(f"undecodable reply from {self.peer!r}") from exc
        frame = frames[0]
        due = frame.request_id == request_id and frame.type in (framing.REPLY, framing.ERROR)
        if len(frames) > 1 or not due:
            raise ConnectionAbortedError(
                f"{self.peer!r} sent {len(frames)} frame(s) where the reply to {request_id} was due"
            )
        return frame

    def abort(self) -> None:
        """Wake the owner from any thread: its read ends, and it closes the socket."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # closed already, or never connected


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
        self._closed = False
        #: The process that built the hub: a forked copy holds copies of its
        #: sockets, and closing them there must not touch the owner's.
        self._owner = os.getpid()
        # Connections, hub threads and the ONEWAY load change hands under _lock.
        self._lock = threading.Lock()
        self._idle: dict[str, list[_Connection]] = {}
        self._live: set[_Connection] = set()
        self._threads: set[threading.Thread] = set()
        self._oneway: queue.SimpleQueue = queue.SimpleQueue()
        self._oneway_load = 0  # ONEWAY frames queued or running
        self._dispatchers = 0
        self._max_dispatch_threads = max_dispatch_threads
        # The selector belongs to the I/O thread.  Other threads ask it
        # to watch or drop a listener through _io_calls and the wake pair.
        self._selector = selectors.DefaultSelector()
        self._io_calls: deque[tuple] = deque()
        self._io_calls_lock = threading.Lock()
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._selector.register(self._wake_recv, selectors.EVENT_READ, None)
        self._io_thread = threading.Thread(target=self._io_loop, name="fargo-tcp-io", daemon=True)
        self._io_thread.start()

    # -- the I/O thread: accept, nothing else ----------------------------------

    def _io_call(self, function, *args) -> None:
        """Have the I/O thread run ``function(*args)`` (control path only)."""
        with self._io_calls_lock:
            if self._closed:
                raise TransportError("transport is closed")
            self._io_calls.append((function, args))
            self._wake()

    def _wake(self) -> None:
        """Make the selector return; call with ``_io_calls_lock`` held: close() takes it
        before it lets go of the wake pair, so no wake-up is sent into a closed socket."""
        try:
            self._wake_send.send(b"\0")
        except BlockingIOError:
            pass  # enough wake-ups are already queued

    def _io_loop(self) -> None:
        while not self._closed or self._io_calls:
            for key, _events in self._selector.select():
                try:
                    if key.data is None:
                        self._run_io_calls()
                    else:
                        self._accept_ready(key.fileobj, key.data)
                except Exception:  # noqa: BLE001 - the hub is deaf without this thread
                    logger.exception("TcpTransport I/O thread: event on %r failed", key.data)
        self._selector.unregister(self._wake_recv)  # close() owns the wake pair
        for key in list(self._selector.get_map().values()):
            self._drop(key.fileobj)
        self._selector.close()

    def _run_io_calls(self) -> None:
        try:
            self._wake_recv.recv(4096)
        except BlockingIOError:
            pass
        while self._io_calls:
            function, args = self._io_calls.popleft()
            function(*args)

    def _drop(self, listener: socket.socket) -> None:
        """Stop watching ``listener`` and close it."""
        try:
            self._selector.unregister(listener)
        except (KeyError, ValueError):
            return  # never watched, or dropped already
        listener.close()

    def _accept_ready(self, listener: socket.socket, name: str) -> None:
        try:
            sock, address = listener.accept()
        except OSError:
            return  # the connecting peer gave up first
        connection = _Connection(sock, f"{address[0]}:{address[1]} (calling {name!r})")
        if self._adopt(connection) and not self._start_thread(
            "fargo-tcp-conn", self._serve, connection
        ):
            self._discard(connection)  # closing: the connecting peer sees the end of the stream

    # -- connections and the threads that own them ----------------------------

    def _adopt(self, connection: _Connection) -> bool:
        """Count ``connection`` among those :meth:`close` shuts down; closes it once closed."""
        with self._lock:
            if not self._closed:
                self._live.add(connection)
                return True
        connection.sock.close()
        return False

    def _discard(self, connection: _Connection) -> None:
        """Close a connection its owner is done with; it is never used again."""
        with self._lock:
            self._live.discard(connection)
        connection.sock.close()

    def _start_thread(self, name: str, target, *args) -> bool:
        """Start a daemon thread that :meth:`close` joins; False once closed."""
        thread = threading.Thread(target=target, args=args, name=name, daemon=True)
        with self._lock:
            if self._closed:
                return False
            self._threads.add(thread)
            thread.start()  # under the lock: close() joins only started threads
        return True

    def _serve(self, connection: _Connection) -> None:
        """Serving thread of one accepted connection: read a frame, run it, reply."""
        try:
            while True:
                for frame in connection.receive():
                    if frame.type == framing.REQUEST:
                        self._dispatch_frame(frame, connection)
                    elif frame.type == framing.ONEWAY:
                        self._submit_oneway(frame, connection)
                    else:
                        raise framing.FramingError(f"frame of type {frame.type} at a listener")
        except framing.FramingError:
            logger.warning("undecodable stream from %s", connection.peer, exc_info=True)
        except OSError:
            pass  # the peer hung up, or close() shut the socket down
        finally:
            self._discard(connection)
            with self._lock:
                self._threads.discard(threading.current_thread())

    def _submit_oneway(self, frame: framing.Frame, connection: _Connection) -> None:
        """Queue a ONEWAY frame; start a dispatch thread if none is free for it."""
        with self._lock:
            self._oneway_load += 1
            spawn = self._dispatchers < min(self._oneway_load, self._max_dispatch_threads)
            if spawn:
                self._dispatchers += 1
        self._oneway.put((frame, connection))
        if spawn:
            self._start_thread("fargo-tcp-dispatch", self._dispatch_loop)

    def _dispatch_loop(self) -> None:
        while (item := self._oneway.get()) is not None:
            self._dispatch_frame(*item)
            with self._lock:
                self._oneway_load -= 1

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
            self._io_call(self._selector.register, listener, selectors.EVENT_READ, name)
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
        # A re-announced peer may have restarted: drop its idle connections.
        with self._lock:
            stale = self._idle.pop(name, ())
        for connection in stale:
            self._discard(connection)

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

    def _refusal(self, src: str, dst: str, kind: str = "") -> CoreError | None:
        """The typed error delivery from src to dst would hit, if any.

        Covers what this hub can know locally: administrative down marks,
        cut links, and partitions.  A remote crash this hub was never
        told about surfaces later, as a connection failure.  A ``CHAOS``
        message crosses cut links and partitions: it may be the one that
        heals them.
        """
        for name in (src, dst):
            if name not in self._peers:
                return CoreUnreachableError(f"node {name!r} is not on the network")
            if name in self._down:
                return CoreDownError(f"node {name!r} is down")
        if src == dst or kind == MessageKind.CHAOS:
            return None
        if (src, dst) in self._blocked:
            return CoreUnreachableError(f"link {src!r} -> {dst!r} is down")
        if self._partition_of:
            if self._partition_of.get(src) != self._partition_of.get(dst):
                return CoreUnreachableError(
                    f"nodes {src!r} and {dst!r} are in different partitions"
                )
        return None

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

    def _charge(self, *messages: tuple) -> None:
        """Account each ``(src, dst, kind, nbytes, seconds)`` under one hold of the lock."""
        with self._stats_lock:
            for src, dst, kind, nbytes, seconds in messages:
                self.stats.record(kind, nbytes, seconds)
                if src != dst:
                    self.link_stats(src, dst).record(nbytes, seconds)

    # -- delivery: sending side ----------------------------------------------

    def send(self, envelope: Envelope, timeout: float | None = None) -> bytes:
        """Request/reply over one connection; blocks the calling thread."""
        request_id, data = self._admit(envelope)
        limit = self._request_timeout if timeout in (None, float("inf")) else timeout
        started = time.monotonic()
        dst = envelope.dst
        try:
            frame = self._carry(dst, data, started + limit, request_id)
        except TimeoutError:
            raise DeadlineExceededError(
                f"{envelope.kind.value!r} call from {envelope.src!r} to "
                f"{dst!r} exceeded its {limit:.3f}s transport deadline"
            ) from None
        except OSError as exc:
            raise CoreUnreachableError(
                f"connection to node {dst!r} failed mid-request: {exc!r}"
            ) from exc
        request = (envelope.src, dst, envelope.kind, len(envelope.payload),
                   time.monotonic() - started)
        if frame.type == framing.ERROR:
            self._charge(request)
            raise self._remote_refusal(dst, frame)
        self._charge(request, (dst, envelope.src, envelope.kind, len(frame.payload), 0.0))
        # A bulk reply arrives as a view; callers of send() are promised bytes.
        return bytes(frame.payload)

    def post(self, envelope: Envelope) -> None:
        """Fire-and-forget: blocks only until the frame is on the wire."""
        _request_id, data = self._admit(envelope, oneway=True)
        started = time.monotonic()
        try:
            self._carry(envelope.dst, data, started + self._request_timeout)
        except OSError as exc:  # a TimeoutError too: nothing was delivered
            raise CoreUnreachableError(
                f"connection to node {envelope.dst!r} failed while posting: {exc!r}"
            ) from exc
        self._charge((envelope.src, envelope.dst, envelope.kind, len(envelope.payload),
                      time.monotonic() - started))

    def _admit(self, envelope: Envelope, oneway: bool = False) -> tuple[int, bytes | list[bytes]]:
        """Refuse, typed, what cannot be delivered; else delay, trace and frame the envelope."""
        error = self._refusal(envelope.src, envelope.dst, envelope.kind)
        if error is not None:
            raise error
        delay = self._latency.get((envelope.src, envelope.dst), 0.0)
        if delay > 0.0:
            time.sleep(delay)
        envelope.msg_id = next(self._msg_ids)
        self.trace.append(envelope)
        request_id = next(self._request_ids)
        return request_id, framing.encode_request(envelope, request_id, oneway=oneway)

    def _carry(self, dst: str, data, deadline: float, request_id: int | None = None):
        """One call on a connection of its own: write, and read the reply to ``request_id``."""
        connection = self._checkout(dst, deadline)
        try:
            connection.write(data, deadline)
            frame = None if request_id is None else connection.read_reply(request_id, deadline)
        except BaseException:
            self._discard(connection)  # its stream is of no use to the next call
            raise
        self._checkin(connection)
        return frame

    @staticmethod
    def _remote_refusal(dst: str, frame: framing.Frame) -> BaseException:
        error = framing.decode_error(frame.payload)
        if isinstance(error, (CoreError, TransportError)):
            return error
        return TransportError(f"transport-level failure at {dst!r}: {error!r}")

    def _checkout(self, dst: str, deadline: float, attempts: int | None = None) -> _Connection:
        """A connection to ``dst`` for this thread alone, until :meth:`_checkin`.

        The idle one returned last, if its peer has not hung up on it; else a new
        one.  Raises :class:`TimeoutError` when ``deadline`` passes first and
        :class:`~repro.errors.CoreUnreachableError` when ``attempts`` connects
        (default: the reconnect policy's) all failed.
        """
        while True:
            with self._lock:
                pool = self._idle.get(dst)
                connection = pool.pop() if pool else None
            if connection is None:
                break
            if not connection.poller.poll(0):  # open, and nothing to read: fit for a call
                return connection
            self._discard(connection)  # the peer restarted, or sent what nobody asked for
        attempts = attempts or self._reconnect.max_attempts
        attempt = 1
        while True:
            if self._closed:
                raise TransportError("transport is closed")
            address = self._peers.get(dst)
            if address is None:
                raise CoreUnreachableError(f"node {dst!r} is not on the network")
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                raise TimeoutError("not connected by the deadline")
            try:
                timeout = min(self._connect_timeout, remaining)
                sock = socket.create_connection(address, timeout=timeout)
            except OSError as exc:
                if attempt >= attempts:
                    raise CoreUnreachableError(
                        f"cannot connect to node {dst!r} at "
                        f"{address[0]}:{address[1]} after {attempt} attempts: {exc!r}"
                    ) from exc
            else:
                connection = _Connection(sock, dst, address)
                if not self._adopt(connection):
                    raise TransportError("transport is closed")
                return connection
            backoff = self._reconnect.backoff(attempt)
            time.sleep(max(0.0, min(backoff, deadline - time.monotonic())))
            attempt += 1

    def _checkin(self, connection: _Connection) -> None:
        """Return a connection whose call completed; the next caller takes it first."""
        with self._lock:
            pool = self._idle.setdefault(connection.peer, [])
            # Not once closed, beyond the cap, or when the peer was re-announced elsewhere.
            keep = (not self._closed and len(pool) < _IDLE_CAP
                    and self._peers.get(connection.peer) == connection.address)
            if keep:
                pool.append(connection)
        if not keep:
            self._discard(connection)

    def probe(self, dst: str, timeout: float | None = None) -> bool:
        """Reuse an idle connection to ``dst``, or try once to establish one.

        Readiness and liveness check: True once the peer's listener
        accepts.  One connect attempt, no back-off — callers bring their
        own cadence.  Never raises on ordinary connection failure.
        """
        deadline = time.monotonic() + (timeout or self._connect_timeout)
        try:
            self._checkin(self._checkout(dst, deadline, attempts=1))
        except (CoreError, TransportError, OSError):
            return False
        return True

    # -- delivery: receiving side --------------------------------------------

    def _dispatch_frame(self, frame: framing.Frame, connection: _Connection) -> None:
        """Run one incoming frame through its node handler and write the reply: on the
        connection's serving thread for a REQUEST, on a dispatch thread for a ONEWAY."""
        oneway = frame.type == framing.ONEWAY
        error = self._refusal(frame.src, frame.dst, frame.kind)
        handler = self._handlers.get(frame.dst)
        if error is None and handler is None:
            error = CoreUnreachableError(f"node {frame.dst!r} is not served by this transport")
        try:
            if error is not None:
                raise error
            envelope = frame.to_envelope()
            envelope.msg_id = next(self._msg_ids)
            self.trace.append(envelope)
            reply = handler(envelope)
            if oneway:
                return
            if not isinstance(reply, (bytes, memoryview)):  # a view: part of a bulk request
                raise TransportError(
                    f"handler at {frame.dst!r} returned {type(reply).__name__}, expected bytes"
                )
            data = framing.encode_reply(frame.request_id, reply)  # too large: FramingError, typed
        except BaseException as exc:  # noqa: BLE001 - crossing by value
            # Node handlers (RpcEndpoint._dispatch) serialize their own
            # failures; anything escaping is a transport-level fault.
            if oneway:
                if error is None:
                    logger.warning("one-way %s handler at %r failed", frame.kind, frame.dst,
                                   exc_info=True)
                return
            data = framing.encode_error(frame.request_id, exc)
        try:
            # No caller's deadline is known here; the hub's backstop keeps a
            # peer that stopped reading from pinning the thread.
            connection.write(data, time.monotonic() + self._request_timeout)
        except OSError:
            connection.abort()  # the serving thread's next read ends, and it closes
            logger.debug("reply to %s could not be written", connection.peer, exc_info=True)

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
        """Close every socket, wake whoever is blocked on one, join the hub's threads.

        In a :attr:`forked` copy only the copy's descriptors are closed: the
        threads are not there, and shutting a socket down would end the
        owner's connection too.
        """
        if self.forked:
            self._closed = True
            for connection in self._live:
                connection.sock.close()
            self._selector.close()
            self._release_descriptors()
            return
        with self._io_calls_lock:
            if self._closed:
                return
            self._closed = True  # no _io_call is accepted from here on
            self._wake()
        # Never far from its selector, the I/O thread drops every listener on the way out.
        self._io_thread.join(timeout=self._connect_timeout)
        with self._lock:  # nothing is adopted, started or pooled once _closed is seen here
            idle = [connection for pool in self._idle.values() for connection in pool]
            self._idle.clear()
            live = [*self._live]
            # A thread inside a handler leaves when that returns; close() called from one
            # cannot join itself.
            threads = [t for t in self._threads if t is not threading.current_thread()]
        for connection in live:
            connection.abort()  # its owner wakes with the end of the stream and closes it
        for connection in idle:
            self._discard(connection)  # these have no owner
        for _ in range(self._dispatchers):
            self._oneway.put(None)
        deadline = time.monotonic() + self._connect_timeout
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        if self._io_thread.is_alive() or any(thread.is_alive() for thread in threads):
            logger.warning("TcpTransport threads still running after close()")
        self._release_descriptors()

    def _release_descriptors(self) -> None:
        """Close the listeners (the I/O thread's way out closed them already) and the
        wake pair, and forget the local nodes: the end of either way to close."""
        for sock in (*self._listeners.values(), self._wake_send, self._wake_recv):
            sock.close()
        self._listeners.clear()
        self._handlers.clear()

    @property
    def forked(self) -> bool:
        """True in a forked copy of the process that built the hub."""
        return self._owner != os.getpid()

    def __repr__(self) -> str:
        local = sorted(self._listeners)
        return f"<TcpTransport host={self._host} local={local} peers={len(self._peers)}>"
