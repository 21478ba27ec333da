"""Real TCP transport: Cores as separate OS processes.

One :class:`TcpTransport` is a *hub* for the Cores of one process: the
one Core of a child, or every Core of a ``Cluster(transport="tcp")``,
whose traffic still crosses real sockets.  Each registered node gets its
own listener socket; remote peers are named in an address book
(:meth:`add_peer`).  The wire format is the length-prefixed framing of
:mod:`repro.net.framing`, with the RPC payload bytes (struct-framed
INVOKE, 1-byte status-prefix replies) passed through untouched, so
application-level encoding is byte-identical with the simulated backend.

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
  outstanding than there are threads, up to :data:`_MAX_DISPATCH_THREADS`.
- **Who accepts and who closes.**  Each registered node's listener has one
  accept thread (``fargo-tcp-accept``) that blocks in ``accept()`` and
  starts a serving thread per connection; it reads no connection and runs
  no handler.  A socket is closed by its owner: a caller its failed
  connection, a serving thread its own when the peer hangs up, the hub the
  idle ones, and :meth:`~TcpTransport.deregister` a listener once its
  accept thread has left.  Shutting a socket down wakes the thread blocked
  on it, so :meth:`TcpTransport.close` shuts every socket down, listeners
  included, and joins the hub's threads.

Failure semantics mirror the simulated network's types: a refused or
lost connection raises :class:`~repro.errors.CoreUnreachableError`, a
node administratively marked down answers (or refuses) with
:class:`~repro.errors.CoreDownError`, and an expired round-trip budget
— connect, write and wait together — raises
:class:`~repro.errors.DeadlineExceededError`.  Outgoing connections
reconnect per peer under a :class:`~repro.net.retry.RetryPolicy`.
The failure model (node crash/revive, link cuts, partitions) is the
:class:`~repro.net.transport.Transport` base class's, refused at both the
sending and the receiving hub; ``set_link`` injects latency as a real
sleep, and bandwidth shaping is simnet-only and raises
:class:`~repro.errors.TransportCapabilityError`.
"""

from __future__ import annotations

import itertools
import logging
import mmap
import os
import queue
import select
import socket
import threading
import time

from repro.errors import (
    ConfigurationError,
    CoreError,
    CoreUnreachableError,
    DeadlineExceededError,
    DuplicateCoreError,
    TransportCapabilityError,
    TransportError,
)
from repro.net import framing
from repro.net.messages import Envelope
from repro.net.retry import RetryPolicy
from repro.net.transport import NodeHandler, Transport

TYPE_CHECKING = False
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

#: Most threads that run ONEWAY handlers at once, per hub.
_MAX_DISPATCH_THREADS = 32

#: Most buffers one ``sendmsg`` takes; a longer list is EMSGSIZE.
_IOV_MAX = os.sysconf("SC_IOV_MAX")


def _shut_down(sock: socket.socket) -> None:
    """Wake the thread blocked on ``sock`` from any thread; its owner closes it."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # closed already, or never connected


def listen(host: str, port: int = 0) -> socket.socket:
    """A socket listening on ``(host, port)``; port 0 takes an ephemeral one."""
    family = socket.AF_INET6 if ":" in host else socket.AF_INET
    return socket.create_server((host, port), family=family, backlog=_LISTEN_BACKLOG)


class _Connection:
    """One established socket, outgoing or accepted, owned by one thread at a time.

    Only the owner — the caller that checked it out, or an accepted one's
    serving thread — writes, reads and closes it; any thread may shut its
    socket down to wake the owner.  Reads block; writes pass
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
        # An anonymous mapping, not a zero-filled bytearray: a page becomes
        # resident when a frame first lands in it, which most never do.
        self.buffer = memoryview(mmap.mmap(-1, _READ_CHUNK))
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


class TcpTransport(Transport):
    """TCP hub implementing the :class:`Transport` protocol."""

    def __init__(
        self,
        scheduler: "Scheduler | None" = None,
        *,
        host: str = "127.0.0.1",
        listeners: dict[str, socket.socket] | None = None,
        reconnect: RetryPolicy = DEFAULT_RECONNECT,
        request_timeout: float = 30.0,
        connect_timeout: float = 10.0,
        trace_capacity: int = 256,
    ) -> None:
        if scheduler is None:
            from repro.sim.clock import RealClock
            from repro.sim.scheduler import Scheduler

            scheduler = Scheduler(RealClock())
        if request_timeout <= 0.0 or connect_timeout <= 0.0:
            raise ConfigurationError("timeouts must be positive")
        self._peers: dict[str, Address] = {}
        super().__init__(scheduler, self._peers, trace_capacity)
        self._host = host
        #: Listening sockets handed in for nodes not registered yet.
        self._handed = dict(listeners or {})
        self._reconnect = reconnect
        self._request_timeout = request_timeout
        self._connect_timeout = connect_timeout
        self._handlers: dict[str, NodeHandler] = {}
        #: Each local node's listener and the thread that accepts on it.
        self._listeners: dict[str, tuple[socket.socket, threading.Thread | None]] = {}
        self._latency: dict[tuple[str, str], float] = {}
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

    def _start_thread(self, name: str, target, *args) -> threading.Thread | None:
        """Start a daemon thread that :meth:`close` joins; None once closed."""
        thread = threading.Thread(target=target, args=args, name=name, daemon=True)
        with self._lock:
            if self._closed:
                return None
            self._threads.add(thread)
            thread.start()  # under the lock: close() joins only started threads
        return thread

    def _accept(self, listener: socket.socket, name: str) -> None:
        """Accept thread of one listener: give each connection a serving thread."""
        try:
            while True:
                try:
                    sock, (host, port, *_) = listener.accept()
                    connection = _Connection(sock, f"{host}:{port} (calling {name!r})")
                except OSError:
                    if self._closed or self._listeners.get(name, (None,))[0] is not listener:
                        return  # deregister() or close() shut the listener down
                    continue  # the connecting peer gave up first
                if self._adopt(connection) and not self._start_thread(
                    "fargo-tcp-conn", self._serve, connection
                ):
                    self._discard(connection)  # closing: the peer sees the end of the stream
        finally:
            with self._lock:
                self._threads.discard(threading.current_thread())

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
            spawn = self._dispatchers < min(self._oneway_load, _MAX_DISPATCH_THREADS)
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
        """Attach a local node: it accepts on its listener from now on.

        The listener is the one handed in ``listeners`` at construction (a
        child's, bound by the process that forked it), else a new one on an
        ephemeral port.
        """
        if name in self._handlers:
            raise DuplicateCoreError(f"node {name!r} is already registered")
        listener = self._handed.pop(name, None) or listen(self._host)
        self._listeners[name] = (listener, None)  # listed first: a close() from now shuts it
        thread = self._start_thread("fargo-tcp-accept", self._accept, listener, name)
        if thread is None:
            self._listeners.pop(name, None)
            listener.close()
            raise TransportError("transport is closed")
        self._listeners[name] = (listener, thread)
        self._handlers[name] = handler
        self._peers[name] = listener.getsockname()[:2]
        self._down.discard(name)

    def deregister(self, name: str) -> None:
        """Detach a local node: close its listener, refuse its traffic.

        The accept thread is joined before the socket is closed, so the port
        is free on return and no thread accepts on a reused descriptor.
        """
        listener, thread = self._listeners.pop(name, (None, None))
        if listener is not None:
            _shut_down(listener)  # wakes the accept thread
            if thread is not None:
                thread.join(timeout=self._connect_timeout)
            listener.close()
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

    # -- link speed and accounting ---------------------------------------------

    def _shape_link(
        self, key: tuple[str, str], bandwidth: float | None, latency: float | None
    ) -> None:
        if bandwidth is not None:
            raise TransportCapabilityError(
                "TcpTransport does not model bandwidth: real wire time is measured"
            )
        if latency is not None:
            self._latency[key] = latency

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

    def _checkout(self, dst: str, deadline: float) -> _Connection:
        """A connection to ``dst`` for this thread alone, until :meth:`_checkin`.

        The idle one returned last, if its peer has not hung up on it; else a new
        one.  Raises :class:`TimeoutError` when ``deadline`` passes first and
        :class:`~repro.errors.CoreUnreachableError` when the reconnect policy's
        connects all failed.
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
                # An ASCII host goes as bytes: getaddrinfo then needs no idna
                # codec, which a child Core would import on its first connect.
                host = address[0].encode() if address[0].isascii() else address[0]
                sock = socket.create_connection((host, address[1]), timeout=timeout)
            except OSError as exc:
                if attempt >= self._reconnect.max_attempts:
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
            _shut_down(connection.sock)  # the serving thread's next read ends, and it closes
            logger.debug("reply to %s could not be written", connection.peer, exc_info=True)

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
            self._release_descriptors()
            return
        with self._lock:  # nothing is adopted, started or pooled once _closed is seen here
            if self._closed:
                return
            self._closed = True
            listeners = [listener for listener, _thread in self._listeners.values()]
            idle = [connection for pool in self._idle.values() for connection in pool]
            self._idle.clear()
            live = [*self._live]
            # A thread inside a handler leaves when that returns; close() called from one
            # cannot join itself.
            threads = [t for t in self._threads if t is not threading.current_thread()]
        for sock in (*listeners, *(connection.sock for connection in live)):
            _shut_down(sock)  # its accept or serving thread wakes, and a caller's read ends
        for connection in idle:
            self._discard(connection)  # these have no owner
        for _ in range(self._dispatchers):
            self._oneway.put(None)
        deadline = time.monotonic() + self._connect_timeout
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        if any(thread.is_alive() for thread in threads):
            logger.warning("TcpTransport threads still running after close()")
        self._release_descriptors()

    def _release_descriptors(self) -> None:
        """Close the listeners and forget the local nodes: the end of either way to close."""
        for listener, _thread in self._listeners.values():
            listener.close()
        for listener in self._handed.values():
            listener.close()
        self._listeners.clear()
        self._handed.clear()
        self._handlers.clear()

    @property
    def forked(self) -> bool:
        """True in a forked copy of the process that built the hub."""
        return self._owner != os.getpid()

    def __repr__(self) -> str:
        local = sorted(self._listeners)
        return f"<TcpTransport host={self._host} local={local} peers={len(self._peers)}>"
