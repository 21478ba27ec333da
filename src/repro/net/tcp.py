"""Real asyncio/TCP transport: Cores as separate OS processes.

One :class:`TcpTransport` is a *hub* for the Cores of one process —
usually exactly one.  Each registered node gets its own listener socket;
remote peers are named in an address book (:meth:`add_peer`).  The wire
format is the length-prefixed framing of :mod:`repro.net.framing`, with
the RPC payload bytes (struct-framed INVOKE, 1-byte status-prefix
replies) passed through untouched, so application-level encoding is
byte-identical with the simulated backend.

Threading model: a private asyncio event loop runs on a daemon thread
and only moves bytes; incoming frames are handed to a dispatcher thread
pool, where node handlers (and any nested synchronous calls they make
back across the network) execute.  The synchronous
:meth:`TcpTransport.send` blocks its calling thread on the reply, which
is exactly the RMI-style semantics the RPC layer expects.

Failure semantics mirror the simulated network's types: a refused or
lost connection raises :class:`~repro.errors.CoreUnreachableError`, a
node administratively marked down answers (or refuses) with
:class:`~repro.errors.CoreDownError`, and an expired round-trip budget
raises :class:`~repro.errors.DeadlineExceededError`.  Outgoing
connections reconnect per peer under a
:class:`~repro.net.retry.RetryPolicy`.  Chaos hooks support node
crash/revive, link cuts, injected latency, and partitions; bandwidth
shaping is simnet-only and raises
:class:`~repro.errors.TransportCapabilityError`.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import threading
import time
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
#: established; real-time sleeps on the event loop.
DEFAULT_RECONNECT = RetryPolicy(max_attempts=4, base_delay=0.05, multiplier=2.0, max_delay=0.5)

_READ_CHUNK = 1 << 16


class _Connection:
    """One established outgoing connection, multiplexing requests.

    Lives entirely on the event loop thread: replies are matched to
    pending futures by request id, so many blocked senders share one
    socket per peer.
    """

    def __init__(
        self,
        peer: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        self.peer = peer
        self.reader = reader
        self.writer = writer
        self.loop = loop
        self.closed = False
        self.pending: dict[int, asyncio.Future] = {}
        self.reader_task = loop.create_task(self._read_loop())

    async def request(self, request_id: int, data: bytes) -> framing.Frame:
        future: asyncio.Future = self.loop.create_future()
        self.pending[request_id] = future
        try:
            self.writer.write(data)
            await self.writer.drain()
            return await future
        finally:
            self.pending.pop(request_id, None)

    async def post(self, data: bytes) -> None:
        self.writer.write(data)
        await self.writer.drain()

    async def _read_loop(self) -> None:
        decoder = framing.FrameDecoder()
        error: BaseException = ConnectionResetError(f"connection to {self.peer!r} lost")
        try:
            while True:
                chunk = await self.reader.read(_READ_CHUNK)
                if not chunk:
                    break
                for frame in decoder.feed(chunk):
                    future = self.pending.get(frame.request_id)
                    if future is not None and not future.done():
                        future.set_result(frame)
        except Exception as exc:  # noqa: BLE001 - socket teardown races
            error = exc
        finally:
            self.closed = True
            for future in list(self.pending.values()):
                if not future.done():
                    future.set_exception(error)
            self.writer.close()

    def close(self) -> None:
        self.closed = True
        self.reader_task.cancel()
        self.writer.close()


class TcpTransport(Transport):
    """Asyncio TCP hub implementing the :class:`Transport` protocol."""

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
        self._servers: dict[str, asyncio.AbstractServer] = {}
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
        self._closed = False
        self._executor = ThreadPoolExecutor(
            max_workers=max_dispatch_threads, thread_name_prefix="fargo-tcp-dispatch"
        )
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever, name="fargo-tcp-loop", daemon=True
        )
        self._loop_thread.start()

    # -- event loop plumbing -------------------------------------------------

    def _run(self, coro, timeout: float | None):
        """Run ``coro`` on the loop thread; block for its result."""
        if self._closed:
            coro.close()  # never scheduled: close it so it is not "never awaited"
            raise TransportError("transport is closed")
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout)

    # -- attachment ----------------------------------------------------------

    def register(self, name: str, handler: NodeHandler) -> None:
        """Attach a local node: starts its listener socket immediately.

        The port comes from the ``ports`` map given at construction
        (fixed ports for multi-process deployments) or is ephemeral.
        """
        if name in self._handlers:
            raise DuplicateCoreError(f"node {name!r} is already registered")
        port = self._ports.get(name, 0)
        server = self._run(
            self._start_server(port), timeout=self._connect_timeout
        )
        bound = server.sockets[0].getsockname()
        self._servers[name] = server
        self._handlers[name] = handler
        self._peers[name] = (self._host, bound[1])
        self._down.discard(name)

    async def _start_server(self, port: int) -> asyncio.AbstractServer:
        return await asyncio.start_server(self._serve_connection, self._host, port)

    def deregister(self, name: str) -> None:
        """Detach a local node: close its listener, refuse its traffic."""
        server = self._servers.pop(name, None)
        if server is not None:
            self._loop.call_soon_threadsafe(server.close)
        self._handlers.pop(name, None)
        self._down.add(name)

    def add_peer(self, name: str, address: Address) -> None:
        """Record (or update) the address of a remote node."""
        self._peers[name] = (address[0], int(address[1]))
        # A re-announced peer may have restarted: drop any stale connection.
        self._loop.call_soon_threadsafe(self._invalidate, name)

    def local_address(self, name: str) -> Address:
        """The (host, port) a registered local node is listening on."""
        if name not in self._servers:
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
        try:
            frame = self._run(
                self._request(envelope.dst, request_id, data, limit), timeout=None
            )
        except asyncio.TimeoutError:
            raise DeadlineExceededError(
                f"{envelope.kind.value!r} call from {envelope.src!r} to "
                f"{envelope.dst!r} exceeded its {limit:.3f}s transport deadline"
            ) from None
        elapsed = time.monotonic() - started
        self._charge(envelope.src, envelope.dst, envelope.kind, len(envelope.payload), elapsed)
        if frame.type == framing.ERROR:
            raise self._remote_refusal(envelope.dst, frame)
        self._charge(envelope.dst, envelope.src, envelope.kind, len(frame.payload), 0.0)
        return frame.payload

    def post(self, envelope: Envelope) -> None:
        """Fire-and-forget: blocks only until the frame is on the wire."""
        self._check(envelope.src, envelope.dst)
        self._sleep_injected_latency(envelope.src, envelope.dst)
        envelope.msg_id = next(self._msg_ids)
        self.trace.append(envelope)
        request_id = next(self._request_ids)
        data = framing.encode_request(envelope, request_id, oneway=True)
        started = time.monotonic()
        self._run(self._post(envelope.dst, data), timeout=None)
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

    async def _request(
        self, dst: str, request_id: int, data: bytes, limit: float
    ) -> framing.Frame:
        return await asyncio.wait_for(
            self._request_once(dst, request_id, data), timeout=limit
        )

    async def _request_once(self, dst: str, request_id: int, data: bytes) -> framing.Frame:
        connection = await self._acquire(dst)
        try:
            return await connection.request(request_id, data)
        except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
            self._invalidate(dst)
            raise CoreUnreachableError(
                f"connection to node {dst!r} failed mid-request: {exc!r}"
            ) from exc

    async def _post(self, dst: str, data: bytes) -> None:
        connection = await self._acquire(dst)
        try:
            await connection.post(data)
        except (ConnectionError, OSError) as exc:
            self._invalidate(dst)
            raise CoreUnreachableError(
                f"connection to node {dst!r} failed while posting: {exc!r}"
            ) from exc

    async def _acquire(self, dst: str) -> _Connection:
        """Cached connection to ``dst``, reconnecting under the RetryPolicy."""
        connection = self._connections.get(dst)
        if connection is not None and not connection.closed:
            return connection
        address = self._peers.get(dst)
        if address is None:
            raise CoreUnreachableError(f"node {dst!r} is not on the network")
        policy = self._reconnect
        attempt = 1
        while True:
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(address[0], address[1]),
                    timeout=self._connect_timeout,
                )
                connection = _Connection(dst, reader, writer, self._loop)
                self._connections[dst] = connection
                return connection
            except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                if attempt >= policy.max_attempts:
                    raise CoreUnreachableError(
                        f"cannot connect to node {dst!r} at "
                        f"{address[0]}:{address[1]} after {attempt} attempts: {exc!r}"
                    ) from exc
                await asyncio.sleep(policy.backoff(attempt))
                attempt += 1

    def _invalidate(self, dst: str) -> None:
        connection = self._connections.pop(dst, None)
        if connection is not None:
            connection.close()

    def probe(self, dst: str, timeout: float | None = None) -> bool:
        """Try to establish (or reuse) a connection to ``dst``.

        Readiness check for process bring-up: True once the peer's
        listener accepts.  Never raises on ordinary connection failure.
        """
        try:
            self._run(self._acquire(dst), timeout=timeout or self._connect_timeout)
        except (CoreError, TransportError, TimeoutError, OSError):
            return False
        return True

    # -- delivery: receiving side --------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = framing.FrameDecoder()
        try:
            while True:
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    break
                try:
                    frames = decoder.feed(chunk)
                except framing.FramingError:
                    logger.warning("undecodable stream from peer; dropping connection",
                                   exc_info=True)
                    break
                for frame in frames:
                    self._executor.submit(self._dispatch_frame, frame, writer)
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
            except Exception:  # noqa: BLE001 - teardown race
                pass

    def _dispatch_frame(self, frame: framing.Frame, writer: asyncio.StreamWriter) -> None:
        """Run one incoming frame through its node handler (executor thread)."""
        oneway = frame.type == framing.ONEWAY

        def respond(data: bytes) -> None:
            if not oneway:
                self._loop.call_soon_threadsafe(self._write_reply, writer, data)

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
        if not isinstance(reply, bytes):
            respond(framing.encode_error(
                frame.request_id,
                TransportError(
                    f"handler at {frame.dst!r} returned "
                    f"{type(reply).__name__}, expected bytes"
                ),
            ))
            return
        respond(framing.encode_reply(frame.request_id, reply))

    def _write_reply(self, writer: asyncio.StreamWriter, data: bytes) -> None:
        if not writer.is_closing():
            writer.write(data)

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
        """Stop listeners, drop connections, and join the loop thread."""
        if self._closed:
            return
        self._closed = True
        try:
            future = asyncio.run_coroutine_threadsafe(self._shutdown(), self._loop)
            future.result(self._connect_timeout)
        except Exception:  # noqa: BLE001 - best-effort teardown
            logger.warning("TcpTransport shutdown was not clean", exc_info=True)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._loop_thread.join(timeout=self._connect_timeout)
        if not self._loop.is_running():
            self._loop.close()
        self._executor.shutdown(wait=False, cancel_futures=True)
        self._handlers.clear()

    async def _shutdown(self) -> None:
        for server in self._servers.values():
            server.close()
        for connection in list(self._connections.values()):
            connection.close()
        self._connections.clear()
        self._servers.clear()
        current = asyncio.current_task()
        for task in asyncio.all_tasks(self._loop):
            if task is not current:
                task.cancel()

    def __repr__(self) -> str:
        local = sorted(self._servers)
        return f"<TcpTransport host={self._host} local={local} peers={len(self._peers)}>"
