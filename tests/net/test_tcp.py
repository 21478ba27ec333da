"""TcpTransport: real sockets on loopback, within one process."""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
import zlib

import pytest

from repro.errors import (
    CoreDownError,
    CoreUnreachableError,
    DeadlineExceededError,
    DuplicateCoreError,
    TransportCapabilityError,
    TransportError,
)
from repro.net import Envelope, MessageKind, TcpTransport, framing
from repro.net.retry import RetryPolicy
from repro.net.serializer import BULK_BYTES, PLAIN, Segments

pytestmark = pytest.mark.tcp


def envelope(src: str, dst: str, payload: bytes = b"x") -> Envelope:
    return Envelope(src=src, dst=dst, kind=MessageKind.HEARTBEAT, payload=payload)


@pytest.fixture
def pair():
    """Two hubs, one node each, wired to each other."""
    hub_a = TcpTransport(request_timeout=10.0, connect_timeout=5.0)
    hub_b = TcpTransport(request_timeout=10.0, connect_timeout=5.0)
    hub_a.register("a", lambda env: b"a-got:" + env.payload)
    hub_b.register("b", lambda env: b"b-got:" + env.payload)
    hub_a.add_peer("b", hub_b.local_address("b"))
    hub_b.add_peer("a", hub_a.local_address("a"))
    yield hub_a, hub_b
    hub_a.close()
    hub_b.close()


@pytest.fixture
def refusing_address():
    """A loopback port that is reserved but not listening: connects are refused."""
    with socket.socket() as unbound:
        unbound.bind(("127.0.0.1", 0))
        yield unbound.getsockname()


class TestRequestReply:
    def test_round_trip(self, pair):
        hub_a, hub_b = pair
        assert hub_b.send(envelope("b", "a", b"ping")) == b"a-got:ping"
        assert hub_a.send(envelope("a", "b", b"pong")) == b"b-got:pong"

    def test_concurrent_senders_multiplex_one_connection(self, pair):
        _hub_a, hub_b = pair
        results: list[bytes] = []
        errors: list[BaseException] = []

        def call(i: int) -> None:
            try:
                results.append(hub_b.send(envelope("b", "a", b"%d" % i)))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=call, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=15)
        assert not errors
        assert sorted(results) == sorted(b"a-got:%d" % i for i in range(8))

    def test_nested_synchronous_callback(self, pair):
        """A handler that itself calls back over the network (A->B->A)."""
        hub_a, hub_b = pair
        hub_a.deregister("a")
        hub_a.register(
            "a", lambda env: b"a+" + hub_a.send(envelope("a", "b", b"nested"))
        )
        hub_b.add_peer("a", hub_a.local_address("a"))  # listener moved ports
        assert hub_b.send(envelope("b", "a")) == b"a+b-got:nested"

    def test_oneway_post(self, pair):
        hub_a, hub_b = pair
        seen = threading.Event()
        hub_a.deregister("a")

        def handler(env):
            seen.set()
            return b""

        hub_a.register("a", handler)
        hub_b.add_peer("a", hub_a.local_address("a"))  # listener moved ports
        hub_b.post(envelope("b", "a", b"fire-and-forget"))
        assert seen.wait(timeout=10)

    def test_sender_side_stats(self, pair):
        _hub_a, hub_b = pair
        before = hub_b.stats.messages
        hub_b.send(envelope("b", "a", b"12345"))
        assert hub_b.stats.messages == before + 2  # request + reply
        assert hub_b.link_stats("b", "a").bytes >= 5

    def test_trace_records_envelopes(self, pair):
        _hub_a, hub_b = pair
        hub_b.send(envelope("b", "a"))
        assert any("b -> a" in line for line in hub_b.trace)


class TestErrors:
    def test_handler_exception_travels_back_typed(self, pair):
        hub_a, hub_b = pair
        hub_a.deregister("a")

        def failing(env):
            raise CoreDownError("synthetic failure inside handler")

        hub_a.register("a", failing)
        hub_b.add_peer("a", hub_a.local_address("a"))  # listener moved ports
        with pytest.raises(CoreDownError, match="synthetic"):
            hub_b.send(envelope("b", "a"))

    def test_unknown_destination(self, pair):
        _hub_a, hub_b = pair
        with pytest.raises(CoreUnreachableError):
            hub_b.send(envelope("b", "nowhere"))

    def test_connection_refused_maps_to_unreachable(self):
        hub = TcpTransport(
            reconnect=RetryPolicy(max_attempts=2, base_delay=0.01),
            connect_timeout=2.0,
        )
        try:
            hub.register("x", lambda env: b"")
            port = hub.local_address("x")[1]
            hub.add_peer("ghost", ("127.0.0.1", (port + 1) % 65535 or 1025))
            with pytest.raises(CoreUnreachableError):
                hub.send(envelope("x", "ghost"))
        finally:
            hub.close()

    def test_timeout_raises_deadline_exceeded(self, pair):
        hub_a, hub_b = pair
        entered = threading.Event()

        def slow(env):
            entered.set()
            time.sleep(3.0)
            return b"late"

        hub_a.deregister("a")
        hub_a.register("a", slow)
        hub_b.add_peer("a", hub_a.local_address("a"))  # listener moved ports
        with pytest.raises(DeadlineExceededError):
            hub_b.send(envelope("b", "a"), timeout=0.3)
        assert entered.is_set()  # the slow handler is what ran out the budget

    def test_deadline_shorter_than_the_reconnect_ladder(self, pair, refusing_address):
        """Connecting is inside the budget: the deadline wins over the ladder."""
        _hub_a, hub_b = pair  # default ladder: 0.05 + 0.1 + 0.2 s of back-off
        hub_b.add_peer("ghost", refusing_address)
        started = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            hub_b.send(envelope("b", "ghost"), timeout=0.12)
        assert 0.12 <= time.monotonic() - started < 0.3
        with pytest.raises(CoreUnreachableError):  # this budget outlasts the ladder
            hub_b.send(envelope("b", "ghost"), timeout=5.0)

    def test_duplicate_registration(self, pair):
        hub_a, _hub_b = pair
        with pytest.raises(DuplicateCoreError):
            hub_a.register("a", lambda env: b"")

    def test_deregistered_node_refuses_traffic(self, pair):
        hub_a, hub_b = pair
        hub_a.deregister("a")
        hub_a.register("a2", lambda env: b"")  # keep the hub alive
        # b's hub does not know "a" was deregistered; the remote hub
        # answers with the typed refusal.
        with pytest.raises((CoreDownError, CoreUnreachableError)):
            hub_b.send(envelope("b", "a"))


class TestReconnect:
    def test_reconnects_after_peer_restart(self):
        hub_a = TcpTransport()
        hub_b = TcpTransport()
        try:
            hub_a.register("a", lambda env: b"v1:" + env.payload)
            hub_b.register("b", lambda env: b"")
            hub_b.add_peer("a", hub_a.local_address("a"))
            hub_a.add_peer("b", hub_b.local_address("b"))
            assert hub_b.send(envelope("b", "a", b"one")) == b"v1:one"
            port = hub_a.local_address("a")[1]
            hub_a.close()

            # Restart "a" on the same port in a fresh hub.
            hub_a2 = TcpTransport(ports={"a": port})
            try:
                hub_a2.register("a", lambda env: b"v2:" + env.payload)
                hub_a2.add_peer("b", hub_b.local_address("b"))
                # The cached connection is stale; the transport-level
                # invalidation plus an RPC-style retry recovers.
                policy = RetryPolicy(max_attempts=4, base_delay=0.05)

                def attempt():
                    return hub_b.send(envelope("b", "a", b"two"))

                result = policy.run(hub_b.scheduler, attempt)
                assert result == b"v2:two"
            finally:
                hub_a2.close()
        finally:
            hub_b.close()


class TestChaos:
    def test_node_down_refuses_at_sender(self, pair):
        _hub_a, hub_b = pair
        hub_b.set_node_down("a")
        assert not hub_b.is_up("a")
        assert not hub_b.can_reach("b", "a")
        with pytest.raises(CoreDownError):
            hub_b.send(envelope("b", "a"))
        hub_b.set_node_down("a", down=False)
        assert hub_b.send(envelope("b", "a", b"back")) == b"a-got:back"

    def test_local_node_down_refuses_at_receiver(self, pair):
        hub_a, hub_b = pair
        hub_a.set_node_down("a")  # only a's own hub knows
        with pytest.raises(CoreDownError):
            hub_b.send(envelope("b", "a"))
        hub_a.set_node_down("a", down=False)

    def test_link_cut(self, pair):
        _hub_a, hub_b = pair
        hub_b.set_link("b", "a", up=False)
        with pytest.raises(CoreUnreachableError):
            hub_b.send(envelope("b", "a"))
        hub_b.set_link("b", "a", up=True)
        assert hub_b.send(envelope("b", "a", b"healed")) == b"a-got:healed"

    def test_partition(self, pair):
        _hub_a, hub_b = pair
        hub_b.partition({"a"}, {"b"})
        assert not hub_b.can_reach("b", "a")
        with pytest.raises(CoreUnreachableError):
            hub_b.send(envelope("b", "a"))
        hub_b.heal_partition()
        assert hub_b.can_reach("b", "a")

    def test_injected_latency_is_reported(self, pair):
        _hub_a, hub_b = pair
        hub_b.set_link("b", "a", latency=0.01)
        assert hub_b.transfer_time("b", "a", 100) == pytest.approx(0.01)
        assert hub_b.send(envelope("b", "a", b"slow")) == b"a-got:slow"

    def test_bandwidth_knob_is_simnet_only(self, pair):
        _hub_a, hub_b = pair
        with pytest.raises(TransportCapabilityError):
            hub_b.set_link("b", "a", bandwidth=1000.0)


class TestLifecycle:
    def test_close_is_idempotent(self):
        hub = TcpTransport()
        hub.register("x", lambda env: b"")
        hub.close()
        hub.close()

    def test_send_after_close_fails(self):
        hub = TcpTransport()
        hub.register("x", lambda env: b"")
        hub.close()
        with pytest.raises(TransportError):
            hub.send(envelope("x", "x"))

    def test_listener_port_released_after_close(self):
        import socket

        hub = TcpTransport()
        hub.register("x", lambda env: b"")
        port = hub.local_address("x")[1]
        hub.close()
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind(("127.0.0.1", port))  # must not raise

    def test_probe(self, pair):
        _hub_a, hub_b = pair
        assert hub_b.probe("a", timeout=5.0)
        assert not hub_b.probe("nonexistent", timeout=1.0)

    def test_probe_is_one_attempt_without_backoff(self, pair, refusing_address):
        _hub_a, hub_b = pair
        hub_b.add_peer("ghost", refusing_address)
        started = time.monotonic()
        assert not hub_b.probe("ghost", timeout=5.0)
        assert time.monotonic() - started < 0.04  # the ladder's first rung is 0.05 s


def io_threads() -> list[threading.Thread]:
    return [thread for thread in threading.enumerate() if thread.name == "fargo-tcp-io"]


class TestThreading:
    """Callers write, dispatch threads reply, one I/O thread per hub reads."""

    def test_reentrant_chain_over_two_connections(self, pair):
        """a -> b -> a -> b: every hop waits on a reply only the I/O thread can read."""
        hub_a, hub_b = pair
        hub_a.deregister("a")
        hub_b.deregister("b")
        hub_a.register("a", lambda env: b"a(" + hub_a.send(envelope("a", "b", b"last")) + b")")
        hub_b.register(
            "b",
            lambda env: b"end" if env.payload == b"last"
            else b"b(" + hub_b.send(envelope("b", "a")) + b")",
        )
        hub_a.add_peer("b", hub_b.local_address("b"))
        hub_b.add_peer("a", hub_a.local_address("a"))
        assert hub_a.send(envelope("a", "b", b"first"), timeout=10.0) == b"b(a(end))"

    def test_no_thread_per_request_or_connection(self, pair):
        _hub_a, hub_b = pair

        def others() -> list[str]:
            return sorted(
                thread.name for thread in threading.enumerate()
                if not thread.name.startswith("fargo-tcp-dispatch")
            )

        assert hub_b.send(envelope("b", "a", b"warm")) == b"a-got:warm"
        baseline = others()
        mismatches: list[bytes] = []

        def call(worker: int) -> None:
            for i in range(200):
                payload = b"%d:%d" % (worker, i)
                if hub_b.send(envelope("b", "a", payload)) != b"a-got:" + payload:
                    mismatches.append(payload)

        threads = [threading.Thread(target=call, args=(w,), name=f"caller-{w}") for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not mismatches  # each caller got its own reply
        assert others() == baseline  # the pool aside, no thread was made

    def test_one_io_thread_per_hub_gone_after_close(self):
        before = len(io_threads())
        hub = TcpTransport()
        assert len(io_threads()) == before + 1
        hub.register("x", lambda env: b"")
        hub.register("y", lambda env: b"")
        assert hub.send(envelope("x", "y")) == b""
        assert len(io_threads()) == before + 1
        hub.close()
        assert len(io_threads()) == before

    def test_stalled_peer_fails_the_write_then_reconnects(self):
        """A peer that accepts and never reads cannot hold a sender past its budget."""
        hub = TcpTransport()
        with socket.create_server(("127.0.0.1", 0)) as stalled:
            try:
                hub.register("x", lambda env: b"")
                hub.add_peer("stalled", stalled.getsockname())
                bulk = bytes(32 << 20)  # more than loopback's socket buffers hold
                started = time.monotonic()
                with pytest.raises(DeadlineExceededError):
                    hub.send(envelope("x", "stalled", bulk), timeout=0.5)
                assert time.monotonic() - started < 3.0
                first, _ = stalled.accept()
                first.close()
                with pytest.raises(DeadlineExceededError):  # nobody answers here either
                    hub.send(envelope("x", "stalled"), timeout=0.2)
                stalled.settimeout(5.0)
                second, _ = stalled.accept()  # the half-written stream was given up
                second.close()
            finally:
                hub.close()

    @pytest.mark.parametrize("closing", ["sender", "receiver"])
    def test_send_and_post_racing_close_never_hang(self, closing):
        hub_a = TcpTransport()
        hub_b = TcpTransport()
        hub_a.register("a", lambda env: b"ok")
        hub_b.register("b", lambda env: b"")
        hub_b.add_peer("a", hub_a.local_address("a"))
        outcomes: list[BaseException | None] = []

        def hammer(operation) -> None:
            try:
                for _ in range(100_000):
                    operation(envelope("b", "a"))
            except (TransportError, CoreUnreachableError) as exc:
                outcomes.append(exc)
            except BaseException as exc:  # noqa: BLE001 - reported below
                outcomes.append(AssertionError(f"unexpected {exc!r}"))
            else:
                outcomes.append(None)

        def send(env):
            return hub_b.send(env, timeout=20.0)

        threads = [threading.Thread(target=hammer, args=(op,)) for op in (send, send, hub_b.post)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.1)
            (hub_b if closing == "sender" else hub_a).close()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
            hub_a.close()
            hub_b.close()
        assert not any(thread.is_alive() for thread in threads)
        assert len(outcomes) == 3
        for outcome in outcomes:
            assert isinstance(outcome, (TransportError, CoreUnreachableError)), outcome


def crc_handler(env: Envelope) -> bytes:
    return b"%d" % zlib.crc32(env.payload)


def group_payload(tag: int = 0, leaf: int = 256 * 1024) -> Segments:
    """Shaped like a group move: a small head and three buffers beside it."""
    payload = PLAIN.dumps_segments([bytes([tag + i]) * (leaf + i) for i in range(3)])
    assert isinstance(payload, Segments) and len(payload.parts) == 4
    return payload


@pytest.fixture
def crc_pair():
    """Hub b calls node a, which answers the CRC-32 of what arrived."""
    hub_a = TcpTransport(request_timeout=10.0, connect_timeout=5.0)
    hub_b = TcpTransport(request_timeout=10.0, connect_timeout=5.0)
    hub_a.register("a", crc_handler)
    hub_b.register("b", lambda env: b"")
    hub_a.add_peer("b", hub_b.local_address("b"))
    hub_b.add_peer("a", hub_a.local_address("a"))
    assert hub_b.send(envelope("b", "a", b"warm")) == b"%d" % zlib.crc32(b"warm")
    yield hub_a, hub_b
    hub_a.close()
    hub_b.close()


def shrink_send_buffer(hub: TcpTransport, dst: str) -> None:
    """Every write of a bulk frame now stops part-way, many times."""
    hub._connections[dst].sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)


class TestBulk:
    """Segments go out in one gather write; bulk frames are received in place."""

    def test_gather_write_through_a_tiny_send_buffer_arrives_intact(self, crc_pair):
        _hub_a, hub_b = crc_pair
        shrink_send_buffer(hub_b, "a")
        payload = group_payload()
        before = hub_b.stats.bytes
        reply = hub_b.send(envelope("b", "a", payload))
        assert reply == b"%d" % zlib.crc32(bytes(payload))
        assert hub_b.stats.bytes - before == len(payload) + len(reply)  # charged its wire size

    def test_handler_sees_a_read_only_view_and_may_answer_with_a_slice(self):
        """The benchmark's echo handler: ``envelope.payload[:64]``."""
        hub = TcpTransport()
        seen: list = []

        def echo(env: Envelope):
            seen.append(env.payload)
            return env.payload[:64]

        try:
            hub.register("x", lambda env: b"")
            hub.register("y", echo)
            blob = bytes(range(256)) * 1024
            assert hub.send(envelope("x", "y", blob)) == blob[:64]
            assert hub.send(envelope("x", "y", b"small")) == b"small"
            assert isinstance(seen[0], memoryview) and seen[0].readonly and seen[0] == blob
            assert type(seen[1]) is bytes
        finally:
            hub.close()

    def test_bulk_reply_is_bytes(self, pair):
        hub_a, hub_b = pair
        hub_a.deregister("a")
        hub_a.register("a", lambda env: bytes([9]) * (4 * BULK_BYTES))
        hub_b.add_peer("a", hub_a.local_address("a"))
        reply = hub_b.send(envelope("b", "a"))
        assert type(reply) is bytes and reply == bytes([9]) * (4 * BULK_BYTES)

    def test_more_segments_than_one_sendmsg_takes(self, crc_pair):
        _hub_a, hub_b = crc_pair
        payload = Segments([bytes([i % 251]) * (i % 97) for i in range(1500)])
        assert len(payload.parts) > os.sysconf("SC_IOV_MAX")
        assert hub_b.send(envelope("b", "a", payload)) == b"%d" % zlib.crc32(bytes(payload))
        shrink_send_buffer(hub_b, "a")
        wide = Segments([bytes([i % 251]) * 300 for i in range(1500)])
        assert hub_b.send(envelope("b", "a", wide)) == b"%d" % zlib.crc32(bytes(wide))

    def test_threads_gathering_into_one_connection_never_interleave(self, crc_pair):
        _hub_a, hub_b = crc_pair
        shrink_send_buffer(hub_b, "a")
        mismatches: list = []
        errors: list[BaseException] = []

        def call(worker: int) -> None:
            payload = group_payload(tag=10 * worker, leaf=BULK_BYTES + worker)
            expected = b"%d" % zlib.crc32(bytes(payload))
            try:
                for _ in range(3):
                    if hub_b.send(envelope("b", "a", payload)) != expected:
                        mismatches.append(worker)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=call, args=(w,)) for w in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and not mismatches

    def test_gather_write_to_a_stalled_peer_honours_its_deadline(self):
        hub = TcpTransport()
        with socket.create_server(("127.0.0.1", 0)) as stalled:
            try:
                hub.register("x", lambda env: b"")
                hub.add_peer("stalled", stalled.getsockname())
                bulk = Segments([bytes([i]) * (8 << 20) for i in range(4)])  # > loopback's buffers
                started = time.monotonic()
                with pytest.raises(DeadlineExceededError):
                    hub.send(envelope("x", "stalled", bulk), timeout=0.5)
                assert time.monotonic() - started < 3.0
                assert "stalled" not in hub._connections or hub._connections["stalled"].closed
                first, _ = stalled.accept()
                first.close()
                with pytest.raises(DeadlineExceededError):  # nobody answers here either
                    hub.send(envelope("x", "stalled"), timeout=0.2)
                stalled.settimeout(5.0)
                second, _ = stalled.accept()  # the half-written stream was given up
                second.close()
            finally:
                hub.close()


class TestOversizedFrames:
    """Refused by the encoder, typed, and the connection is none the worse."""

    @pytest.fixture(autouse=True)
    def small_ceiling(self, monkeypatch):
        monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 1 << 20)

    @pytest.mark.parametrize("form", ["bytes", "segments"])
    def test_request_is_refused_before_a_byte_is_written(self, crc_pair, form):
        _hub_a, hub_b = crc_pair
        connection = hub_b._connections["a"]
        big = group_payload(leaf=512 * 1024)
        with pytest.raises(framing.FramingError, match="MAX_FRAME_BYTES"):
            hub_b.send(envelope("b", "a", big if form == "segments" else bytes(big)))
        with pytest.raises(framing.FramingError, match="MAX_FRAME_BYTES"):
            hub_b.post(envelope("b", "a", big if form == "segments" else bytes(big)))
        assert hub_b.send(envelope("b", "a", b"next")) == b"%d" % zlib.crc32(b"next")
        assert hub_b._connections["a"] is connection and not connection.closed

    def test_reply_is_refused_typed_at_the_caller(self, pair):
        hub_a, hub_b = pair
        hub_a.deregister("a")
        hub_a.register("a", lambda env: bytes(2 << 20) if env.payload == b"big" else b"ok")
        hub_b.add_peer("a", hub_a.local_address("a"))
        assert hub_b.send(envelope("b", "a")) == b"ok"
        connection = hub_b._connections["a"]
        with pytest.raises(framing.FramingError, match="MAX_FRAME_BYTES"):
            hub_b.send(envelope("b", "a", b"big"), timeout=5.0)
        assert hub_b.send(envelope("b", "a")) == b"ok"
        assert hub_b._connections["a"] is connection and not connection.closed


def test_import_repro_loads_neither_asyncio_nor_hashlib():
    """Child Cores pay every import in their bring-up and their resident set."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    subprocess.run(
        [sys.executable, "-c",
         "import repro, sys; assert not {'asyncio', 'ssl', 'hashlib'} & set(sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60,
    )
