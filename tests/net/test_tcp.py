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
from repro.net.tcp import listen

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
            hub_a2 = TcpTransport(listeners={"a": listen("127.0.0.1", port)})
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


    def test_peer_restarted_on_its_port_is_reached_by_the_next_send(self):
        """No add_peer, no retry: the idle connection is found stale at check-out."""
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
            hub_a = TcpTransport(listeners={"a": listen("127.0.0.1", port)})
            hub_a.register("a", lambda env: b"v2:" + env.payload)
            hub_a.add_peer("b", hub_b.local_address("b"))
            assert hub_b.send(envelope("b", "a", b"two")) == b"v2:two"
        finally:
            hub_a.close()
            hub_b.close()


def answer_with(listener: socket.socket, answers: list, accepted: list) -> None:
    """Serve ``listener``: the n-th request gets ``answers[n](frame)`` written back, raw."""
    while True:
        try:
            sock, _ = listener.accept()
        except OSError:
            return  # the test closed the listener
        accepted.append(sock)
        decoder = framing.FrameDecoder()
        with sock:
            while data := sock.recv(4096):
                for frame in decoder.feed(data):
                    sock.sendall(answers.pop(0)(frame))


class TestOneCallPerConnection:
    """What a peer may put on a checked-out connection: the one reply that is due."""

    @pytest.mark.parametrize("bad_answer", [
        pytest.param(lambda frame: b"\xff" * 64, id="garbage"),
        pytest.param(lambda frame: framing.encode_reply(frame.request_id + 1, b"other"),
                     id="wrong-id"),
        pytest.param(lambda frame: framing.encode_reply(frame.request_id, b"one")
                     + framing.encode_reply(frame.request_id, b"two"), id="two-frames"),
        pytest.param(lambda frame: framing.encode_request(envelope("a", "x"), frame.request_id),
                     id="request"),
    ])
    def test_anything_else_is_typed_and_the_next_call_reconnects(self, bad_answer):
        hub = TcpTransport()
        accepted: list = []
        answers = [bad_answer, lambda frame: framing.encode_reply(frame.request_id, b"ok")]
        listener = socket.create_server(("127.0.0.1", 0))
        server = threading.Thread(target=answer_with, args=(listener, answers, accepted))
        server.start()
        try:
            hub.register("x", lambda env: b"")
            hub.add_peer("a", listener.getsockname())
            with pytest.raises(CoreUnreachableError):
                hub.send(envelope("x", "a"), timeout=5.0)
            assert not hub._idle.get("a")  # closed, not kept
            assert hub.send(envelope("x", "a"), timeout=5.0) == b"ok"
            assert len(accepted) == 2
        finally:
            hub.close()
            listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
            listener.close()
            server.join(timeout=5)
        assert not server.is_alive()

    def test_close_wakes_a_caller_waiting_on_a_silent_peer(self):
        hub = TcpTransport(connect_timeout=2.0)
        outcomes: list = []

        def call() -> None:
            try:
                outcomes.append(hub.send(envelope("x", "silent"), timeout=30.0))
            except (CoreUnreachableError, TransportError) as exc:
                outcomes.append(exc)

        with socket.create_server(("127.0.0.1", 0)) as silent:  # connects, never answers
            hub.register("x", lambda env: b"")
            hub.add_peer("silent", silent.getsockname())
            caller = threading.Thread(target=call)
            caller.start()
            try:
                first, _ = silent.accept()  # the caller is connected, and now waits
                time.sleep(0.1)
                started = time.monotonic()
                hub.close()
                caller.join(timeout=2.0)
                assert not caller.is_alive() and time.monotonic() - started < 2.0
                first.close()
            finally:
                hub.close()
                caller.join(timeout=30)
        assert len(outcomes) == 1 and isinstance(outcomes[0], CoreUnreachableError)


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

    def test_register_after_close_fails_and_binds_nothing(self):
        hub = TcpTransport()
        hub.close()
        with pytest.raises(TransportError):
            hub.register("x", lambda env: b"")
        assert hub.nodes() == []
        with pytest.raises(TransportError):  # nothing was bound
            hub.local_address("x")

    def test_listener_port_released_after_close(self):
        import socket

        hub = TcpTransport()
        hub.register("x", lambda env: b"")
        port = hub.local_address("x")[1]
        hub.close()
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind(("127.0.0.1", port))  # must not raise


def hub_threads(*kinds: str) -> list[threading.Thread]:
    """Live threads of any hub: ``fargo-tcp-<kind>`` for each of ``kinds``, or all."""
    prefixes = tuple(f"fargo-tcp-{kind}" for kind in kinds) or "fargo-tcp-"
    return [thread for thread in threading.enumerate() if thread.name.startswith(prefixes)]


def idle_connection(hub: TcpTransport, dst: str):
    """The connection the hub's next call to ``dst`` takes: checked out, and returned."""
    connection = hub._checkout(dst, time.monotonic() + 5.0)
    hub._checkin(connection)
    return connection


def count_accepted(hub: TcpTransport) -> list:
    """Every connection ``hub`` accepts from now on is appended to the returned list."""
    accepted: list = []
    serve = hub._serve

    def counting(connection) -> None:
        accepted.append(connection)
        serve(connection)

    hub._serve = counting
    return accepted


class TestThreading:
    """A caller reads its own reply; the thread that read a request runs it."""

    def test_reentrant_chain_over_two_connections(self, pair):
        """a -> b -> a -> b: every hop waits on a reply only a second connection can carry."""
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
        """Eight callers share at most eight connections, each with one serving thread."""
        hub_a, hub_b = pair
        before = len(hub_threads("conn", "dispatch"))
        accepted = count_accepted(hub_a)
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
        assert 1 <= len(accepted) <= 8  # no connect per request
        assert len(hub_threads("conn", "dispatch")) - before == len(accepted)  # nor a thread
        hub_b.close()
        hub_a.close()
        assert len(hub_threads("conn", "dispatch")) == before
        assert not any(thread.is_alive() for thread in hub_a._threads | hub_b._threads)

    def test_sequential_calls_run_on_one_thread_and_start_none(self, pair):
        """The count this model pins: one serving thread per connection, none per call."""
        hub_a, hub_b = pair
        ran_on: set[int] = set()
        hub_a.deregister("a")
        hub_a.register("a", lambda env: ran_on.add(threading.get_ident()) or b"ok")
        hub_b.add_peer("a", hub_a.local_address("a"))
        accepted = count_accepted(hub_a)
        assert hub_b.send(envelope("b", "a", b"warm")) == b"ok"
        threads = sorted(thread.name for thread in threading.enumerate())
        for _ in range(200):
            assert hub_b.send(envelope("b", "a")) == b"ok"
        assert len(ran_on) == 1 and len(accepted) == 1
        assert sorted(thread.name for thread in threading.enumerate()) == threads
        assert threading.get_ident() not in ran_on
        assert not ran_on & {thread.ident for thread in hub_threads("accept")}

    def test_oneway_handler_calls_its_sender_back_which_calls_again(self, pair):
        """post, then b -> a -> b: the ONEWAY handler is off the thread that reads a's call."""
        hub_a, hub_b = pair
        answers: list[bytes] = []
        done = threading.Event()

        def b_handler(env):
            if env.payload == b"last":
                return b"end"
            answers.append(hub_b.send(envelope("b", "a"), timeout=10.0))
            done.set()
            return b""

        hub_a.deregister("a")
        hub_b.deregister("b")
        hub_a.register("a", lambda env: b"a(" + hub_a.send(envelope("a", "b", b"last")) + b")")
        hub_b.register("b", b_handler)
        hub_a.add_peer("b", hub_b.local_address("b"))
        hub_b.add_peer("a", hub_a.local_address("a"))
        hub_a.post(envelope("a", "b", b"go"))
        assert done.wait(timeout=10) and answers == [b"a(end)"]
        assert len(hub_threads("dispatch")) == 1

    def test_a_timed_out_call_does_not_leave_its_reply_to_the_next(self, pair):
        hub_a, hub_b = pair
        release = threading.Event()

        def handler(env):
            if env.payload == b"slow":
                release.wait(timeout=10)
            return b"a-got:" + env.payload

        hub_a.deregister("a")
        hub_a.register("a", handler)
        hub_b.add_peer("a", hub_a.local_address("a"))
        accepted = count_accepted(hub_a)
        try:
            with pytest.raises(DeadlineExceededError):
                hub_b.send(envelope("b", "a", b"slow"), timeout=0.2)
            # The slow handler still runs; this call neither waits for it nor meets its reply.
            assert hub_b.send(envelope("b", "a", b"fast"), timeout=5.0) == b"a-got:fast"
            assert len(accepted) == 2  # the connection that timed out was given up
        finally:
            release.set()

    def test_one_accept_thread_per_node_gone_after_deregister_and_close(self):
        before = len(hub_threads("accept"))
        others = len(hub_threads("conn", "dispatch"))
        hub = TcpTransport()
        assert len(hub_threads("accept")) == before  # a hub with no node accepts nothing
        for count, name in enumerate("xyz", start=1):
            hub.register(name, lambda env: b"")
            assert len(hub_threads("accept")) == before + count
        assert hub.send(envelope("x", "y")) == b""
        hub.post(envelope("x", "y"))
        assert len(hub_threads("accept")) == before + 3
        assert len(hub_threads("conn")) == others + 1
        hub.deregister("z")
        assert len(hub_threads("accept")) == before + 2
        hub.close()
        assert len(hub_threads("accept")) == before
        assert len(hub_threads("conn", "dispatch")) == others

    def test_deregister_under_connects_frees_the_port_and_spares_the_other_node(self):
        hub, peer = TcpTransport(), TcpTransport()
        hub.register("x", lambda env: b"x")
        hub.register("y", lambda env: b"y")
        peer.register("p", lambda env: b"")
        peer.add_peer("x", hub.local_address("x"))
        hub.add_peer("p", peer.local_address("p"))
        address = hub.local_address("y")
        stop = threading.Event()

        def knock() -> None:  # a peer that keeps connecting to y
            while not stop.is_set():
                try:
                    socket.create_connection(address, timeout=0.5).close()
                except OSError:
                    pass

        knocker = threading.Thread(target=knock)
        knocker.start()
        try:
            time.sleep(0.05)
            hub.deregister("y")
            with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as rebound:
                rebound.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                rebound.bind(address)  # free on return: must not raise
            for _ in range(20):
                assert peer.send(envelope("p", "x")) == b"x"
        finally:
            stop.set()
            knocker.join(timeout=5)
            peer.close()
            hub.close()

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


def shrink_send_buffer(hub: TcpTransport, dst: str, callers: int = 1) -> None:
    """Every write of a bulk frame now stops part-way, many times.

    On the connections the next ``callers`` concurrent calls to ``dst`` take.
    """
    deadline = time.monotonic() + 5.0
    connections = [hub._checkout(dst, deadline) for _ in range(callers)]
    for connection in connections:
        connection.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        hub._checkin(connection)


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
        """Each caller has a connection to itself, so nothing can."""
        hub_a, hub_b = crc_pair
        accepted = count_accepted(hub_a)
        shrink_send_buffer(hub_b, "a", callers=8)
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
        assert len(accepted) == 7  # with the fixture's: all over the eight shrunk connections

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
                assert not hub._idle.get("stalled")  # not kept for the next caller
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
        connection = idle_connection(hub_b, "a")
        big = group_payload(leaf=512 * 1024)
        with pytest.raises(framing.FramingError, match="MAX_FRAME_BYTES"):
            hub_b.send(envelope("b", "a", big if form == "segments" else bytes(big)))
        with pytest.raises(framing.FramingError, match="MAX_FRAME_BYTES"):
            hub_b.post(envelope("b", "a", big if form == "segments" else bytes(big)))
        assert hub_b.send(envelope("b", "a", b"next")) == b"%d" % zlib.crc32(b"next")
        assert idle_connection(hub_b, "a") is connection

    def test_reply_is_refused_typed_at_the_caller(self, pair):
        hub_a, hub_b = pair
        hub_a.deregister("a")
        hub_a.register("a", lambda env: bytes(2 << 20) if env.payload == b"big" else b"ok")
        hub_b.add_peer("a", hub_a.local_address("a"))
        assert hub_b.send(envelope("b", "a")) == b"ok"
        connection = idle_connection(hub_b, "a")
        with pytest.raises(framing.FramingError, match="MAX_FRAME_BYTES"):
            hub_b.send(envelope("b", "a", b"big"), timeout=5.0)
        assert hub_b.send(envelope("b", "a")) == b"ok"
        assert idle_connection(hub_b, "a") is connection


def test_import_repro_loads_neither_asyncio_nor_hashlib():
    """Child Cores pay every import in their bring-up and their resident set;
    nor does it load what only the driver uses (subprocess, argparse), what
    only mypy reads (typing), what only a checkpoint directory needs (pathlib,
    with urllib.parse and ipaddress) or the idna codec, which a connect to an
    ASCII host does not need."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    subprocess.run(
        [sys.executable, "-S", "-c",
         "import repro, sys; assert not "
         "{'asyncio', 'ssl', 'hashlib', 'concurrent.futures', "
         "'argparse', 'subprocess', 'encodings.idna', "
         "'typing', 'pathlib', 'urllib.parse', 'ipaddress'} & set(sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60,
    )


#: A 256 KiB FileStore put, get and evict, then one checkpoint generation;
#: afterwards no OpenSSL module is imported, and on Linux libcrypto is not mapped.
PUT_AND_CHECKPOINT = """
import os, sys
from repro.core.persistence import Snapshot
from repro.recovery.store import CheckpointRecord, CheckpointStore
from repro.store.store import FileStore
from repro.util.ids import CompletId

root = sys.argv[1]
store = FileStore(os.path.join(root, "blobs"))
data = bytes(range(256)) * 1024
key = store.put(data)
assert store.get(key) == data and store.evict(key) and len(store) == 0
snap = Snapshot(CompletId("alpha", 1, "Probe"), "Probe", data, 0.0)
CheckpointStore(os.path.join(root, "checkpoints")).put(CheckpointRecord(snap, "alpha"))
assert not {"hashlib", "_hashlib", "_ssl"} & set(sys.modules), sys.modules.keys()
if sys.platform == "linux":
    with open("/proc/self/maps") as maps:
        assert "libcrypto" not in maps.read()
"""


def test_a_put_and_a_checkpoint_load_no_openssl(tmp_path):
    """Store keys come from the builtin BLAKE2b: a process that offloads or
    checkpoints never imports hashlib, which maps OpenSSL's libcrypto."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    subprocess.run(
        [sys.executable, "-S", "-c", PUT_AND_CHECKPOINT, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60,
    )
