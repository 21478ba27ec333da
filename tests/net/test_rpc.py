"""Tests for the request/reply RPC layer."""

import pytest

from repro.errors import RemoteInvocationError, SerializationError, TransportError
from repro.net.messages import MessageKind
from repro.net.rpc import RpcEndpoint
from repro.net.simnet import SimTransport
from repro.sim.clock import VirtualClock
from repro.sim.scheduler import Scheduler


@pytest.fixture
def net():
    return SimTransport(Scheduler(VirtualClock()))


@pytest.fixture
def pair(net):
    a = RpcEndpoint("a", net)
    b = RpcEndpoint("b", net)
    return a, b


class TestCalls:
    def test_round_trip(self, pair):
        a, b = pair
        b.register(MessageKind.ADMIN_QUERY, lambda src, payload: payload.upper())
        assert a.call("b", MessageKind.ADMIN_QUERY, b"hello") == b"HELLO"

    def test_handler_sees_source(self, pair):
        a, b = pair
        sources = []

        def handler(src, payload):
            sources.append(src)
            return b""

        b.register(MessageKind.ADMIN_QUERY, handler)
        a.call("b", MessageKind.ADMIN_QUERY, b"")
        assert sources == ["a"]

    def test_missing_handler_raises_at_caller(self, pair):
        a, _b = pair
        with pytest.raises(TransportError, match="no handler"):
            a.call("b", MessageKind.ADMIN_QUERY, b"")

    def test_duplicate_handler_rejected(self, pair):
        _a, b = pair
        b.register(MessageKind.ADMIN_QUERY, lambda s, p: b"")
        with pytest.raises(TransportError):
            b.register(MessageKind.ADMIN_QUERY, lambda s, p: b"")

    def test_non_bytes_reply_rejected(self, pair):
        a, b = pair
        b.register(MessageKind.ADMIN_QUERY, lambda s, p: "not-bytes")
        with pytest.raises(TransportError):
            a.call("b", MessageKind.ADMIN_QUERY, b"")


class TestExceptionPropagation:
    def test_exception_crosses_by_value(self, pair):
        a, b = pair

        def handler(src, payload):
            raise ValueError("remote failure")

        b.register(MessageKind.ADMIN_QUERY, handler)
        with pytest.raises(ValueError, match="remote failure"):
            a.call("b", MessageKind.ADMIN_QUERY, b"")

    def test_fargo_error_keeps_type(self, pair):
        from repro.errors import NameNotFoundError

        a, b = pair

        def handler(src, payload):
            raise NameNotFoundError("nothing here")

        b.register(MessageKind.ADMIN_QUERY, handler)
        with pytest.raises(NameNotFoundError):
            a.call("b", MessageKind.ADMIN_QUERY, b"")

    def test_unpicklable_exception_degrades_to_repr(self, pair):
        a, b = pair

        class Weird(Exception):
            def __init__(self):
                super().__init__("weird")
                self.callback = lambda: None  # unpicklable

        def handler(src, payload):
            raise Weird()

        b.register(MessageKind.ADMIN_QUERY, handler)
        with pytest.raises(RemoteInvocationError, match="Weird"):
            a.call("b", MessageKind.ADMIN_QUERY, b"")

    def test_a_corrupt_error_body_is_a_typed_error(self, net):
        a = RpcEndpoint("a", net)
        net.register("b", lambda envelope: b"\x01" + b"not a pickle")  # an error frame
        with pytest.raises(SerializationError):
            a.call("b", MessageKind.ADMIN_QUERY, b"")


class TestPost:
    def test_one_way_delivery(self, pair):
        a, b = pair
        received = []

        def handler(src, payload):
            received.append(payload)
            return b""

        b.register(MessageKind.EVENT_NOTIFY, handler)
        a.post("b", MessageKind.EVENT_NOTIFY, b"event")
        assert received == [b"event"]

    def test_close_detaches(self, pair, net):
        from repro.errors import CoreUnreachableError

        a, b = pair
        b.register(MessageKind.ADMIN_QUERY, lambda s, p: b"")
        b.close()
        with pytest.raises(CoreUnreachableError):
            a.call("b", MessageKind.ADMIN_QUERY, b"")
