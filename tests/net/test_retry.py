"""Tests for retry policies, call timeouts, and one-way error isolation."""

import pytest

from repro.errors import (
    ConfigurationError,
    CoreDownError,
    CoreUnreachableError,
    DeadlineExceededError,
    TransportError,
)
from repro.net.messages import MessageKind
from repro.net.retry import NO_RETRY, RetryPolicy
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


class TestRetryPolicyConfig:
    def test_backoff_schedule_is_exponential_and_capped(self):
        policy = RetryPolicy(max_attempts=5, base_delay=1.0, multiplier=2.0, max_delay=3.0)
        assert policy.delays() == [1.0, 2.0, 3.0, 3.0]

    def test_schedule_is_deterministic(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.5)
        assert policy.delays() == policy.delays()  # jitter-free by design

    def test_no_retry_is_single_attempt(self):
        assert NO_RETRY.max_attempts == 1
        assert NO_RETRY.delays() == []

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay": -1.0},
            {"multiplier": 0.5},
            {"max_delay": -0.1},
            {"deadline": 0.0},
        ],
    )
    def test_invalid_configuration_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)


class TestRetryPolicyRun:
    def test_success_needs_no_clock(self, net):
        policy = RetryPolicy(max_attempts=3, base_delay=1.0)
        assert policy.run(net.scheduler, lambda: 42) == 42
        assert net.scheduler.clock.now() == 0.0

    def test_retry_observes_injected_revival(self, net):
        """The backoff sweep fires due timers, so a scheduled heal is seen."""
        calls = []

        def flaky():
            calls.append(net.scheduler.clock.now())
            if net.scheduler.clock.now() < 1.0:
                raise CoreUnreachableError("still down")
            return "reached"

        policy = RetryPolicy(max_attempts=4, base_delay=0.6, multiplier=1.0)
        assert policy.run(net.scheduler, flaky) == "reached"
        # Attempts at t=0 and t=0.6 failed; the one at t=1.2 landed.
        assert calls == [0.0, 0.6, pytest.approx(1.2)]

    def test_exhaustion_reraises_the_original_error(self, net):
        attempts = []

        def always_down():
            attempts.append(1)
            raise CoreDownError("gone for good")

        policy = RetryPolicy(max_attempts=3, base_delay=0.1)
        with pytest.raises(CoreDownError, match="gone for good"):
            policy.run(net.scheduler, always_down)
        assert len(attempts) == 3

    def test_deadline_bounds_total_time(self, net):
        attempts = []

        def always_down():
            attempts.append(net.scheduler.clock.now())
            raise CoreUnreachableError("down")

        # Delays of 1.0 each; the second retry would land at t=2.0 > 1.5.
        policy = RetryPolicy(
            max_attempts=10, base_delay=1.0, multiplier=1.0, deadline=1.5
        )
        with pytest.raises(CoreUnreachableError):
            policy.run(net.scheduler, always_down)
        assert attempts == [0.0, 1.0]

    def test_non_reachability_errors_are_not_retried(self, net):
        attempts = []

        def broken():
            attempts.append(1)
            raise ValueError("application bug")

        policy = RetryPolicy(max_attempts=5, base_delay=0.1)
        with pytest.raises(ValueError):
            policy.run(net.scheduler, broken)
        assert len(attempts) == 1

    def test_deadline_exceeded_not_retried_by_default(self, net):
        """Retrying after a timeout means at-least-once; it must be opt-in."""
        attempts = []

        def slow():
            attempts.append(1)
            raise DeadlineExceededError("too slow")

        policy = RetryPolicy(max_attempts=3, base_delay=0.1)
        with pytest.raises(DeadlineExceededError):
            policy.run(net.scheduler, slow)
        assert len(attempts) == 1

    def test_on_retry_observer_sees_each_backoff(self, net):
        observed = []

        def always_down():
            raise CoreUnreachableError("down")

        policy = RetryPolicy(max_attempts=3, base_delay=0.5, multiplier=2.0)
        with pytest.raises(CoreUnreachableError):
            policy.run(
                net.scheduler,
                always_down,
                on_retry=lambda attempt, delay, exc: observed.append((attempt, delay)),
            )
        assert observed == [(1, 0.5), (2, 1.0)]


class TestCallTimeouts:
    def test_slow_round_trip_raises_deadline_exceeded(self, net, pair):
        a, b = pair
        b.register(MessageKind.ADMIN_QUERY, lambda s, p: b"ok")
        net.set_link("a", "b", latency=2.0)
        with pytest.raises(DeadlineExceededError):
            a.call("b", MessageKind.ADMIN_QUERY, b"", timeout=1.0)

    def test_fast_round_trip_is_unaffected(self, net, pair):
        a, b = pair
        b.register(MessageKind.ADMIN_QUERY, lambda s, p: b"ok")
        assert a.call("b", MessageKind.ADMIN_QUERY, b"", timeout=1.0) == b"ok"

    def test_per_kind_timeout_configuration(self, net, pair):
        a, b = pair
        b.register(MessageKind.ADMIN_QUERY, lambda s, p: b"ok")
        b.register(MessageKind.PROFILE_PROBE, lambda s, p: b"ok")
        net.set_link("a", "b", latency=2.0)
        a.set_timeout(1.0, MessageKind.ADMIN_QUERY)
        with pytest.raises(DeadlineExceededError):
            a.call("b", MessageKind.ADMIN_QUERY, b"")
        # Other kinds keep the (absent) default.
        assert a.call("b", MessageKind.PROFILE_PROBE, b"") == b"ok"

    def test_default_timeout_with_per_kind_override(self, pair):
        a, _b = pair
        a.set_timeout(1.0)
        a.set_timeout(9.0, MessageKind.MOVE_COMPLET)
        assert a.timeout_for(MessageKind.ADMIN_QUERY) == 1.0
        assert a.timeout_for(MessageKind.MOVE_COMPLET) == 9.0
        a.set_timeout(None, MessageKind.MOVE_COMPLET)
        assert a.timeout_for(MessageKind.MOVE_COMPLET) == 1.0

    def test_invalid_timeout_rejected(self, pair):
        a, _b = pair
        with pytest.raises(TransportError):
            a.set_timeout(0.0)


class TestCallRetries:
    def test_call_rides_through_a_revival(self, net, pair):
        a, b = pair
        b.register(MessageKind.ADMIN_QUERY, lambda s, p: b"ok")
        net.set_node_down("b")
        net.scheduler.call_at(0.4, lambda: net.set_node_down("b", down=False))
        policy = RetryPolicy(max_attempts=3, base_delay=0.5)
        assert a.call("b", MessageKind.ADMIN_QUERY, b"", retry=policy) == b"ok"

    def test_per_kind_policy_applies_without_call_argument(self, net, pair):
        a, b = pair
        b.register(MessageKind.ADMIN_QUERY, lambda s, p: b"ok")
        net.set_link("a", "b", up=False)
        net.scheduler.call_at(0.4, lambda: net.set_link("a", "b", up=True))
        a.set_retry_policy(RetryPolicy(max_attempts=2, base_delay=0.5))
        assert a.call("b", MessageKind.ADMIN_QUERY, b"") == b"ok"

    def test_without_policy_failure_is_immediate(self, net, pair):
        a, b = pair
        b.register(MessageKind.ADMIN_QUERY, lambda s, p: b"ok")
        net.set_link("a", "b", up=False)
        with pytest.raises(CoreUnreachableError):
            a.call("b", MessageKind.ADMIN_QUERY, b"")
        assert net.scheduler.clock.now() == 0.0  # no backoff was taken

    def test_exhausted_retries_reraise(self, net, pair):
        a, b = pair
        b.register(MessageKind.ADMIN_QUERY, lambda s, p: b"ok")
        net.set_node_down("b")
        policy = RetryPolicy(max_attempts=3, base_delay=0.25)
        with pytest.raises(CoreDownError):
            a.call("b", MessageKind.ADMIN_QUERY, b"", retry=policy)

    def test_on_retry_hook_reports_destination_and_kind(self, net, pair):
        a, b = pair
        observed = []
        a.on_retry = lambda dst, kind, attempt, delay, exc: observed.append(
            (dst, kind, attempt)
        )
        b.register(MessageKind.ADMIN_QUERY, lambda s, p: b"ok")
        net.set_node_down("b")
        net.scheduler.call_at(0.4, lambda: net.set_node_down("b", down=False))
        a.call(
            "b",
            MessageKind.ADMIN_QUERY,
            b"",
            retry=RetryPolicy(max_attempts=2, base_delay=0.5),
        )
        assert observed == [("b", MessageKind.ADMIN_QUERY, 1)]


class TestOneWayIsolation:
    def test_receiver_failure_does_not_reach_the_sender(self, pair):
        a, b = pair

        def broken(src, payload):
            raise RuntimeError("listener blew up")

        b.register(MessageKind.EVENT_NOTIFY, broken)
        a.post("b", MessageKind.EVENT_NOTIFY, b"event")  # must not raise

    def test_missing_handler_is_absorbed_too(self, pair):
        a, _b = pair
        a.post("b", MessageKind.EVENT_NOTIFY, b"event")  # must not raise

    def test_on_oneway_error_hook_fires_at_the_receiver(self, pair):
        a, b = pair
        seen = []

        def broken(src, payload):
            raise RuntimeError("listener blew up")

        b.register(MessageKind.EVENT_NOTIFY, broken)
        b.on_oneway_error = lambda envelope, error: seen.append(
            (envelope.src, envelope.kind, type(error).__name__)
        )
        a.post("b", MessageKind.EVENT_NOTIFY, b"event")
        assert seen == [("a", MessageKind.EVENT_NOTIFY, "RuntimeError")]

    def test_reachability_failures_still_surface_at_the_sender(self, net, pair):
        a, _b = pair
        net.set_link("a", "b", up=False)
        with pytest.raises(CoreUnreachableError):
            a.post("b", MessageKind.EVENT_NOTIFY, b"event")

    def test_request_reply_failures_still_propagate(self, pair):
        """Only *one-way* traffic absorbs receiver failures."""

        a, b = pair

        def broken(src, payload):
            raise RuntimeError("handler blew up")

        b.register(MessageKind.ADMIN_QUERY, broken)
        with pytest.raises(RuntimeError, match="handler blew up"):
            a.call("b", MessageKind.ADMIN_QUERY, b"")


class TestRemoteExceptionChaining:
    def test_remote_errors_carry_the_remote_core_name(self, pair):
        from repro.errors import RemoteInvocationError

        a, b = pair

        def broken(src, payload):
            raise ValueError("remote failure")

        b.register(MessageKind.ADMIN_QUERY, broken)
        try:
            a.call("b", MessageKind.ADMIN_QUERY, b"")
        except ValueError as exc:
            assert isinstance(exc.__cause__, RemoteInvocationError)
            assert "'b'" in str(exc.__cause__)
        else:  # pragma: no cover - the call must raise
            pytest.fail("expected the remote ValueError to re-raise locally")
