"""Tests for the event mechanism: local, remote, complet listeners (§4.2)."""

import pytest

from repro.core.events import Event
from repro.cluster.workload import Counter, Echo
from tests.anchors import Listener


class TestLocalListeners:
    def test_subscribe_and_publish(self, cluster):
        seen = []
        cluster["alpha"].events.subscribe("custom", seen.append)
        cluster["alpha"].events.publish("custom", detail=7)
        assert len(seen) == 1
        assert seen[0].name == "custom"
        assert seen[0].data == {"detail": 7}
        assert seen[0].origin == "alpha"

    def test_wildcard_subscription(self, cluster):
        seen = []
        cluster["alpha"].events.subscribe("*", seen.append)
        cluster["alpha"].events.publish("one")
        cluster["alpha"].events.publish("two")
        assert [e.name for e in seen] == ["one", "two"]

    def test_name_filter(self, cluster):
        seen = []
        cluster["alpha"].events.subscribe("wanted", seen.append)
        cluster["alpha"].events.publish("unwanted")
        assert seen == []

    def test_unsubscribe(self, cluster):
        seen = []
        sub = cluster["alpha"].events.subscribe("x", seen.append)
        cluster["alpha"].events.unsubscribe(sub)
        cluster["alpha"].events.publish("x")
        assert seen == []

    def test_listener_failure_isolated(self, cluster):
        seen = []

        def bad(event):
            raise RuntimeError("listener bug")

        cluster["alpha"].events.subscribe("x", bad)
        cluster["alpha"].events.subscribe("x", seen.append)
        cluster["alpha"].events.publish("x")
        assert len(seen) == 1

    def test_event_carries_virtual_time(self, cluster):
        seen = []
        cluster["alpha"].events.subscribe("x", seen.append)
        cluster.advance(5.0)
        cluster["alpha"].events.publish("x")
        assert seen[0].time == pytest.approx(5.0)


class TestRemoteListeners:
    def test_cross_core_subscription(self, cluster):
        seen = []
        cluster["alpha"].events.subscribe_remote("beta", "remote-evt", seen.append)
        cluster["beta"].events.publish("remote-evt", who="beta")
        assert len(seen) == 1
        assert seen[0].origin == "beta"

    def test_remote_unsubscribe(self, cluster):
        seen = []
        handle = cluster["alpha"].events.subscribe_remote("beta", "e", seen.append)
        cluster["alpha"].events.unsubscribe_remote(handle)
        cluster["beta"].events.publish("e")
        assert seen == []

    def test_subscription_to_self_is_local(self, cluster):
        seen = []
        cluster["alpha"].events.subscribe_remote("alpha", "e", seen.append)
        messages = cluster.stats.messages
        cluster["alpha"].events.publish("e")
        assert len(seen) == 1
        assert cluster.stats.messages == messages  # no network involved

    def test_dead_subscriber_dropped(self, cluster3):
        seen = []
        cluster3["gamma"].events.subscribe_remote("alpha", "e", seen.append)
        cluster3.transport.set_node_down("gamma")
        cluster3["alpha"].events.publish("e")  # must not raise
        cluster3.transport.set_node_down("gamma", down=False)
        cluster3["alpha"].events.publish("e")
        assert seen == []  # subscription was dropped on first failure


class TestCompletListeners:
    def test_delivery_through_reference(self, cluster):
        listener = Listener(_core=cluster["alpha"])
        cluster["alpha"].events.subscribe_complet("app-event", listener)
        cluster["alpha"].events.publish("app-event")
        assert listener.events_seen() == ["app-event"]

    def test_survives_migration(self, cluster):
        """§4.2: complets keep catching their events after they migrate."""
        listener = Listener(_core=cluster["alpha"])
        cluster["alpha"].events.subscribe_complet("app-event", listener)
        cluster.move(listener, "beta")
        cluster["alpha"].events.publish("app-event")
        assert listener.events_seen() == ["app-event"]

    def test_custom_method_name(self, cluster):
        listener = Listener(_core=cluster["alpha"])
        cluster["alpha"].events.subscribe_complet("e", listener, method="on_event")
        cluster["alpha"].events.publish("e")
        assert listener.events_seen() == ["e"]


class TestBuiltinEvents:
    def test_shutdown_event(self, cluster):
        seen = []
        cluster["alpha"].events.subscribe("coreShutdown", seen.append)
        cluster["alpha"].shutdown()
        assert [e.name for e in seen] == ["coreShutdown"]
        assert seen[0].data["core"] == "alpha"

    def test_shutdown_event_reaches_remote_listener(self, cluster):
        seen = []
        cluster["beta"].events.subscribe_remote("alpha", "coreShutdown", seen.append)
        cluster["alpha"].shutdown()
        assert len(seen) == 1

    def test_shutdown_idempotent(self, cluster):
        seen = []
        cluster["alpha"].events.subscribe("coreShutdown", seen.append)
        cluster["alpha"].shutdown()
        cluster["alpha"].shutdown()
        assert len(seen) == 1

    def test_movement_events_data(self, cluster):
        arrived = []
        departed = []
        cluster["beta"].events.subscribe("completArrived", arrived.append)
        cluster["alpha"].events.subscribe("completDeparted", departed.append)
        counter = Counter(0, _core=cluster["alpha"])
        cluster.move(counter, "beta")
        assert arrived[0].data["source"] == "alpha"
        assert departed[0].data["destination"] == "beta"
        assert arrived[0].data["complet"] == str(counter._fargo_target_id)

    def test_published_count(self, cluster):
        before = cluster["alpha"].events.published_count
        cluster["alpha"].events.publish("a")
        cluster["alpha"].events.publish("b")
        assert cluster["alpha"].events.published_count == before + 2


class TestEventObject:
    def test_str_rendering(self):
        event = Event("evt", "core1", 1.5, {"x": 1})
        rendered = str(event)
        assert "evt@core1" in rendered
        assert "x=1" in rendered


class TestRemoteCompletSubscription:
    def test_complet_subscribes_to_remote_core(self, cluster3):
        """§4.2 end to end: a complet at gamma listens to events at alpha,
        registered from gamma's side, surviving its own migration."""
        listener = Listener(_core=cluster3["gamma"], _at="gamma")
        cluster3["gamma"].events.subscribe_complet_at(
            "alpha", "app-event", listener
        )
        cluster3["alpha"].events.publish("app-event")
        assert listener.events_seen() == ["app-event"]
        cluster3.move(listener, "beta")
        cluster3["alpha"].events.publish("app-event")
        assert listener.events_seen() == ["app-event", "app-event"]

    def test_local_fast_path(self, cluster):
        listener = Listener(_core=cluster["alpha"])
        messages = cluster.stats.messages
        cluster["alpha"].events.subscribe_complet_at("alpha", "e", listener)
        assert cluster.stats.messages == messages  # no network involved
        cluster["alpha"].events.publish("e")
        assert listener.events_seen() == ["e"]

    def test_remote_unsubscribe_by_id(self, cluster):
        listener = Listener(_core=cluster["beta"], _at="beta")
        subscription = cluster["beta"].events.subscribe_complet_at(
            "alpha", "e", listener
        )
        cluster["alpha"].events.unsubscribe(subscription)
        cluster["alpha"].events.publish("e")
        assert listener.events_seen() == []
