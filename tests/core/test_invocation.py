"""Tests for the invocation unit: parameter passing semantics (§3.1)."""

import pytest

from repro.errors import NoSuchMethodError
from repro.cluster.workload import Counter, Echo
from tests.anchors import Failing, Holder, SelfRef, Spawner


class TestByValuePassing:
    def test_arguments_copied_even_when_colocated(self, cluster):
        """Complets are always mutually remote w.r.t. parameter passing."""
        echo = Echo("e", _core=cluster["alpha"])
        payload = {"list": [1, 2]}
        returned = echo.echo(payload)
        assert returned == payload
        assert returned is not payload
        # Mutating the original after the call cannot affect the complet.
        payload["list"].append(3)
        assert echo.echo({"probe": 1}) == {"probe": 1}

    def test_results_copied(self, cluster):
        echo = Echo("e", _core=cluster["alpha"])
        a = echo.echo({"k": [1]})
        b = echo.echo({"k": [1]})
        assert a == b
        assert a is not b

    def test_remote_arguments_copied(self, cluster):
        echo = Echo("e", _core=cluster["alpha"])
        cluster.move(echo, "beta")
        data = {"nested": {"deep": [1, 2, 3]}}
        assert echo.echo(data) == data

    def test_kwargs_supported(self, cluster):
        source = Counter(0, _core=cluster["alpha"])
        assert source.increment(by=10) == 10

    def test_large_payload_roundtrip(self, cluster):
        echo = Echo("e", _core=cluster["alpha"])
        cluster.move(echo, "beta")
        blob = bytes(range(256)) * 1000
        assert echo.echo(blob) == blob


class TestByReferencePassing:
    def test_stub_argument_passes_by_reference(self, cluster):
        """An anchor parameter arrives as a reference to the SAME complet."""
        counter = Counter(0, _core=cluster["alpha"])
        holder = Holder(_core=cluster["beta"], _at="beta")
        holder.set_ref(counter)
        # The holder's reference manipulates the original complet:
        cluster["beta"].repository.get(holder._fargo_target_id).ref.increment()
        assert counter.read() == 1

    def test_reference_degraded_to_link(self, cluster):
        """§3.1: a passed reference arrives with the default link type."""
        from repro.complet.relocators import Pull
        from repro.core.core import Core

        counter = Counter(0, _core=cluster["alpha"])
        Core.get_meta_ref(counter).set_relocator(Pull())
        holder = Holder(_core=cluster["beta"], _at="beta")
        holder.set_ref(counter)
        received = cluster["beta"].repository.get(holder._fargo_target_id).ref
        assert Core.get_meta_ref(received).type_name == "link"

    def test_result_reference_by_reference(self, cluster):
        counter = Counter(0, _core=cluster["alpha"])
        holder = Holder(counter, _core=cluster["alpha"])
        returned = holder.get_ref()
        returned.increment()
        assert counter.read() == 1

    def test_anchor_self_passing(self, cluster):
        """A complet passing its own anchor sends a reference to itself."""
        selfref = SelfRef(_core=cluster["alpha"])
        selfref.adopt_self(selfref)
        assert selfref.through_self("ping") == "ping"

    def test_object_graph_copied_without_complets(self, cluster):
        """§3.1: a graph containing references is copied, the complets are not."""
        counter = Counter(0, _core=cluster["alpha"])
        echo = Echo("e", _core=cluster["beta"], _at="beta")
        graph = {"notes": [1, 2], "ref": counter}
        returned = echo.echo(graph)
        assert returned["notes"] == [1, 2]
        returned["ref"].increment()
        assert counter.read() == 1  # same complet behind the copied graph

    def test_shared_stub_stays_shared(self, cluster):
        counter = Counter(0, _core=cluster["alpha"])
        echo = Echo("e", _core=cluster["beta"], _at="beta")
        returned = echo.echo({"a": counter, "b": counter})
        assert returned["a"] is returned["b"]


class TestExceptions:
    def test_exception_propagates_locally(self, cluster):
        failing = Failing(_core=cluster["alpha"])
        with pytest.raises(ValueError, match="boom from complet"):
            failing.boom()

    def test_exception_propagates_remotely(self, cluster):
        failing = Failing(_core=cluster["alpha"])
        cluster.move(failing, "beta")
        with pytest.raises(ValueError, match="boom from complet"):
            failing.boom()

    def test_exception_type_preserved(self, cluster):
        failing = Failing(_core=cluster["alpha"])
        cluster.move(failing, "beta")
        with pytest.raises(KeyError):
            failing.custom()

    def test_unknown_method_rejected(self, cluster):
        echo = Echo("e", _core=cluster["alpha"])
        with pytest.raises(NoSuchMethodError):
            echo._fargo_invoke("not_a_method", (), {})

    def test_private_method_rejected(self, cluster):
        echo = Echo("e", _core=cluster["alpha"])
        with pytest.raises(NoSuchMethodError):
            echo._fargo_invoke("_complet_id", (), {})


    def test_a_served_call_looks_its_method_up_once(self, cluster, monkeypatch):
        from repro.core import invocation

        lookups = []
        getattr_static = invocation.getattr_static
        monkeypatch.setattr(
            invocation, "getattr_static",
            lambda cls, name: lookups.append(name) or getattr_static(cls, name),
        )
        echo = Echo("e", _core=cluster["alpha"])
        cluster.move(echo, "beta")
        del lookups[:]
        assert echo.ping() == "e"
        assert lookups == ["ping"]


class TestNestedInvocation:
    def test_complet_calls_complet(self, cluster):
        echo = Echo("deep", _core=cluster["beta"], _at="beta")
        holder = Holder(echo, _core=cluster["alpha"])
        assert holder.call_ref() == "deep"

    def test_complet_instantiates_complet(self, cluster):
        spawner = Spawner(_core=cluster["alpha"])
        new_echo = spawner.spawn_echo("child")
        assert new_echo.ping() == "child"
        assert cluster.locate(new_echo) == "alpha"

    def test_complet_instantiates_remotely(self, cluster):
        spawner = Spawner(_core=cluster["alpha"])
        new_echo = spawner.spawn_remote_echo("far-child", "beta")
        assert new_echo.ping() == "far-child"
        assert cluster.locate(new_echo) == "beta"


class TestAccounting:
    def test_executed_counter(self, cluster):
        echo = Echo("e", _core=cluster["alpha"])
        before = cluster["alpha"].invocation.executed
        echo.ping()
        echo.ping()
        assert cluster["alpha"].invocation.executed == before + 2

    def test_invocation_charges_virtual_time_remote(self, cluster):
        echo = Echo("e", _core=cluster["alpha"])
        cluster.move(echo, "beta")
        t0 = cluster.now
        echo.ping()
        assert cluster.now > t0

    def test_local_invocation_is_free_of_network(self, cluster):
        echo = Echo("e", _core=cluster["alpha"])
        messages_before = cluster.stats.messages
        echo.ping()
        assert cluster.stats.messages == messages_before
