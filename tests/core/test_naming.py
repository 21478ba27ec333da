"""Tests for the naming service."""

import pytest

from repro.errors import NameAlreadyBoundError, NameNotFoundError
from repro.cluster.workload import Counter, Echo


class TestLocalTable:
    def test_bind_and_lookup(self, cluster):
        echo = Echo("x", _core=cluster["alpha"])
        cluster["alpha"].bind("the-echo", echo)
        found = cluster["alpha"].lookup("the-echo")
        assert found.ping() == "x"

    def test_double_bind_rejected(self, cluster):
        echo = Echo("x", _core=cluster["alpha"])
        cluster["alpha"].bind("n", echo)
        with pytest.raises(NameAlreadyBoundError):
            cluster["alpha"].bind("n", echo)

    def test_replace_allowed(self, cluster):
        a = Echo("a", _core=cluster["alpha"])
        b = Echo("b", _core=cluster["alpha"])
        cluster["alpha"].bind("n", a)
        cluster["alpha"].bind("n", b, replace=True)
        assert cluster["alpha"].lookup("n").ping() == "b"

    def test_unbind(self, cluster):
        echo = Echo("x", _core=cluster["alpha"])
        naming = cluster["alpha"].naming
        naming.bind("n", echo)
        naming.unbind("n")
        with pytest.raises(NameNotFoundError):
            naming.lookup("n")

    def test_unbind_missing_rejected(self, cluster):
        with pytest.raises(NameNotFoundError):
            cluster["alpha"].naming.unbind("ghost")

    def test_names_sorted(self, cluster):
        echo = Echo("x", _core=cluster["alpha"])
        naming = cluster["alpha"].naming
        naming.bind("zz", echo)
        naming.bind("aa", echo)
        assert naming.names() == ["aa", "zz"]
        assert len(naming) == 2


class TestRemoteAccess:
    def test_lookup_at(self, cluster):
        echo = Echo("findme", _core=cluster["alpha"])
        cluster["alpha"].bind("svc", echo)
        found = cluster["beta"].naming.lookup_at("alpha", "svc")
        assert found.ping() == "findme"
        # The returned stub is wired to beta, not alpha.
        assert found._fargo_core is cluster["beta"]

    def test_bind_at(self, cluster):
        echo = Echo("x", _core=cluster["alpha"])
        cluster["alpha"].naming.bind_at("beta", "remote-name", echo)
        assert "remote-name" in cluster["beta"].naming.names()
        assert cluster["beta"].lookup("remote-name").ping() == "x"

    def test_unbind_at(self, cluster):
        echo = Echo("x", _core=cluster["alpha"])
        cluster["alpha"].naming.bind_at("beta", "n", echo)
        cluster["alpha"].naming.unbind_at("beta", "n")
        assert cluster["beta"].naming.names() == []

    def test_names_at(self, cluster):
        echo = Echo("x", _core=cluster["beta"], _at="beta")
        cluster["beta"].bind("b-name", echo)
        assert cluster["alpha"].naming.names_at("beta") == ["b-name"]

    def test_lookup_at_missing(self, cluster):
        with pytest.raises(NameNotFoundError):
            cluster["alpha"].naming.lookup_at("beta", "ghost")


class TestClusterWideLookup:
    def test_lookup_anywhere_prefers_local(self, cluster):
        local = Echo("local", _core=cluster["alpha"])
        remote = Echo("remote", _core=cluster["beta"], _at="beta")
        cluster["alpha"].bind("svc", local)
        cluster["beta"].bind("svc", remote)
        assert cluster["alpha"].naming.lookup_anywhere("svc").ping() == "local"

    def test_lookup_anywhere_searches_remote(self, cluster3):
        echo = Echo("x", _core=cluster3["gamma"], _at="gamma")
        cluster3["gamma"].bind("hidden", echo)
        found = cluster3["alpha"].naming.lookup_anywhere("hidden")
        assert found.ping() == "x"

    def test_lookup_anywhere_missing(self, cluster):
        with pytest.raises(NameNotFoundError):
            cluster["alpha"].naming.lookup_anywhere("nowhere")

    def test_lookup_anywhere_skips_dead_cores(self, cluster3):
        echo = Echo("x", _core=cluster3["gamma"], _at="gamma")
        cluster3["gamma"].bind("svc", echo)
        cluster3.transport.set_node_down("beta")
        found = cluster3["alpha"].naming.lookup_anywhere("svc")
        assert found.ping() == "x"


class TestNamesFollowMovement:
    def test_binding_tracks_moved_complet(self, cluster):
        """A name keeps resolving after its complet migrates."""
        counter = Counter(0, _core=cluster["alpha"])
        cluster["alpha"].bind("ctr", counter)
        cluster.move(counter, "beta")
        found = cluster["alpha"].lookup("ctr")
        assert found.increment() == 1

    def test_remote_lookup_of_moved_complet(self, cluster3):
        counter = Counter(0, _core=cluster3["alpha"])
        cluster3["alpha"].bind("ctr", counter)
        cluster3.move(counter, "gamma")
        found = cluster3["beta"].naming.lookup_at("alpha", "ctr")
        assert found.increment() == 1
