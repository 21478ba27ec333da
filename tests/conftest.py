"""Shared fixtures: clusters of various sizes over the virtual clock."""

from __future__ import annotations

import os

import pytest

from repro.cluster import forkserver
from repro.cluster.cluster import Cluster
from tests.procfs import children_of


@pytest.fixture
def cluster() -> Cluster:
    """Two Cores, uniform 1 MB/s / 10 ms links."""
    return Cluster(["alpha", "beta"])


@pytest.fixture
def cluster3() -> Cluster:
    return Cluster(["alpha", "beta", "gamma"])


@pytest.fixture
def cluster4() -> Cluster:
    return Cluster(["alpha", "beta", "gamma", "delta"])


@pytest.fixture
def make_cluster():
    """Factory for custom topologies."""

    def factory(names, **kwargs) -> Cluster:
        return Cluster(names, **kwargs)

    return factory


@pytest.fixture
def deploy():
    """Factory for a cluster on a named backend, closed after the test."""
    made: list[Cluster] = []

    def factory(names, transport="sim", **kwargs) -> Cluster:
        made.append(Cluster(names, transport=transport, **kwargs))
        return made[-1]

    yield factory
    for cluster in made:
        cluster.close()


class HeldPosts:
    """Posts of a SimTransport that ``hold`` matches wait in :attr:`queue`
    until :meth:`release`; every other delivery is the transport's own."""

    def __init__(self, post, hold) -> None:
        self._post, self.hold = post, hold
        self.queue: list = []

    def post(self, envelope) -> None:
        if self.hold(envelope):
            self.queue.append(envelope)
        else:
            self._post(envelope)

    def release(self) -> None:
        """Deliver every held post, oldest first."""
        held, self.queue = self.queue, []
        for envelope in held:
            self._post(envelope)


@pytest.fixture
def held_posts(monkeypatch):
    """``held_posts(cluster, hold)``: hold the sim cluster's posts that
    ``hold(envelope)`` matches from now on, for the test to release."""

    def factory(cluster: Cluster, hold) -> HeldPosts:
        held = HeldPosts(cluster.transport.post, hold)
        monkeypatch.setattr(cluster.transport, "post", held.post)
        return held

    return factory


def _template_children() -> set[int]:
    template = forkserver._shared
    if template is None or template.process.poll() is not None:
        return set()
    return children_of(template.process.pid)


@pytest.fixture(autouse=True)
def no_child_core_left_behind(request):
    """A tcp-marked test leaves the process's template no child of its own.

    The template outlives the deployment that started it, so a child Core
    one test forgot would run beside every later test's.  Children that
    were there before the test (a module-scoped deployment) are not its.
    """
    if request.node.get_closest_marker("tcp") is None or not os.path.isdir("/proc/self/fd"):
        yield
        return
    before = _template_children()
    yield
    assert _template_children() <= before, "child Cores outlived the test that started them"
