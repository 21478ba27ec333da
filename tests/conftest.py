"""Shared fixtures: clusters of various sizes over the virtual clock."""

from __future__ import annotations

import os

import pytest

from repro.cluster import launch
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


def _template_children() -> set[int]:
    template = launch._shared
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
