"""Schedules on the simulated network with chosen posts held back.

A sim post runs its handler as a nested call, so no default run lets a
post land after a later send.  The ``held_posts`` fixture
(tests/conftest.py) queues the posts it is told to and delivers them when
the test says, which makes such an order one deterministic schedule.
"""

from repro.cluster.cluster import Cluster
from repro.cluster.workload import Counter
from repro.net.messages import MessageKind
from repro.net.serializer import PLAIN


def registration(envelope) -> bool:
    """A TRACKER_UPDATE that registers a pointer (its body ends in ``register``)."""
    return envelope.kind is MessageKind.TRACKER_UPDATE and PLAIN.loads(envelope.payload)[3]


def test_a_sweep_cannot_overtake_an_alias_registration(held_posts):
    """An alias at c registers at b's tracker; the complet then moves from b
    to the seat and a sweep runs before any held post lands.  A registration
    is answered, so none is held and b's tracker stays for the alias."""
    cluster = Cluster(["a", "b", "c"])
    assert cluster.seat.name == "a"
    r0 = Counter(0, _core=cluster.seat, _at="b")
    held = held_posts(cluster, registration)
    r1 = cluster.stub_at("c", r0)
    cluster.move(r0, "a")
    cluster.collect_all_trackers()
    held.release()
    assert r1.increment(1) == 1
