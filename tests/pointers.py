"""Pointer bookkeeping, looked at from outside: the sets, their invariant, settling."""

import time

import pytest

from repro.core.locator import LocationRegistry


def pointer_set_violations(cores) -> list[str]:
    """Where the reference graph of ``cores`` and its remote-pointer sets disagree.

    A tracker P whose next hop is a tracker T of one of ``cores`` must be in
    T's ``remote_pointers``; every address in a set that names a Core of
    ``cores`` must be a tracker there whose next hop is the set's tracker.
    Addresses at other Cores are not looked at.
    """
    trackers = {
        (core.name, tracker.tracker_id.serial): tracker
        for core in cores
        for tracker in core.repository.trackers()
    }
    names = {core.name for core in cores}
    violations = []
    for tracker in trackers.values():
        hop = tracker.next_hop
        if hop is not None and hop.core in names:
            pointee = trackers.get((hop.core, hop.serial))
            if pointee is None or tracker.address not in pointee.remote_pointers:
                violations.append(f"{tracker!r} is not in the pointer set of {hop}")
        for pointer in tuple(tracker.remote_pointers):  # one-way updates land meanwhile
            if pointer.core not in names:
                continue
            holder = trackers.get((pointer.core, pointer.serial))
            if holder is None or holder.next_hop != tracker.address:
                violations.append(
                    f"{tracker!r} lists {pointer}, which points elsewhere: {holder!r}"
                )
    return violations


#: Each scenario below runs on the simulated network and, as its ``tcp``
#: twin, on the in-process TCP hub; both must count the same messages.
BACKENDS = ["sim", pytest.param("tcp", marks=pytest.mark.tcp)]

#: Locating strategies: tracker chains (``eager``, the default) and the
#: location registry.
MODES = {
    "eager": {},
    "registry": {"locator": LocationRegistry},
}


def eventually(condition, within: float = 5.0) -> bool:
    """``condition()``, polled until true for up to ``within`` seconds.

    Immediate on the simulated network; over TCP the updates that are
    still posted are one-way and land a little later.
    """
    deadline = time.monotonic() + within
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)
    return condition()


def pointer_sets(cluster) -> dict[str, list[str]]:
    return {
        str(tracker.address): sorted(map(str, tuple(tracker.remote_pointers)))
        for core in cluster.cores.values()
        for tracker in core.repository.trackers()
    }


def settle(cluster, stub) -> None:
    """Wait for what the set-up posted: pointer updates, a location update."""
    assert eventually(lambda: not pointer_set_violations(cluster.cores.values()))
    target = stub._fargo_target_id
    if isinstance(cluster.seat.locator, LocationRegistry):
        home, host = cluster[target.birth_core], cluster.find_host(target)

        def published() -> bool:
            record = home.locator.resolve(target)
            return (record.core if record is not None else target.birth_core) == host

        assert eventually(published)


def kinds(cluster) -> dict[str, int]:
    return {kind.name: count for kind, count in cluster.stats.by_kind.items() if count}
