"""The four workloads, the closed-loop client and the set-up sequence.

Nothing here imports the program: a workload talks to a deployment
object (``sut.Deployment``) and to the stubs it hands out.  The seed
generates payload bytes and itineraries; the program only ever sees the
generated inputs.

Why these four (the table of which layer each one stresses is in
README.md): ``invoke_small`` is all per-message fixed cost;
``invoke_bulk`` is the only one where the store runs; ``move_group``
carries the same bytes inline through the serializer, the framing and
the socket; ``chain_resolve`` is the only one where the reference
handler works.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass, field

KIB = 1024
#: Size of one bulk buffer and of one leaf's state: four times the
#: store's 64 KiB offload threshold.
BLOB_BYTES = 256 * KIB


def payload_pool(seed: int, count: int, size: int) -> list[bytes]:
    """``count`` buffers of ``size`` bytes; a pure function of the seed."""
    rng = random.Random(seed)
    return [rng.randbytes(size) for _ in range(count)]


class Workload:
    """One op definition: ``prepare`` and ``check`` are untimed, ``op`` is timed."""

    name = ""
    #: Deployment shape of the end-to-end run (the traced run uses hubs).
    shape = "procs"
    cores: tuple[str, ...] = ("A",)
    store = False
    #: Fixed number of warm-up ops that belong to the set-up.
    warmup = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # Itineraries and buffer choices draw from their own stream, so
        # they do not depend on how many payload bytes were generated.
        self.rng = random.Random(f"{self.name}/{seed}")
        self.deployment = None

    def populate(self, deployment) -> None:
        self.deployment = deployment

    def prepare(self, index: int) -> None:
        """Untimed work before op ``index``."""

    def op(self, index: int):
        raise NotImplementedError

    def check(self, index: int, result) -> bool:
        raise NotImplementedError


class InvokeSmall(Workload):
    name = "invoke_small"
    cores = ("A",)
    warmup = 2000

    def populate(self, deployment) -> None:
        super().populate(deployment)
        self.stub = deployment.new_target("A")
        self.last = 0

    def op(self, index: int):
        return self.stub.ping()

    def check(self, index: int, result) -> bool:
        rose_by_one = result == self.last + 1
        self.last = result
        return rose_by_one


class InvokeBulk(Workload):
    name = "invoke_bulk"
    shape = "hubs"
    cores = ("A",)
    store = True
    warmup = 100
    #: Fewer buffers than the store client's 32-entry resolve cache.
    pool_size = 8

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.pool = payload_pool(seed, self.pool_size, BLOB_BYTES)
        self.crcs = [zlib.crc32(buffer) for buffer in self.pool]
        self.choice = 0

    def populate(self, deployment) -> None:
        super().populate(deployment)
        self.stub = deployment.new_target("A")

    def prepare(self, index: int) -> None:
        self.choice = self.rng.randrange(self.pool_size)

    def op(self, index: int):
        return self.stub.echo(self.pool[self.choice])

    def check(self, index: int, result) -> bool:
        return len(result) == BLOB_BYTES and zlib.crc32(result) == self.crcs[self.choice]


class MoveGroup(Workload):
    name = "move_group"
    cores = ("A", "B")
    warmup = 50
    leaves = 3

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.blobs = payload_pool(seed, self.leaves, BLOB_BYTES)
        self.crcs = [zlib.crc32(blob) for blob in self.blobs]

    def populate(self, deployment) -> None:
        super().populate(deployment)
        self.root = deployment.new_group("A", self.blobs)
        self.at = "A"

    def op(self, index: int):
        destination = "B" if self.at == "A" else "A"
        self.deployment.move(self.root, destination)
        return destination

    def check(self, index: int, destination) -> bool:
        # The call goes through the driver's stub, so the reply also
        # shortens the driver's tracker before the next op.
        host, members = self.root.report()
        self.at = host
        return host == destination and members == [
            (destination, crc) for crc in self.crcs
        ]


class ChainResolve(Workload):
    name = "chain_resolve"
    cores = ("A", "B", "C", "D")
    warmup = 50

    def populate(self, deployment) -> None:
        super().populate(deployment)
        self.stub = deployment.new_target("A")
        self.host = "A"
        self.last = 0

    def prepare(self, index: int) -> None:
        others = [name for name in self.cores if name != self.host]
        for destination in self.rng.sample(others, len(others)):
            self.deployment.host_move(self.host, self.stub, destination)
            self.host = destination

    def op(self, index: int):
        return self.stub.ping()

    def check(self, index: int, result) -> bool:
        rose_by_one = result == self.last + 1
        self.last = result
        return rose_by_one and self.deployment.tracker_host(self.stub) == self.host


WORKLOADS = {cls.name: cls for cls in (InvokeSmall, InvokeBulk, MoveGroup, ChainResolve)}


@dataclass
class Round:
    """What the closed-loop client saw in one round."""

    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Seconds spent inside timed ops, failed ones included.
    busy: float = 0.0
    #: (op index, start, end) of every correct op, for the span sweep.
    windows: list[tuple[int, float, float]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def fail(self, index: int, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"op {index}: {reason}")


def run_ops(workload, first: int, *, seconds=None, count=None, recorder=None, counters=None):
    """One client, one op in flight, until ``seconds`` pass or ``count`` ops ran.

    FarGo callers block on a reply, so the loop is closed.  With a
    ``recorder`` the op index is published around the timed region so
    wrapped callables record spans; ``counters`` (a callable returning a
    dict) is read before and after each op and the deltas are summed.
    Returns ``(round, counter deltas)``.
    """
    result = Round()
    deltas: dict[str, float] = {}
    clock = time.perf_counter
    deadline = clock() + seconds if seconds is not None else None
    index = first
    while True:
        if count is not None and result.attempted >= count:
            break
        if deadline is not None and clock() >= deadline:
            break
        workload.prepare(index)
        before = counters() if counters is not None else None
        if recorder is not None:
            recorder.op = index
        start = clock()
        try:
            value = workload.op(index)
            error = None
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            error = exc
        end = clock()
        if recorder is not None:
            recorder.op = -1
        result.attempted += 1
        result.busy += end - start
        if before is not None:
            for key, after in counters().items():
                deltas[key] = deltas.get(key, 0.0) + after - before[key]
        if error is not None:
            result.fail(index, repr(error))
        else:
            try:
                correct = workload.check(index, value)
            except Exception as exc:  # noqa: BLE001 - a check that cannot run fails the op
                correct = False
                result.fail(index, f"check raised {exc!r}")
            else:
                if not correct:
                    result.fail(index, "wrong output")
            if correct:
                result.latencies.append(end - start)
                result.windows.append((index, start, end))
        index += 1
    return result, deltas


@dataclass(frozen=True)
class SetUp:
    """Seconds one set-up took, by part; the parts are adjacent, so they
    add up to the time from nothing running to the first measured op."""

    bring_up: float
    populate: float
    warm_up: float

    @property
    def total(self) -> float:
        return self.bring_up + self.populate + self.warm_up


def set_up(workload_cls, seed: int, make_deployment, *, traced: bool = False):
    """Bring-up, populate and the fixed-count warm-up; returns what it took.

    Everything between "nothing running" and "the first measured op may
    start" is inside the timed region, so work moved from the op into
    set-up shows in ``setup_s``.  Returns ``(workload, SetUp)``.
    """
    clock = time.perf_counter
    start = clock()
    workload = workload_cls(seed)
    shape = "hubs" if traced else workload.shape
    deployment = make_deployment(shape, list(workload.cores), workload.store)
    up = clock()
    try:
        workload.populate(deployment)
        populated = clock()
        warm, _ = run_ops(workload, 0, count=workload.warmup)
        if warm.failed:
            raise RuntimeError(f"warm-up of {workload.name} failed: {warm.errors}")
    except BaseException:
        deployment.close()
        raise
    return workload, SetUp(up - start, populated - up, clock() - populated)
