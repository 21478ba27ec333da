"""A bag-of-tasks farm.

A :class:`TaskQueue` complet holds work items; :class:`FarmWorker`
complets pull batches through a complet reference, process them, and
report results back.  The :class:`Farm` driver deploys the pieces across
a cluster.  Where they run is a layout policy's business, not the
farm's: ``Threshold(farm.workers, farm.queue, rate=..., bandwidth=...)``
(:mod:`repro.analysis.layout`) moves a worker hauling task bytes over a
slow link next to the queue, the colocate-or-spread policy of §4.1.

Everything here uses only public surface (anchors, stubs, ``Core``
methods), so the module doubles as an end-to-end usage example of the
library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.complet.anchor import Anchor
from repro.complet.stub import Stub, compile_complet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster


class TaskQueue_(Anchor):
    """Work-item store: tasks in, results tallied."""

    def __init__(self) -> None:
        self.pending: list[tuple[int, bytes]] = []
        self.completed: dict[int, int] = {}
        self._next_task_id = 0

    def put(self, payload: bytes, copies: int = 1) -> int:
        """Enqueue ``copies`` tasks with the given payload; returns count."""
        for _ in range(copies):
            self.pending.append((self._next_task_id, payload))
            self._next_task_id += 1
        return len(self.pending)

    def take(self, count: int = 1) -> list[tuple[int, bytes]]:
        """Hand out up to ``count`` tasks (removed from the queue)."""
        batch, self.pending = self.pending[:count], self.pending[count:]
        return batch

    def report(self, task_id: int, digest: int) -> None:
        self.completed[task_id] = digest

    def remaining(self) -> int:
        return len(self.pending)

    def completed_count(self) -> int:
        return len(self.completed)

    def results(self) -> dict[int, int]:
        return self.completed


class FarmWorker_(Anchor):
    """Pulls task batches through its queue reference and processes them."""

    def __init__(self, queue, batch: int = 4) -> None:
        self.queue = queue
        self.batch = batch
        self.processed = 0

    def step(self) -> int:
        """One scheduling round: take, process, report.  Returns #done."""
        tasks = self.queue.take(self.batch)
        for task_id, payload in tasks:
            digest = sum(payload) % 65_521  # the "computation"
            self.queue.report(task_id, digest)
            self.processed += 1
        return len(tasks)

    def done_so_far(self) -> int:
        return self.processed


TaskQueue = compile_complet(TaskQueue_)
FarmWorker = compile_complet(FarmWorker_)


@dataclass
class Farm:
    """Driver: deploy a queue and workers; ``worker_homes`` names the
    Core for each worker."""

    cluster: "Cluster"
    queue_home: str
    worker_homes: list[str]
    batch: int = 4
    queue: Stub = field(init=False)
    workers: list[Stub] = field(init=False)

    def __post_init__(self) -> None:
        self.queue = TaskQueue(_core=self.cluster.core(self.queue_home))
        self.workers = [
            FarmWorker(self.queue, self.batch, _core=self.cluster.core(home), _at=home)
            for home in self.worker_homes
        ]

    # -- workload -----------------------------------------------------------------

    def submit(self, payload_size: int, count: int) -> None:
        self.queue.put(bytes(range(256)) * (payload_size // 256 + 1), copies=count)

    def round(self) -> int:
        """Every worker takes one step; returns tasks completed."""
        done = 0
        for worker in self.workers:
            handle = self.cluster.stub_at(self.cluster.locate(worker), worker)
            done += handle.step()
        return done

    def run_until_drained(self, *, seconds_per_round: float = 1.0, max_rounds: int = 1_000) -> float:
        """Drive rounds until the queue is empty; returns virtual makespan."""
        start = self.cluster.now
        for _ in range(max_rounds):
            if self.queue.remaining() == 0:
                break
            self.round()
            self.cluster.advance(seconds_per_round)
        return self.cluster.now - start

    # -- reporting ---------------------------------------------------------------------------

    def progress(self) -> dict:
        return {
            "remaining": self.queue.remaining(),
            "completed": self.queue.completed_count(),
            "worker_locations": [self.cluster.locate(w) for w in self.workers],
        }
