"""Tests for the task-farm sample application."""

import pytest

from repro.analysis.layout import Threshold
from repro.apps.taskfarm import Farm, FarmWorker, TaskQueue
from repro.cluster.cluster import Cluster


def _place(farm: Farm) -> Threshold:
    """The farm's adaptive policy: a worker over 1 kB/s on a link under
    500 kB/s joins the queue."""
    return Threshold(farm.workers, farm.queue, rate=1_000.0, bandwidth=500_000.0).attach(
        farm.cluster
    )


@pytest.fixture
def farm_cluster():
    return Cluster(["hub", "edge1", "edge2"], bandwidth=1_000_000.0)


class TestQueueComplet:
    def test_put_take_report_cycle(self, farm_cluster):
        queue = TaskQueue(_core=farm_cluster["hub"])
        assert queue.put(b"abc", copies=3) == 3
        batch = queue.take(2)
        assert [task_id for task_id, _payload in batch] == [0, 1]
        queue.report(0, 42)
        assert queue.remaining() == 1
        assert queue.completed_count() == 1

    def test_take_more_than_available(self, farm_cluster):
        queue = TaskQueue(_core=farm_cluster["hub"])
        queue.put(b"x", copies=2)
        assert len(queue.take(10)) == 2
        assert queue.take(1) == []


class TestWorkerComplet:
    def test_step_processes_batch(self, farm_cluster):
        queue = TaskQueue(_core=farm_cluster["hub"])
        queue.put(b"abc", copies=5)
        worker = FarmWorker(queue, 2, _core=farm_cluster["edge1"], _at="edge1")
        assert worker.step() == 2
        assert worker.done_so_far() == 2
        assert queue.completed_count() == 2

    def test_results_are_deterministic(self, farm_cluster):
        queue = TaskQueue(_core=farm_cluster["hub"])
        queue.put(b"abc", copies=2)
        worker = FarmWorker(queue, 2, _core=farm_cluster["hub"])
        worker.step()
        results = queue.results()
        assert results[0] == results[1] == sum(b"abc") % 65_521


class TestFarm:
    def test_drains_the_queue(self, farm_cluster):
        farm = Farm(farm_cluster, "hub", ["edge1", "edge2"], batch=3)
        farm.submit(payload_size=512, count=30)
        makespan = farm.run_until_drained()
        assert farm.queue.remaining() == 0
        assert farm.queue.completed_count() == 30
        assert makespan > 0

    def test_workers_share_the_load(self, farm_cluster):
        farm = Farm(farm_cluster, "hub", ["edge1", "edge2"], batch=5)
        farm.submit(payload_size=128, count=20)
        farm.run_until_drained()
        done = [w.done_so_far() for w in farm.workers]
        assert sum(done) == 20
        assert all(d > 0 for d in done)

    def test_adaptive_placement_colocates_on_slow_link(self, farm_cluster):
        farm = Farm(farm_cluster, "hub", ["edge1"], batch=4)
        solver = _place(farm)
        farm_cluster.set_link("hub", "edge1", bandwidth=100_000.0)
        farm.submit(payload_size=4_096, count=40)
        farm.run_until_drained()
        assert farm.cluster.locate(farm.workers[0]) == "hub"
        (report,) = farm_cluster.layout_history
        assert report.solver == solver.name
        assert report.trigger.startswith("byteRate = ")
        assert [(m.source, m.destination) for m in report.committed] == [("edge1", "hub")]
        assert report.bytes_moved > 0 and report.seconds > 0

    def test_no_relocation_on_fast_link(self, farm_cluster):
        farm = Farm(farm_cluster, "hub", ["edge1"], batch=4)
        _place(farm)
        farm.submit(payload_size=4_096, count=40)
        farm.run_until_drained()
        assert farm.cluster.locate(farm.workers[0]) == "edge1"
        assert list(farm_cluster.layout_history) == []

    def test_adaptive_beats_static_on_slow_link(self):
        def makespan(adaptive: bool) -> float:
            cluster = Cluster(["hub", "edge1"], bandwidth=80_000.0)
            farm = Farm(cluster, "hub", ["edge1"], batch=4)
            if adaptive:
                _place(farm)
            farm.submit(payload_size=8_192, count=40)
            return farm.run_until_drained()

        assert makespan(adaptive=True) < makespan(adaptive=False)

    def test_progress_report(self, farm_cluster):
        farm = Farm(farm_cluster, "hub", ["edge1", "edge2"])
        farm.submit(payload_size=128, count=8)
        farm.round()
        progress = farm.progress()
        assert progress["completed"] == 8
        assert progress["worker_locations"] == ["edge1", "edge2"]
