"""An adaptive task farm: a complete application on the public API.

A TaskQueue complet at the hub holds a bag of tasks; FarmWorker complets
at the edges pull batches through complet references.  When a worker's
link to the hub degrades, a Threshold layout solver (a monitor watch per
worker, a plan through the checked executor) relocates that worker next
to the queue — and the makespan shows why.  The cluster's layout journal
says which moves it made and what they cost.

Run:  python examples/task_farm.py
"""

from repro import Cluster, FailureInjector
from repro.analysis.layout import Threshold
from repro.apps.taskfarm import Farm


def run(adaptive: bool) -> tuple[float, float, list[str]]:
    cluster = Cluster(["hub", "edge1", "edge2"], bandwidth=1_000_000.0, latency=0.01)
    farm = Farm(cluster, "hub", ["edge1", "edge2"], batch=4)
    if adaptive:
        Threshold(farm.workers, farm.queue, rate=5_000.0, bandwidth=500_000.0).attach(cluster)
    # edge1's uplink collapses shortly after the run starts.
    inject = FailureInjector(cluster)
    inject.degrade_link_at(3.0, "hub", "edge1", bandwidth=20_000.0)

    farm.submit(payload_size=8_192, count=60)
    cluster.reset_stats()
    makespan = farm.run_until_drained()
    relocations = [
        f"{step.source}->{step.destination} ({report.bytes_moved} B)"
        for report in cluster.layout_history
        for step in report.committed
    ]
    return makespan, cluster.stats.seconds, relocations


def main() -> None:
    adaptive_makespan, adaptive_net, relocations = run(adaptive=True)
    static_makespan, static_net, _ = run(adaptive=False)
    print("task farm: 60 tasks x 8 KB, edge1's uplink degrades at t=3")
    print(
        f"  static placement:   makespan {static_makespan:6.1f} s, "
        f"network time {static_net:6.2f} s"
    )
    print(
        f"  adaptive placement: makespan {adaptive_makespan:6.1f} s, "
        f"network time {adaptive_net:6.2f} s   "
        f"(relocations: {', '.join(relocations) or 'none'})"
    )
    saving = (1 - adaptive_net / static_net) * 100
    print(f"  adaptive placement cut network time by {saving:.0f}%")


if __name__ == "__main__":
    main()
