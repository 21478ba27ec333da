"""Experiment R1 — failure detection latency and recovery cost.

The recovery stack's two time budgets, measured on the virtual clock
and on the wall clock:

- *detection latency*: virtual seconds from a Core's crash to the first
  surviving detector publishing ``coreFailed`` — bounded by
  ``fail_after`` plus one heartbeat interval;
- *recovery time*: the wall cost of one :meth:`RecoveryManager.
  recover_core` pass as the checkpointed state grows (the pass is
  dominated by deserializing the stored snapshots);
- *checkpoint cost*: the wall cost of a full checkpoint pass vs the
  protected complets' payload size, with the bytes the store holds.
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.failures import FailureInjector
from repro.cluster.workload import DataSource
from repro.core.events import CORE_FAILED
from repro.recovery import CheckpointPolicy, DetectorConfig
from repro.sim.clock import forbid_real_clocks
from benchmarks.conftest import print_table


def _recovery_cluster(config=None):
    cluster = Cluster(["a", "b", "c"])
    cluster.enable_recovery(detector=config, auto_recover=False)
    return cluster


def test_detection_latency(benchmark):
    """Virtual crash-to-verdict latency across detector configurations."""
    rows = []
    # The latencies reported here are virtual-clock quantities; the ban
    # guarantees no wall clock can leak into them.
    with forbid_real_clocks():
        for interval, fail_after in ((0.2, 0.6), (0.5, 1.5), (0.5, 3.0), (1.0, 5.0)):
            config = DetectorConfig(
                interval=interval, suspect_after=fail_after / 2, fail_after=fail_after
            )
            cluster = _recovery_cluster(config)
            verdicts = []
            cluster["b"].events.subscribe(
                CORE_FAILED, lambda event: verdicts.append(cluster.now)
            )
            crash_at = 2.0
            FailureInjector(cluster).crash_core_at(crash_at, "a")
            cluster.advance(crash_at + fail_after + 2 * interval + 0.1)
            assert verdicts, "no coreFailed verdict within the bound"
            latency = verdicts[0] - crash_at
            assert latency <= fail_after + interval + 1e-9
            rows.append((interval, fail_after, round(latency, 3)))
    print_table(
        "R1: detection latency vs detector config (virtual s)",
        ["interval", "fail_after", "latency"],
        rows,
    )
    benchmark(lambda: None)


@pytest.mark.parametrize("payload", [256, 4_096, 65_536])
def test_recovery_pass_cost(benchmark, payload):
    """Wall cost of recover_core as checkpointed state grows."""

    def setup():
        cluster = _recovery_cluster()
        for _ in range(4):
            source = DataSource(payload, _core=cluster["a"], _at="a")
            cluster.checkpoints.protect(source)
        cluster.transport.set_node_down("a")
        return (cluster,), {}

    def recover(cluster):
        cluster.recovery.recover_core("a")

    benchmark.pedantic(recover, setup=setup, rounds=10)


def test_checkpoint_pass_cost(benchmark):
    """Wall cost and stored bytes of a full checkpoint pass."""
    rows = []
    with forbid_real_clocks():  # stored-bytes figures must be wall-free
        for payload in (256, 4_096, 65_536):
            cluster = _recovery_cluster()
            for _ in range(8):
                DataSource(payload, _core=cluster["a"], _at="a")
            for anchor_id in list(cluster["a"].repository.complet_ids()):
                cluster.checkpoints.protect(anchor_id, CheckpointPolicy())
            stored = sum(
                len(cluster.checkpoints.store.get(complet_id).snapshot.stream)
                for complet_id in cluster.checkpoints.store.ids()
            )
            rows.append((payload, len(cluster.checkpoints.store), stored))
    print_table(
        "R1: checkpoint store vs payload size (8 complets)",
        ["payload B", "records", "stored B"],
        rows,
    )

    cluster = _recovery_cluster()
    for _ in range(8):
        DataSource(4_096, _core=cluster["a"], _at="a")
    for anchor_id in list(cluster["a"].repository.complet_ids()):
        cluster.checkpoints.protect(anchor_id, CheckpointPolicy())
    benchmark(cluster.checkpoints.checkpoint_all)
