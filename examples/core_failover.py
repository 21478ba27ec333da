"""Scripted failover: a layout rule that recovers a crashed Core.

The recovery stack in three layers, driven entirely by a layout script:

- a :class:`~repro.recovery.FailureDetector` on every Core heartbeats
  its peers and publishes ``coreSuspected`` / ``coreFailed`` verdicts;
- a :class:`~repro.recovery.Checkpointer` on every Core keeps the
  latest state of each complet it hosts in the cluster checkpoint store;
- the script's ``on coreFailed`` rule calls the ``failover`` action,
  which restores the dead Core's checkpointed complets on a survivor
  (automatic recovery is switched *off* — the administrator's script is
  the policy here, exactly like the paper's §4.3 reliability rule).

The script is verified with the static analyzer before it is attached:
``failover()`` without arguments only type-checks inside an
``on coreFailed`` rule (FG111).

Run:  python examples/core_failover.py
"""

from repro import Cluster
from repro.analysis import check_script, render_text
from repro.cluster.failures import FailureInjector
from repro.cluster.workload import Counter
from repro.recovery import DetectorConfig
from repro.script import ScriptEngine

FAILOVER_SCRIPT = """\
on coreFailed firedby $c do
  call failover()
end
"""


def main() -> None:
    cluster = Cluster(["alpha", "beta", "gamma"])
    recovery = cluster.enable_recovery(
        detector=DetectorConfig(interval=0.5, fail_after=3.0),
        auto_recover=False,  # the script, not the manager, decides
    )

    # Lint the script before attaching it (FG1xx family).
    diagnostics = check_script(FAILOVER_SCRIPT)
    print(render_text(diagnostics) or "script lints clean")

    engine = ScriptEngine(cluster, home="alpha")
    engine.run(FAILOVER_SCRIPT)

    # The deployed application: one counter on the Core that is about to
    # die.  Gamma's checkpointer sweeps it every second, which keeps its
    # state restorable.
    counter = Counter(40, _core=cluster["gamma"], _at="gamma")
    counter.increment(by=2)
    print(f"counter lives at {cluster.locate(counter)}, value {counter.read()}")

    # Crash gamma at t=2; the detectors need fail_after=3s of silence.
    inject = FailureInjector(cluster)
    inject.crash_core_at(2.0, "gamma")
    print("\ncrashing gamma at t=2.0 ...")
    cluster.advance(7.0)

    print(f"t={cluster.now:.1f}: script log:")
    for line in engine.log:
        print(f"  {line}")
    for at, line in recovery.log:
        print(f"  t={at:.1f} {line}")

    # A reference held by a survivor reaches the revival: the recovery
    # pass repaired beta's trackers and republished the location.
    fresh = cluster.stub_at("beta", counter)
    print(f"\ncounter now lives at {cluster.locate(fresh)}, "
          f"value survived: {fresh.read()}")


if __name__ == "__main__":
    main()
