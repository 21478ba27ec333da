"""Seeded chaos harness for the recovery layer.

A :class:`ChaosRun` builds a cluster with recovery enabled, protects one
stateful complet per Core, and replays a *seeded* schedule of crashes,
link outages, and partitions (via :class:`~repro.cluster.failures.FailureInjector`)
while a request driver keeps calling the complets.  Everything runs on
the virtual clock from a :class:`random.Random` seed, so a run is fully
deterministic: the same seed always produces the same schedule, the same
detector verdicts, and the same recovery decisions.

Invariants checked throughout the run:

- **no duplicate identities** — a complet identity hosted by two up
  Cores at two consecutive checks is a violation (one check of grace
  covers the documented revive-then-reconcile window);
- **typed failures only** — every driver request either completes or
  raises a :class:`~repro.errors.FarGoError` subclass; anything else is
  a violation;
- **no trackers into the grave** — at the end of every recovery pass, no
  surviving Core's tracker for a relocated complet still forwards to the
  dead Core (a synchronous post-condition recorded per report; stale
  references minted *later* are out of scope — they resolve through the
  registry or fail typed);
- **full recovery** — once every injected failure has healed and the
  detectors have settled, every protected complet answers requests
  again, through its original pre-chaos stub.

Run from the command line (exits non-zero on any violation)::

    python -m repro.cluster.chaos --seeds 1,2,3 --trace chaos_trace.json

Both runs hold their deployment through the one handle, a
:class:`~repro.cluster.cluster.Cluster`, and look at it through the
handle's observations only.  With ``--real`` the harness leaves the
simulation: a :class:`ProcessChaosRun` asks the cluster for the Cores as
OS processes (a :class:`~repro.cluster.launch.CoreProcesses` with a
shared durable checkpoint directory as its ``transport=``), puts them
under a :class:`~repro.cluster.supervisor.Supervisor`, and the seeded
schedule SIGKILLs/SIGTERMs children mid-workload.  The invariants gain a
real **MTTR bound**: after every kill the deployment must return to
full-heal reachability — child respawned, checkpoints restored with
identity preserved, pre-kill references answering — within
``mttr_budget`` wall seconds, or the run fails.
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import signal
import tempfile
import time
from dataclasses import dataclass, field

from repro.cluster.cluster import Cluster
from repro.cluster.failures import FailureInjector
from repro.cluster.launch import CoreProcesses
from repro.cluster.supervisor import RestartPolicy, Supervisor
from repro.cluster.workload import Counter
from repro.complet.stub import stub_target_id
from repro.errors import FarGoError
from repro.recovery import CheckpointPolicy, DetectorConfig

#: Virtual seconds between driver requests (off-phase with the detector).
DRIVE_PERIOD = 0.4
#: Virtual seconds between invariant checks.
CHECK_PERIOD = 0.5


@dataclass(slots=True)
class ChaosReport:
    """Outcome of one seeded chaos run."""

    seed: int
    requests_ok: int = 0
    typed_errors: int = 0
    injections: int = 0
    recoveries: int = 0
    duration: float = 0.0
    #: The clock ``duration`` was read on: "virtual", or "wall" for a --real run.
    clock: str = "virtual"
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations and self.requests_ok > 0

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        line = (
            f"seed {self.seed}: {state} — {self.requests_ok} ok, "
            f"{self.typed_errors} typed errors, {self.injections} injections, "
            f"{self.recoveries} recoveries over {self.duration:.1f}s {self.clock}"
        )
        for violation in self.violations:
            line += f"\n  violation: {violation}"
        return line


class ChaosRun:
    """One deterministic chaos scenario, generated from a seed."""

    def __init__(
        self,
        seed: int,
        *,
        cores: int = 4,
        events: int = 6,
        tracing: bool = False,
        sanitize: bool = False,
    ) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.names = [f"core{i}" for i in range(cores)]
        self.cluster = Cluster(self.names, tracing=tracing, sanitize=sanitize)
        self.detector = DetectorConfig()
        self.cluster.enable_recovery(detector=self.detector)
        self.injector = FailureInjector(self.cluster)
        self.report = ChaosReport(seed=seed)
        self._counters = []
        policy = CheckpointPolicy(interval=1.0, on_arrival=True)
        assert self.cluster.checkpoints is not None
        for name in self.names:
            counter = Counter(0, _core=self.cluster[name], _at=name)
            self.cluster.checkpoints.protect(counter, policy)
            self._counters.append(counter)
        self._next_counter = 0
        self._end = self._schedule(events)
        #: Identity duplications seen at the previous check (grace window).
        self._pending_dups: set = set()
        #: Recovery reports whose post-conditions were already read.
        self._seen_reports = 0

    # -- schedule generation -----------------------------------------------------

    def _schedule(self, events: int) -> float:
        """Sequential, non-overlapping failure windows; returns the end time."""
        cursor = 2.0
        for _ in range(events):
            kind = self.rng.choice(("crash", "outage", "partition"))
            if kind == "crash":
                victim = self.rng.choice(self.names)
                down_for = self.rng.uniform(4.0, 7.0)
                self.injector.crash_core_at(cursor, victim)
                self.injector.revive_core_at(cursor + down_for, victim)
                cursor += down_for
            elif kind == "outage":
                a, b = self.rng.sample(self.names, 2)
                down_for = self.rng.uniform(0.5, 1.5)
                self.injector.outage_at(cursor, a, b, down_for)
                cursor += down_for
            else:
                island = self.rng.choice(self.names)
                split_for = self.rng.uniform(2.0, 4.0)
                self.injector.partition_at(cursor, {island})
                self.injector.heal_at(cursor + split_for)
                cursor += split_for
            cursor += self.rng.uniform(1.0, 2.5)
        return cursor

    # -- the request driver --------------------------------------------------------

    def _drive(self) -> None:
        counter = self._counters[self._next_counter % len(self._counters)]
        self._next_counter += 1
        up = self._up()
        if not up:
            return
        seat = self.rng.choice(up)
        try:
            fresh = self.cluster.stub_at(seat, counter)
            fresh.increment()
            self.report.requests_ok += 1
        except FarGoError:
            self.report.typed_errors += 1
        except Exception as exc:  # noqa: BLE001 - the invariant under test
            self.report.violations.append(
                f"untyped failure at t={self.cluster.now:.2f}: {exc!r}"
            )

    def _up(self) -> list[str]:
        """Sorted names of the Cores that are neither shut down nor crashed."""
        return sorted(filter(self.cluster.is_core_up, self.cluster.running_names()))

    # -- invariants ------------------------------------------------------------------

    def _check_invariants(self) -> None:
        hosts: dict = {}
        for name in self._up():
            for complet_id in self.cluster.complets_at(name):
                hosts.setdefault(complet_id, []).append(name)
        duplicated = {cid for cid, names in hosts.items() if len(names) > 1}
        # One check of grace: a revived Core holds its stale copies until
        # a detector notices it and reconciliation runs (≤ one interval).
        for complet_id in duplicated & self._pending_dups:
            self.report.violations.append(
                f"identity {complet_id} hosted at {hosts[complet_id]} "
                f"for two checks at t={self.cluster.now:.2f}"
            )
        self._pending_dups = duplicated

        assert self.cluster.recovery is not None
        reports = self.cluster.recovery.reports
        for report in reports[self._seen_reports:]:
            for entry in report.unrepaired:
                self.report.violations.append(
                    f"recovery of {report.failed} at t={report.at:.2f} left "
                    f"tracker {entry} pointing into the grave"
                )
        self._seen_reports = len(reports)

    def _check_final_reachability(self) -> None:
        for counter in self._counters:
            try:
                fresh = self.cluster.stub_at(self._up()[0], counter)
                fresh.read()
            except Exception as exc:  # noqa: BLE001 - report, do not raise
                self.report.violations.append(
                    f"counter born at {counter._fargo_target_id.birth_core} "
                    f"unreachable after full heal: {exc!r}"
                )

    # -- execution ---------------------------------------------------------------------

    def execute(self) -> ChaosReport:
        """Run the scenario to completion and return its report."""
        driver = self.cluster.scheduler.call_every(
            DRIVE_PERIOD, self._drive, first_delay=DRIVE_PERIOD / 2
        )
        # Settle window: every failure healed, detectors notice revivals
        # (fail/recover verdicts land within fail_after + one interval),
        # reconciliation runs, and the last checkpoints refresh.
        settle = self.detector.fail_after + 3 * self.detector.interval + 1.5
        horizon = self._end + settle
        while self.cluster.now < horizon:
            self.cluster.advance(CHECK_PERIOD)
            self._check_invariants()
        driver.cancel()
        self._check_final_reachability()
        assert self.cluster.recovery is not None
        if self.cluster.sanitizer is not None:
            # No layout script drives this workload, so every operation
            # the cluster performs is causally ordered — an observed
            # race means the happens-before bookkeeping itself broke.
            for race in self.cluster.sanitizer.races:
                self.report.violations.append(
                    f"unexplained layout race: {race.describe()}"
                )
        self.report.injections = self.injector.injected_count()
        self.report.recoveries = len(self.cluster.recovery.reports)
        self.report.duration = self.cluster.now
        return self.report

    def chrome_trace_json(self) -> str:
        return self.cluster.chrome_trace_json(indent=2)


class ProcessChaosRun:
    """Seeded kill-and-heal chaos against real OS-process Cores.

    The schedule (which child dies, by which signal, after how long) is
    drawn from the seed; the clock is real, so run *outcomes* are not
    bit-reproducible — what is checked instead are the supervision
    guarantees: every kill heals within ``mttr_budget`` wall seconds,
    restored complets keep their identities, pre-kill references keep
    working, and every request failure in between is a typed error.
    """

    def __init__(
        self,
        seed: int,
        *,
        cores: int = 2,
        kills: int = 2,
        mttr_budget: float = 20.0,
        tracing: bool = False,
    ) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.names = [f"core{i}" for i in range(cores)]
        self.kills = kills
        self.mttr_budget = mttr_budget
        self.tracing = tracing
        self.cluster: Cluster | None = None
        self.supervisor: Supervisor | None = None
        self.report = ChaosReport(seed=seed, clock="wall")
        self._counters: list = []
        self._trace_json = ""

    # -- workload ----------------------------------------------------------

    def _drive(self, rounds: int) -> None:
        for _ in range(rounds):
            counter = self.rng.choice(self._counters)
            try:
                counter.increment()
                self.report.requests_ok += 1
            except FarGoError:
                self.report.typed_errors += 1
            except Exception as exc:  # noqa: BLE001 - the invariant under test
                self.report.violations.append(
                    f"untyped failure during real-process chaos: {exc!r}"
                )
            time.sleep(0.02)

    def _await_heal(self, victim: str) -> float | None:
        """Wall seconds until the supervisor reports ``victim`` healed."""
        assert self.supervisor is not None
        started = time.monotonic()
        deadline = started + self.mttr_budget
        while time.monotonic() < deadline:
            child = self.supervisor.state()["children"][victim]
            if child["status"] == "running" and child["restarts"] > 0:
                return time.monotonic() - started
            if child["status"] == "failed":
                return None  # escalated: the budget can never be met
            time.sleep(0.05)
        return None

    # -- execution ---------------------------------------------------------

    def execute(self) -> ChaosReport:
        started = time.monotonic()
        checkpoint_dir = tempfile.mkdtemp(prefix="repro-chaos-ckpt-")
        try:
            self.cluster = cluster = Cluster(
                transport=CoreProcesses(
                    self.names, checkpoint_dir=checkpoint_dir, checkpoint_interval=0.2
                ),
                tracing=self.tracing,
            )
            assert cluster.processes is not None
            self.supervisor = Supervisor(
                cluster.processes,
                policy=RestartPolicy(max_restarts=self.kills + 1, window=300.0),
            ).start()
            for name in self.names:
                self._counters.append(Counter(0, _core=cluster.seat, _at=name))
            self._drive(5)
            time.sleep(0.5)  # first durable checkpoints land
            for _ in range(self.kills):
                victim = self.rng.choice(self.names)
                kind = self.rng.choice((signal.SIGKILL, signal.SIGTERM))
                os.kill(cluster.processes.processes[victim].pid, kind)
                self.report.injections += 1
                mttr = self._await_heal(victim)
                if mttr is None:
                    self.report.violations.append(
                        f"{victim} (killed by {signal.Signals(kind).name}) did not "
                        f"heal within the {self.mttr_budget:.0f}s MTTR budget"
                    )
                    break
                self.report.recoveries += 1
                self._drive(5)
                time.sleep(0.3)  # fresh checkpoints before the next kill
            self._check_final_reachability(cluster)
            if self.tracing:
                # Before close(): afterwards the children's spans are gone.
                self._trace_json = cluster.chrome_trace_json(indent=2)
        finally:
            self.report.duration = time.monotonic() - started
            if self.supervisor is not None:
                self.supervisor.stop()
            if self.cluster is not None:
                self.cluster.close()
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
        return self.report

    def _check_final_reachability(self, cluster: Cluster) -> None:
        for counter in self._counters:
            try:
                counter.read()
            except Exception as exc:  # noqa: BLE001 - report, do not raise
                self.report.violations.append(
                    f"counter {stub_target_id(counter)} unreachable after heal: {exc!r}"
                )
        # Identity preservation: the reborn hosts answer for the same ids.
        hosted: set[str] = set()
        for name in self.names:
            try:
                hosted.update(cluster.complets_at(name))
            except FarGoError:
                continue
        for counter in self._counters:
            if str(stub_target_id(counter)) not in hosted:
                self.report.violations.append(
                    f"identity {stub_target_id(counter)} lost across process restarts"
                )

    def chrome_trace_json(self) -> str:
        """Every Core's spans (the driver's supervisor:restart included), as
        read just before the deployment closed."""
        return self._trace_json


def run_seeds(
    seeds: list[int], run: type = ChaosRun, **options
) -> "tuple[list[ChaosReport], ChaosRun | ProcessChaosRun | None]":
    """Run each seed as ``run(seed, **options)``; the reports and the first failing run."""
    reports: list[ChaosReport] = []
    first_failure = None
    for seed in seeds:
        chaos = run(seed, **options)
        reports.append(chaos.execute())
        if not reports[-1].passed and first_failure is None:
            first_failure = chaos
    return reports, first_failure


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="seeded recovery chaos runs")
    parser.add_argument(
        "--seeds", default="1,2,3,4,5",
        help="comma-separated seeds to replay (default: 1,2,3,4,5)",
    )
    parser.add_argument("--cores", type=int, default=4)
    parser.add_argument("--events", type=int, default=6)
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a Chrome trace of the first failing run to FILE",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="run with the LayoutSanitizer on; any observed layout race "
        "is a violation (this workload performs no concurrent layout ops)",
    )
    parser.add_argument(
        "--real", action="store_true",
        help="run against real OS-process Cores under a Supervisor: the "
        "seeded schedule SIGKILLs/SIGTERMs children mid-workload and the "
        "MTTR invariant bounds every heal",
    )
    parser.add_argument(
        "--kills", type=int, default=2,
        help="process-kill events per seed (--real mode only)",
    )
    parser.add_argument(
        "--mttr-budget", type=float, default=20.0,
        help="wall seconds each kill must heal within (--real mode only)",
    )
    options = parser.parse_args(argv)
    seeds = [int(s) for s in options.seeds.split(",") if s.strip()]
    if options.real:
        reports, first_failure = run_seeds(
            seeds, ProcessChaosRun, cores=options.cores, kills=options.kills,
            mttr_budget=options.mttr_budget, tracing=options.trace is not None,
        )
    else:
        reports, first_failure = run_seeds(
            seeds, cores=options.cores, events=options.events,
            tracing=options.trace is not None, sanitize=options.sanitize,
        )
    for report in reports:
        print(report.summary())
    failed = [r for r in reports if not r.passed]
    if failed and first_failure is not None and options.trace:
        with open(options.trace, "w", encoding="utf-8") as handle:
            handle.write(first_failure.chrome_trace_json())
        print(f"wrote Chrome trace of seed {first_failure.seed} to {options.trace}")
    print(f"{len(reports) - len(failed)}/{len(reports)} seeds passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
