"""Seeded chaos harness for the recovery layer, on every backend.

A :class:`ChaosRun` builds a cluster with recovery enabled, places one
stateful complet on each Core, and replays a *seeded* schedule of
failures through a :class:`~repro.cluster.failures.FailureInjector` while
a request driver keeps calling the complets.  One loop runs it:
``cluster.advance(CHECK_PERIOD)``, then the invariant check.

- ``transport="sim"`` (the default): crashes (each revived later), link
  outages and partitions on the virtual clock.  The same seed always
  produces the same schedule, verdicts, recovery decisions and report.
- ``transport="procs"``: every Core an OS process with durable
  checkpoints, under a :class:`~repro.cluster.supervisor.Supervisor`.
  The schedule SIGKILLs children or shuts them down, and the Supervisor
  brings each back.  The clock is real, so outcomes are not
  bit-reproducible; the invariants are the same.

Schedule times are in one unit, chosen by ``clock.is_virtual``: a virtual
second, or :data:`REAL_UNIT` wall seconds.

The check: a :class:`~repro.analysis.model.LayoutModel` steps beside the
cluster, fed each injected failure and each recovery the runtime reports
(a respawned child restores its complets where it was), and every check
adds the restore contract's breaches and the
:func:`~repro.analysis.model.layout_mismatches` of the cluster.  A
revived Core's stale copies may stay one detector interval, until its
reconcile.  Besides, every driver request completes or raises a
:class:`~repro.errors.FarGoError` subclass, and a crashed or shut-down
Core is up again within ``mttr_budget`` seconds of the run's clock.

Run from the command line (exits non-zero on any violation)::

    python -m repro.cluster.chaos --seeds 1,2,3 --trace chaos_trace.json
    python -m repro.cluster.chaos --real --seeds 1,2,3 --cores 2 --events 2
"""

from __future__ import annotations

import argparse
import random
import tempfile
from dataclasses import dataclass, field

from repro.analysis.model import LayoutModel, layout_mismatches
from repro.cluster.cluster import Cluster
from repro.cluster.failures import FailureInjector
from repro.cluster.launch import CoreProcesses
from repro.cluster.supervisor import RestartPolicy, Supervisor
from repro.cluster.workload import Counter, Counter_
from repro.complet.stub import stub_target_id
from repro.errors import FarGoError
from repro.recovery import DetectorConfig

#: Units between driver requests (off-phase with the detector).
DRIVE_PERIOD = 0.4
#: Units between invariant checks.
CHECK_PERIOD = 0.5
#: Wall seconds in one unit on a real clock (on a virtual one, a second).
REAL_UNIT = 0.1


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
    """One chaos scenario, generated from a seed; :meth:`execute` runs it
    and closes the deployment."""

    def __init__(
        self,
        seed: int,
        *,
        transport: str = "sim",
        cores: int = 4,
        events: int = 6,
        tracing: bool = False,
        sanitize: bool = False,
        mttr_budget: float = 20.0,
    ) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.names = [f"core{i}" for i in range(cores)]
        self.mttr_budget = mttr_budget
        deployment: str | CoreProcesses = transport
        self._scratch: tempfile.TemporaryDirectory[str] | None = None
        if transport == "procs":
            self._scratch = tempfile.TemporaryDirectory(prefix="repro-chaos-ckpt-")
            # Each child's own sweep checkpoints what it hosts, once a unit.
            deployment = CoreProcesses(
                self.names, checkpoint_dir=self._scratch.name, checkpoint_interval=REAL_UNIT
            )
        self.cluster = Cluster(self.names, transport=deployment, tracing=tracing, sanitize=sanitize)
        procs = self.cluster.processes
        virtual = self.cluster.scheduler.clock.is_virtual
        self.unit = 1.0 if virtual else REAL_UNIT
        self._counters = [
            Counter(0, _core=self.cluster.cores.get(name, self.cluster.seat), _at=name)
            for name in self.names
        ]
        # Placed first: the first sweep of each checkpointer enable_recovery()
        # starts takes them (on procs the children sweep once a unit).
        self.cluster.enable_recovery()
        self.supervisor: Supervisor | None = None
        if procs is not None:
            self.supervisor = Supervisor(
                procs, policy=RestartPolicy(max_restarts=events + 1, window=300.0)
            ).start()
        self.injector = FailureInjector(self.cluster)
        self.report = ChaosReport(seed=seed, clock="virtual" if virtual else "wall")
        self._next_counter = 0
        self._origin = self._last_check = self.cluster.now
        self.model = LayoutModel(list(self.names))
        for name, counter in zip(self.names, self._counters):
            self.model.create(str(stub_target_id(counter)), name, Counter_)
        #: (instant, Core) of every crash or shutdown not yet seen healed,
        #: (instant, 1, transition, *args) of each failure the model has not
        #: had, and how many recovery reports it has had.
        self._outages: list[tuple[float, str]] = []
        self._failures: list[tuple] = []
        self._fed = 0
        self._end = self._schedule(events, procs is None)
        self._trace_json = ""

    # -- schedule generation -----------------------------------------------------

    def _at(self, units: float) -> float:
        """The clock instant ``units`` into the run."""
        return self._origin + units * self.unit

    def _since(self, instant: float) -> float:
        """``instant`` in clock seconds since the run began."""
        return instant - self._origin

    def _schedule(self, events: int, simulated: bool) -> float:
        """Sequential, non-overlapping failure windows; returns the end (units).

        Only what the backend can inject and heal: a simulated Core is
        revived by the schedule, a process respawned by the Supervisor.
        """
        kinds = ("crash", "outage", "partition") if simulated else ("crash", "shutdown")
        cursor = 2.0
        for _ in range(events):
            kind = self.rng.choice(kinds)
            if kind in ("crash", "shutdown"):
                victim = self.rng.choice(self.names)
                down_for = self.rng.uniform(4.0, 7.0)
                self._outages.append((self._at(cursor), victim))
                down = self.injector.crash_core_at if kind == "crash" else self.injector.shutdown_core_at
                self._fail(cursor, down, "crash_core", victim)
                if simulated:
                    self._fail(cursor + down_for, self.injector.revive_core_at, "revive", victim)
                cursor += down_for
            elif kind == "outage":
                a, b = self.rng.sample(self.names, 2)
                down_for = self.rng.uniform(0.5, 1.5)
                self.injector.outage_at(self._at(cursor), a, b, down_for * self.unit)
                cursor += down_for
            else:
                island = self.rng.choice(self.names)
                split_for = self.rng.uniform(2.0, 4.0)
                self._fail(cursor, self.injector.partition_at, "partition", {island})
                self._fail(cursor + split_for, self.injector.heal_at, "heal")
                cursor += split_for
            cursor += self.rng.uniform(1.0, 2.5)
        return cursor

    def _fail(self, units: float, inject, transition: str, *args) -> None:
        """Inject a failure ``units`` into the run; the first check after it
        gives the model its ``transition``.  A detector hears a revived Core
        within an interval and reconciles: its stale copies may stay that long."""
        inject(self._at(units), *args)
        self._failures.append((self._at(units), 1, transition, *args))
        if transition == "revive":
            at = self._at(units) + DetectorConfig().interval * self.unit
            self._failures.append((at, 1, "reconcile", *args))

    # -- the request driver --------------------------------------------------------

    def _drive(self) -> None:
        counter = self._counters[self._next_counter % len(self._counters)]
        self._next_counter += 1
        seats = self._seats()
        if not seats:
            return
        seat = self.rng.choice(seats)
        try:
            self.cluster.stub_at(seat, counter).increment()
            self.report.requests_ok += 1
        except FarGoError:
            self.report.typed_errors += 1
        except Exception as exc:  # noqa: BLE001 - the invariant under test
            self.report.violations.append(
                f"untyped failure at t={self._since(self.cluster.now):.2f}: {exc!r}"
            )

    def _seats(self) -> list[str]:
        """The up Cores of this process, where stubs can be wired."""
        up = sorted(filter(self.cluster.is_core_up, self.cluster.running_names()))
        return [name for name in up if name in self.cluster.cores]

    # -- invariants ------------------------------------------------------------------

    def _check_invariants(self) -> None:
        now, model = self.cluster.now, self.model
        assert self.cluster.recovery is not None
        reports = self.cluster.recovery.reports
        changes = [change for change in self._failures if change[0] <= now] + [
            (r.at, 0, "restore", r.failed, r.destination, r.restored, r.degraded, r.skipped,
             r.unrepaired) for r in reports[self._fed:]
        ]
        self._failures = [change for change in self._failures if change[0] > now]
        self._fed = len(reports)
        for _at, _order, transition, *args in sorted(changes, key=lambda change: change[:2]):
            self._violate(getattr(model, transition)(*args))
        # MTTR: each outage whose injection fired by the previous check.
        for at, name in [outage for outage in self._outages if outage[0] < self._last_check]:
            late = now - at > self.mttr_budget
            if late:
                self._violate([f"{name} (down at t={self._since(at):.2f}) did not heal within "
                               f"the {self.mttr_budget:g}s MTTR budget"])
            healed = self.cluster.is_core_up(name) and (
                self.supervisor is None
                or self.supervisor.state()["children"][name]["status"] == "running"
            )
            if healed and self.supervisor is not None:  # a new life restores its checkpoints
                model.revive(name)
                self._violate(model.restore(name, name))
            if late or healed:
                self._outages.remove((at, name))
        self._violate(layout_mismatches(model, self.cluster))
        self._last_check = now

    def _violate(self, breaches) -> None:
        at = self._since(self.cluster.now)
        self.report.violations.extend(f"t={at:.2f}: {breach}" for breach in breaches or ())

    # -- execution ---------------------------------------------------------------------

    def execute(self) -> ChaosReport:
        """Run the scenario to completion, close the deployment, and return the report."""
        try:
            driver = self.cluster.scheduler.call_every(
                DRIVE_PERIOD * self.unit, self._drive, first_delay=DRIVE_PERIOD * self.unit / 2
            )
            # Settle window: every failure healed, detectors notice revivals
            # (fail/recover verdicts land within fail_after + one interval),
            # reconciliation runs, and the last checkpoints refresh.
            config = DetectorConfig()
            settle = config.fail_after + 3 * config.interval + 1.5
            horizon = self._at(self._end + settle)
            while self.cluster.now < horizon:
                self.cluster.advance(CHECK_PERIOD * self.unit)
                self._check_invariants()
            driver.cancel()
            for counter in self._counters:  # healed: every complet answers
                try:
                    self.cluster.stub_at(self._seats()[0], counter).read()
                except Exception as exc:  # noqa: BLE001 - report, do not raise
                    self._violate([f"{stub_target_id(counter)} unreachable: {exc!r}"])
            if self.cluster.sanitizer is not None:
                # No layout script drives this workload, so every operation
                # the cluster performs is causally ordered — an observed
                # race means the happens-before bookkeeping itself broke.
                for race in self.cluster.sanitizer.races:
                    self.report.violations.append(
                        f"unexplained layout race: {race.describe()}"
                    )
            assert self.cluster.recovery is not None
            self.report.injections = self.injector.injected_count()
            self.report.recoveries = len(self.cluster.recovery.reports) + int(
                self.cluster.seat.metrics.counter_value("supervisor.restarts")
            )
            self.report.duration = self._since(self.cluster.now)
            if self.cluster.seat.tracer.enabled:
                # Before close(): afterwards a child's spans are gone.
                self._trace_json = self.cluster.chrome_trace_json(indent=2)
        finally:
            self.close()
        return self.report

    def close(self) -> None:
        """Stop the Supervisor, close the deployment, remove its checkpoints."""
        if self.supervisor is not None:
            self.supervisor.stop()
        self.cluster.close()
        if self._scratch is not None:
            self._scratch.cleanup()

    def chrome_trace_json(self) -> str:
        """Every Core's spans (on procs the driver's supervisor:restart
        among them), as read just before the deployment closed."""
        return self._trace_json or self.cluster.chrome_trace_json(indent=2)


def run_seeds(seeds: list[int], **options) -> "tuple[list[ChaosReport], ChaosRun | None]":
    """Run each seed as ``ChaosRun(seed, **options)``; the reports and the first failing run."""
    reports: list[ChaosReport] = []
    first_failure = None
    for seed in seeds:
        chaos = ChaosRun(seed, **options)
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
    parser.add_argument("--events", type=int, default=6, help="failures per seed")
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
        help="run on OS-process Cores (transport='procs') under a Supervisor: "
        "the seeded schedule SIGKILLs children or shuts them down mid-workload",
    )
    parser.add_argument(
        "--mttr-budget", type=float, default=20.0,
        help="seconds each crashed Core must heal within (virtual, or wall with --real)",
    )
    options = parser.parse_args(argv)
    seeds = [int(s) for s in options.seeds.split(",") if s.strip()]
    reports, first_failure = run_seeds(
        seeds, transport="procs" if options.real else "sim", cores=options.cores,
        events=options.events, tracing=options.trace is not None,
        sanitize=options.sanitize, mttr_budget=options.mttr_budget,
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
