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

Invariants checked throughout the run:

- **no duplicate identities** — a complet identity hosted by two up
  Cores at two consecutive checks is a violation (one check of grace
  covers the documented revive-then-reconcile window);
- **typed failures only** — every driver request either completes or
  raises a :class:`~repro.errors.FarGoError` subclass; anything else is
  a violation;
- **no trackers into the grave** — after every recovery pass, no
  survivor's tracker for a relocated complet still forwards to the dead
  Core (stale references minted *later* resolve or fail typed);
- **MTTR** — a crashed or shut-down Core is up and answering again
  within ``mttr_budget`` seconds of the run's clock;
- **full recovery** — once every injected failure has healed and the
  detectors have settled, every complet answers requests again under its
  original identity.

Run from the command line (exits non-zero on any violation)::

    python -m repro.cluster.chaos --seeds 1,2,3 --trace chaos_trace.json
    python -m repro.cluster.chaos --real --seeds 1,2,3 --cores 2 --events 2
"""

from __future__ import annotations

import argparse
import random
import tempfile
from dataclasses import dataclass, field

from repro.cluster.cluster import Cluster
from repro.cluster.failures import FailureInjector
from repro.cluster.launch import CoreProcesses
from repro.cluster.supervisor import RestartPolicy, Supervisor
from repro.cluster.workload import Counter
from repro.complet.stub import stub_target_id
from repro.errors import FarGoError
from repro.recovery import CheckpointPolicy, DetectorConfig

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
        self.cluster.enable_recovery()
        self.supervisor: Supervisor | None = None
        if procs is not None:
            self.supervisor = Supervisor(
                procs, policy=RestartPolicy(max_restarts=events + 1, window=300.0)
            ).start()
        self.injector = FailureInjector(self.cluster)
        self.report = ChaosReport(seed=seed, clock="virtual" if virtual else "wall")
        self._counters = []
        policy = CheckpointPolicy(interval=1.0, on_arrival=True)
        assert self.cluster.checkpoints is not None
        for name in self.names:
            counter = Counter(0, _core=self.cluster.cores.get(name, self.cluster.seat), _at=name)
            if procs is None:
                self.cluster.checkpoints.protect(counter, policy)
            self._counters.append(counter)
        self._next_counter = 0
        self._origin = self._last_check = self.cluster.now
        #: (instant, Core) of every crash or shutdown not yet seen healed.
        self._outages: list[tuple[float, str]] = []
        self._end = self._schedule(events, procs is None)
        #: Identity duplications seen at the previous check (grace window).
        self._pending_dups: set = set()
        #: Recovery reports whose post-conditions were already read.
        self._seen_reports = 0
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
                down(self._at(cursor), victim)
                if simulated:
                    self.injector.revive_core_at(self._at(cursor + down_for), victim)
                cursor += down_for
            elif kind == "outage":
                a, b = self.rng.sample(self.names, 2)
                down_for = self.rng.uniform(0.5, 1.5)
                self.injector.outage_at(self._at(cursor), a, b, down_for * self.unit)
                cursor += down_for
            else:
                island = self.rng.choice(self.names)
                split_for = self.rng.uniform(2.0, 4.0)
                self.injector.partition_at(self._at(cursor), {island})
                self.injector.heal_at(self._at(cursor + split_for))
                cursor += split_for
            cursor += self.rng.uniform(1.0, 2.5)
        return cursor

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

    def _up(self) -> list[str]:
        """Sorted names of the Cores that are neither shut down nor crashed."""
        return sorted(filter(self.cluster.is_core_up, self.cluster.running_names()))

    def _seats(self) -> list[str]:
        """The up Cores of this process, where stubs can be wired."""
        return [name for name in self._up() if name in self.cluster.cores]

    # -- invariants ------------------------------------------------------------------

    def _check_invariants(self) -> None:
        hosts: dict = {}
        answering = set()
        for name in self._up():
            try:
                complets = self.cluster.complets_at(name)
            except FarGoError:
                continue  # a respawned child not yet answering
            answering.add(name)
            for complet_id in complets:
                hosts.setdefault(complet_id, []).append(name)
        now = self.cluster.now
        duplicated = {cid for cid, names in hosts.items() if len(names) > 1}
        # One check of grace: a revived Core holds its stale copies until
        # a detector notices it and reconciliation runs (≤ one interval).
        for complet_id in duplicated & self._pending_dups:
            self.report.violations.append(
                f"identity {complet_id} hosted at {hosts[complet_id]} "
                f"for two checks at t={self._since(now):.2f}"
            )
        self._pending_dups = duplicated

        assert self.cluster.recovery is not None
        reports = self.cluster.recovery.reports
        for report in reports[self._seen_reports:]:
            for entry in report.unrepaired:
                self.report.violations.append(
                    f"recovery of {report.failed} at t={self._since(report.at):.2f} left "
                    f"tracker {entry} pointing into the grave"
                )
        self._seen_reports = len(reports)

        # MTTR: each outage whose injection fired by the previous check.
        for at, name in list(self._outages):
            if at >= self._last_check:
                continue
            late = now - at > self.mttr_budget
            if late:
                self.report.violations.append(
                    f"{name} (down at t={self._since(at):.2f}) did not heal within "
                    f"the {self.mttr_budget:g}s MTTR budget"
                )
            if late or name in answering:
                self._outages.remove((at, name))
        self._last_check = now

    def _check_final_reachability(self) -> None:
        for counter in self._counters:
            try:
                self.cluster.stub_at(self._seats()[0], counter).read()
            except Exception as exc:  # noqa: BLE001 - report, do not raise
                self.report.violations.append(
                    f"counter born at {stub_target_id(counter).birth_core} "
                    f"unreachable after full heal: {exc!r}"
                )

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
            self._check_final_reachability()
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
