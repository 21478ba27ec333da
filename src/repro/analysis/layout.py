"""One layout-policy interface: solvers plan, one checked executor moves.

A :class:`LayoutSolver` is a layout policy kept outside the application
it places.  It attaches to a :class:`~repro.cluster.cluster.Cluster` and
hands :class:`~repro.analysis.plan.MovePlan` objects to :func:`execute`,
the one way a policy moves complets:

- :class:`Static` makes no moves;
- :class:`LoadExisting` runs a plan it was given, once, on attach;
- :class:`Script` runs a §4.3 layout script; every ``move`` its rules
  issue is a plan through :func:`execute` (so is every move of any
  :class:`~repro.script.interpreter.ScriptEngine`);
- :class:`Threshold` colocates movers with an anchor once a watched rate
  crosses a threshold while the link between them is slow.

:func:`execute` runs a plan only after a clean :func:`check_plan`: an
error diagnostic (FG405–FG407) refuses the whole plan and nothing moves.
The check reads only what the driver already holds — the Core names,
the plan's own layout, and where the driver hosts a complet itself — so
it sends no message.  Steps then run in order through ``Cluster.move``
(a step that names a complet by id goes through its host's
:class:`~repro.core.admin.CoreAdmin`).  A no-op step (FG408, or one whose
complet its host finds in place) is skipped.
When step *k* fails, steps 1…k−1 stay committed, the movement unit's
abort leaves step *k*'s complet hosted and invocable at its source, and
no later step runs.

Every plan the executor sees, refused or run, goes into the cluster's
bounded :class:`LayoutJournal` (``cluster.layout_history``): trigger,
solver, plan, each step's outcome, bytes sent and virtual seconds taken.
The shell's ``why <complet>`` reads it.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

from repro.complet.stub import Stub, stub_core, stub_target_id, stub_tracker
from repro.core.events import Event
from repro.errors import FarGoError, MovementDeniedError

from repro.analysis.diagnostics import Diagnostic, Severity, has_errors
from repro.analysis.plan import MovePlan, PlannedMove, check_plan
from repro.analysis.script_check import TopologyInfo

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster

__all__ = [
    "JOURNAL_CAPACITY",
    "LayoutJournal",
    "LayoutSolver",
    "LoadExisting",
    "PlanReport",
    "Script",
    "Static",
    "StepOutcome",
    "Threshold",
    "execute",
    "trigger_of",
]

#: Plans one cluster's journal keeps; the oldest go first.
JOURNAL_CAPACITY = 256

COMMITTED = "committed"
SKIPPED = "skipped"
FAILED = "failed"
NOT_RUN = "not run"


@dataclass(frozen=True, slots=True)
class StepOutcome:
    """What became of one plan step."""

    step: PlannedMove
    #: ``committed``, ``skipped`` (a no-op: FG408, or found in place), ``failed`` or ``not run``.
    status: str
    #: The typed error of a failed step.
    error: FarGoError | None = None


@dataclass(frozen=True)
class PlanReport:
    """One plan through :func:`execute`: a layout-journal entry."""

    plan: MovePlan
    #: What asked for the plan: an event (:func:`trigger_of`) or a caller.
    trigger: str
    #: The policy that made it: a solver, a script rule, or a caller.
    solver: str
    diagnostics: tuple[Diagnostic, ...]
    steps: tuple[StepOutcome, ...]
    #: Cluster time the plan started, bytes sent and seconds it took.
    at: float
    bytes_moved: int
    seconds: float

    @property
    def refused(self) -> bool:
        """The check found an error: no step ran."""
        return has_errors(list(self.diagnostics))

    @property
    def committed(self) -> list[PlannedMove]:
        return [outcome.step for outcome in self.steps if outcome.status == COMMITTED]

    @property
    def failure(self) -> StepOutcome | None:
        """The step that failed, if one did."""
        return next((o for o in self.steps if o.status == FAILED), None)

    def raise_failure(self) -> None:
        """Raise a failed step's error, or a typed refusal of the plan."""
        if self.refused:
            raise MovementDeniedError(
                f"plan {self.plan.name} refused: "
                + "; ".join(d.message for d in self.diagnostics if d.severity is Severity.ERROR)
            )
        failure = self.failure
        if failure is not None and failure.error is not None:
            raise failure.error

    def render(self) -> str:
        lines = [
            f"t={self.at:.3f} {self.solver}, on {self.trigger}: "
            f"{self.bytes_moved} B in {self.seconds:.3f} s"
        ]
        lines.extend(
            f"  {index}. {o.step.complet} -> {o.step.destination}: {o.status}"
            + (f" ({type(o.error).__name__}: {o.error})" if o.error is not None else "")
            for index, o in enumerate(self.steps, start=1)
        )
        lines.extend(f"  {d.render()}" for d in self.diagnostics)
        return "\n".join(lines)


class LayoutJournal(deque):
    """The last :data:`JOURNAL_CAPACITY` plans run on one cluster."""

    def __init__(self) -> None:
        super().__init__((), JOURNAL_CAPACITY)

    def why(self, complet: str) -> PlanReport | None:
        """The newest plan that moved ``complet`` (full or short id), else
        the newest that named it."""
        naming = [r for r in reversed(self) if any(complet in _names(o.step.complet) for o in r.steps)]
        moved = (
            r for r in naming
            if any(o.status == COMMITTED and complet in _names(o.step.complet) for o in r.steps)
        )
        return next(moved, naming[0] if naming else None)


def _names(complet: str) -> tuple[str, str]:
    """The full display form of a complet id and its short form."""
    birth, _, rest = complet.partition("/c")
    serial, _, type_name = rest.partition(":")
    return complet, f"{type_name or 'complet'}#{serial}@{birth}"


def trigger_of(event: Event) -> str:
    """How the journal names the event a plan answers."""
    service = event.data.get("service")
    if service is not None:
        return f"{service} = {event.data.get('value', 0.0):g} at {event.origin}"
    return f"{event.name} at {event.origin}"


def execute(
    cluster: "Cluster",
    plan: MovePlan,
    *,
    handles: Mapping[str, Stub] | None = None,
    via: str | None = None,
    trigger: str = "caller",
    solver: str = "caller",
) -> PlanReport:
    """Check ``plan``, run it if clean, journal it, and report each step.

    ``handles`` maps a step's complet id to a stub, which the step moves
    with ``Cluster.move``; a complet without one is moved by id at its
    host (the plan's location for it, else the Core that hosts it now),
    through the administration handle issued from Core ``via``.  A step
    that fails stops the plan; the error is in the report, not raised.
    """
    handles = handles or {}
    held = {
        complet: stub_core(stub).name
        for complet, stub in handles.items()
        if stub_tracker(stub).is_local
    }
    layout = {**held, **plan.locations}
    diagnostics = check_plan(
        MovePlan(plan.moves, plan.name, layout),
        TopologyInfo(cores=frozenset(cluster.core_names())),
    )
    no_ops = {d.line for d in diagnostics if d.code == "FG408"}
    stopped = has_errors(diagnostics)
    at, sent = cluster.now, cluster.stats.bytes
    outcomes = []
    for index, step in enumerate(plan.moves, start=1):
        if stopped:
            outcomes.append(StepOutcome(step, NOT_RUN))
            continue
        if index in no_ops:
            outcomes.append(StepOutcome(step, SKIPPED))
            continue
        try:
            stub = handles.get(step.complet)
            if stub is not None:
                moved = cluster.move(stub, step.destination)
            else:
                host = layout.get(step.complet) or step.source or cluster.find_host(step.complet)
                moved = cluster.admin(host, via=via).move(step.complet, step.destination)
        except FarGoError as exc:
            outcomes.append(StepOutcome(step, FAILED, exc))
            stopped = True
            continue
        outcomes.append(StepOutcome(step, COMMITTED if moved else SKIPPED))
    report = PlanReport(
        plan=plan,
        trigger=trigger,
        solver=solver,
        diagnostics=tuple(diagnostics),
        steps=tuple(outcomes),
        at=at,
        bytes_moved=cluster.stats.bytes - sent,
        seconds=cluster.now - at,
    )
    cluster.layout_history.append(report)
    return report


# -- solvers ------------------------------------------------------------------


class LayoutSolver:
    """A layout policy that plans for one cluster.

    :meth:`attach` binds it to a cluster and runs what :meth:`solve`
    yields then; a solver that reacts to events subscribes to them in
    :meth:`attach` and runs each later plan through :meth:`run`.
    """

    cluster: "Cluster"

    @property
    def name(self) -> str:
        return type(self).__name__

    def attach(self, cluster: "Cluster") -> "LayoutSolver":
        self.cluster = cluster
        for plan in self.solve():
            self.run(plan, "attach")
        return self

    def solve(self) -> Iterator[MovePlan]:
        """The plans to run on attach."""
        return iter(())

    def run(self, plan: MovePlan, trigger: str, **options) -> PlanReport:
        return execute(self.cluster, plan, trigger=trigger, solver=self.name, **options)


class Static(LayoutSolver):
    """Where the application put its complets is where they stay."""


@dataclass
class LoadExisting(LayoutSolver):
    """Run one given plan (its JSON form: :meth:`MovePlan.from_json`) on attach."""

    plan: MovePlan

    @property
    def name(self) -> str:
        return f"LoadExisting({self.plan.name})"

    def solve(self) -> Iterator[MovePlan]:
        yield self.plan


@dataclass
class Script(LayoutSolver):
    """A §4.3 layout script with positional ``args`` (``$c = %1``), run by a
    :class:`~repro.script.interpreter.ScriptEngine` at the cluster's seat.
    The journal names each plan by the rule that fired."""

    text: str
    args: tuple = ()

    def attach(self, cluster: "Cluster") -> "Script":
        from repro.script.interpreter import ScriptEngine

        self.engine = ScriptEngine(cluster)
        self.engine.run(self.text, self.args)
        super().attach(cluster)
        return self


@dataclass
class Threshold(LayoutSolver):
    """Move each of ``movers`` to ``anchor``'s Core once its byte rate
    toward ``anchor`` exceeds ``rate`` while the bandwidth between their
    Cores is below ``bandwidth``.

    Each mover is watched once a second at the Core it is on at attach, on
    that Core's own bus.  §4.3 cannot state this policy: a rule has no
    condition on a second measurement, and its events cross to the
    engine's Core.
    """

    movers: list[Stub]
    anchor: Stub
    rate: float
    bandwidth: float

    @property
    def name(self) -> str:
        anchor = stub_target_id(self.anchor).short()
        return f"Threshold(byteRate > {self.rate:g} to {anchor}, bandwidth < {self.bandwidth:g})"

    def attach(self, cluster: "Cluster") -> "Threshold":
        super().attach(cluster)
        anchor_id = str(stub_target_id(self.anchor))
        for mover in self.movers:
            home = cluster.core(cluster.locate(mover))
            mover_id = str(stub_target_id(mover))

            def decide(event: Event, mover: Stub = mover, mover_id: str = mover_id) -> None:
                anchor_site = cluster.locate(self.anchor)
                mover_site = cluster.locate(mover)
                if mover_site == anchor_site:
                    return
                measured = cluster.core(mover_site).profile_instant("bandwidth", peer=anchor_site)
                if measured < self.bandwidth:
                    step = PlannedMove(mover_id, anchor_site, source=mover_site)
                    self.run(
                        MovePlan((step,), name=f"colocate {mover_id}"),
                        trigger_of(event),
                        handles={mover_id: cluster.stub_at(mover_site, mover)},
                    )

            home.events.subscribe(f"layout:{mover_id}", decide)
            home.monitor.watch(
                "byteRate", ">", self.rate, event_name=f"layout:{mover_id}", repeat=True,
                src=mover_id, dst=anchor_id,
            )
        return self
