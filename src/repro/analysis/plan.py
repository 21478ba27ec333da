"""First-class move plans and their static checker (FG405–FG409).

A :class:`MovePlan` is an ordered batch of complet relocations — the
shape a layout synthesizer (ROADMAP item 3) or an operator emits before
committing any of it to the cluster.  :func:`check_plan` vets the batch
*as a unit* against the topology and the installed script set, which is
exactly what per-move runtime validation cannot do:

- **FG405** — a step that cannot be satisfied: unknown destination Core,
  unknown complet, or a declared source that contradicts where the plan
  (or the supplied locations) actually has the complet;
- **FG406** — two steps send one complet to different destinations;
- **FG407** — the plan preempts itself: a later step returns a complet
  to a location an earlier step deliberately vacated;
- **FG408** — a step that moves a complet to where it already is;
- **FG409** — a step fights an installed layout rule that would yank the
  complet somewhere else the moment it arrives.

Plan diagnostics anchor ``line`` at the **1-based step index** (a plan
has steps, not source lines) and ``file`` at the plan's name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.script.effects import RuleEffects

from repro.analysis.diagnostics import Diagnostic, Severity, diag, sort_diagnostics
from repro.analysis.script_check import ARRIVAL_EVENTS, TopologyInfo

__all__ = ["MovePlan", "PlannedMove", "check_plan"]


@dataclass(frozen=True, slots=True)
class PlannedMove:
    """One step: move ``complet`` to ``destination`` (from ``source``)."""

    complet: str
    destination: str
    #: Where the planner believes the complet currently lives; optional,
    #: but when given it is cross-checked against the simulated layout.
    source: str | None = None

    def to_dict(self) -> dict:
        record: dict = {"complet": self.complet, "destination": self.destination}
        if self.source is not None:
            record["source"] = self.source
        return record


@dataclass(frozen=True)
class MovePlan:
    """An ordered batch of relocations, checkable before execution."""

    moves: tuple[PlannedMove, ...] = ()
    name: str = "<plan>"
    #: Known starting layout (complet -> Core); seeds the simulation.
    locations: dict[str, str] = field(default_factory=dict, compare=False)

    @classmethod
    def from_json(cls, text: str, *, name: str | None = None) -> "MovePlan":
        """Parse the JSON plan shape.

        Accepts either a bare list of steps or a mapping with ``moves``
        plus optional ``name`` and ``locations``.  Each step is
        ``{"complet": ..., "destination": ..., "source": ...}`` —
        ``to``/``from`` are accepted as aliases.
        """
        data = json.loads(text)
        if isinstance(data, list):
            data = {"moves": data}
        if not isinstance(data, dict):
            raise ValueError("plan must be a JSON object or list of steps")
        steps = []
        for raw in data.get("moves", ()):
            dest = raw.get("destination", raw.get("to"))
            if "complet" not in raw or dest is None:
                raise ValueError(
                    "each plan step needs 'complet' and 'destination'/'to'"
                )
            src = raw.get("source", raw.get("from"))
            steps.append(
                PlannedMove(
                    complet=str(raw["complet"]),
                    destination=str(dest),
                    source=str(src) if src is not None else None,
                )
            )
        return cls(
            moves=tuple(steps),
            name=name or str(data.get("name", "<plan>")),
            locations={
                str(k): str(v) for k, v in data.get("locations", {}).items()
            },
        )

    def to_json(self) -> str:
        document: dict = {
            "name": self.name,
            "moves": [m.to_dict() for m in self.moves],
        }
        if self.locations:
            document["locations"] = dict(self.locations)
        return json.dumps(document, indent=2)


def _fighting_rules(
    step: PlannedMove, effects: list[RuleEffects]
) -> list[tuple[RuleEffects, str]]:
    """Installed arrival rules that re-move ``step.complet`` on landing."""
    fights = []
    for e in effects:
        if e.event not in ARRIVAL_EVENTS:
            continue
        if e.listen_cores is not None and step.destination not in e.listen_cores:
            continue
        for move in e.moves:
            if not move.target_literal or not move.destination_literal:
                continue
            if move.target == step.complet and move.destination != step.destination:
                fights.append((e, move.destination))
    return fights


def check_plan(
    plan: MovePlan,
    topology: TopologyInfo | None = None,
    *,
    effects: list[RuleEffects] | None = None,
    file: str | None = None,
) -> list[Diagnostic]:
    """All plan diagnostics, sorted by step.

    ``effects`` is the installed script set reduced by
    :func:`repro.script.effects.extract_effects` (see
    :func:`repro.analysis.interaction.script_set_effects`); without it
    FG409 is skipped.  ``line`` of every diagnostic is the 1-based step
    index.
    """
    topo = topology or TopologyInfo()
    label = file if file is not None else plan.name
    diagnostics: list[Diagnostic] = []

    # Simulated layout: where each complet is now, and every location it
    # has held so far (seeded from the declared starting layout).
    current: dict[str, str] = dict(plan.locations)
    held: dict[str, set[str]] = {k: {v} for k, v in plan.locations.items()}
    moved_at: dict[str, int] = {}

    for index, step in enumerate(plan.moves, start=1):
        def emit(code: str, message: str, *, severity: Severity | None = None):
            diagnostics.append(
                diag(code, message, file=label, line=index, severity=severity)
            )

        if topo.cores and step.destination not in topo.cores:
            emit(
                "FG405",
                f"step moves {step.complet!r} to unknown Core "
                f"{step.destination!r}",
            )
        if topo.complets and step.complet not in topo.complets:
            emit(
                "FG405",
                f"step moves unknown complet {step.complet!r}",
                severity=Severity.WARNING,
            )
        if step.source is not None and topo.cores and step.source not in topo.cores:
            emit(
                "FG405",
                f"step declares unknown source Core {step.source!r}",
            )

        where = current.get(step.complet)
        if step.source is not None and where is not None and step.source != where:
            emit(
                "FG405",
                f"step declares source {step.source!r} but {step.complet!r} "
                f"is at {where!r} at this point in the plan",
            )
        if step.source is not None and where is None:
            where = step.source
            held.setdefault(step.complet, set()).add(step.source)

        if where == step.destination:
            emit(
                "FG408",
                f"no-op step: {step.complet!r} is already at "
                f"{step.destination!r}",
            )
        elif step.complet in moved_at:
            prior = moved_at[step.complet]
            if step.destination in held.get(step.complet, set()):
                emit(
                    "FG407",
                    f"self-preempting plan: step returns {step.complet!r} to "
                    f"{step.destination!r}, which step {prior} deliberately "
                    f"vacated",
                )
            else:
                emit(
                    "FG406",
                    f"conflicting destinations: step {prior} already moves "
                    f"{step.complet!r} to {current.get(step.complet)!r}",
                )

        if effects:
            for rule, rule_dest in _fighting_rules(step, effects):
                emit(
                    "FG409",
                    f"step moves {step.complet!r} to {step.destination!r} but "
                    f"the rule in {rule.location} (on {rule.event}) moves it "
                    f"to {rule_dest!r} on arrival; the rule would immediately "
                    f"override the plan",
                )

        # Commit the step to the simulated layout.
        if where is not None:
            held.setdefault(step.complet, set()).add(where)
        held.setdefault(step.complet, set()).add(step.destination)
        current[step.complet] = step.destination
        moved_at[step.complet] = index

    return sort_diagnostics(diagnostics)
