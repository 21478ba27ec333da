"""Static analysis for FarGo deployments (the ``FGxxx`` rule family).

Four checker families share one diagnostic framework:

- :func:`check_script` — layout-script verification (FG1xx) over the
  :mod:`repro.script` AST, optionally resolved against a topology;
- :func:`check_relocation` — relocation-semantics verification (FG2xx)
  over :class:`~repro.analysis.model.LayoutModel`, the §3 layout contract;
- :func:`check_complet_source` / :func:`check_anchor_live` — complet
  movability verification (FG3xx) in source and live modes;
- :func:`check_interaction` / :func:`check_plan` — plan & interaction
  analysis (FG4xx) over the *whole installed script set* and over
  batched :class:`MovePlan` objects, with
  :class:`~repro.analysis.sanitizer.LayoutSanitizer` as the dynamic
  cross-check (``Cluster(sanitize=True)``, FG410).

Entry points: ``python -m repro.analysis`` (CLI), the ``lint`` command
in :mod:`repro.shell`, and :meth:`Cluster.analyze`.
"""

from repro.analysis.diagnostics import (
    RULES,
    Diagnostic,
    RuleInfo,
    Severity,
    apply_suppressions,
    diag,
    has_errors,
    render_json,
    render_sarif,
    render_text,
    sort_diagnostics,
    suppressed_lines,
    unused_suppressions,
    worst_severity,
)
from repro.analysis.interaction import check_interaction, script_set_effects
from repro.analysis.model import LayoutModel, check_relocation, mutating_methods
from repro.analysis.movability import (
    UNPICKLABLE_FACTORIES,
    check_anchor_live,
    check_complet_source,
)
from repro.analysis.plan import MovePlan, PlannedMove, check_plan
from repro.analysis.sanitizer import LayoutSanitizer, ObservedRace
from repro.analysis.script_check import TopologyInfo, check_script

__all__ = [
    "RULES",
    "Diagnostic",
    "LayoutModel",
    "LayoutSanitizer",
    "MovePlan",
    "ObservedRace",
    "PlannedMove",
    "RuleInfo",
    "Severity",
    "TopologyInfo",
    "UNPICKLABLE_FACTORIES",
    "apply_suppressions",
    "check_anchor_live",
    "check_complet_source",
    "check_interaction",
    "check_plan",
    "check_relocation",
    "check_script",
    "diag",
    "has_errors",
    "mutating_methods",
    "render_json",
    "render_sarif",
    "render_text",
    "script_set_effects",
    "sort_diagnostics",
    "suppressed_lines",
    "unused_suppressions",
    "worst_severity",
]
