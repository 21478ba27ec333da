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

Two front ends run them: :func:`check_paths` over files (``python -m
repro.analysis PATH ...`` and the shell's ``lint @path``) and
:meth:`Cluster.analyze` over a live cluster (the shell's ``lint``); both
check scripts through :func:`check_script_set`.
"""

import ast
import re

from repro.analysis.diagnostics import (
    RULES,
    Diagnostic,
    RuleInfo,
    Severity,
    apply_suppressions,
    diag,
    has_errors,
    render_text,
    sort_diagnostics,
    suppressed_lines,
    unused_suppressions,
    worst_severity,
)
from repro.analysis.interaction import (
    check_interaction,
    check_script_set,
    script_set_effects,
)
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
    "check_paths",
    "check_plan",
    "check_relocation",
    "check_script",
    "check_script_set",
    "diag",
    "has_errors",
    "mutating_methods",
    "render_text",
    "script_set_effects",
    "sort_diagnostics",
    "suppressed_lines",
    "unused_suppressions",
    "worst_severity",
]


#: File suffix of stand-alone layout scripts.
SCRIPT_SUFFIX = ".fgs"


def check_paths(paths: list[str], *, topology: TopologyInfo | None = None) -> list[Diagnostic]:
    """Every diagnostic of the files under ``paths``, sorted.

    A ``.fgs`` file is checked as a layout script; a ``.py`` file in
    complet mode (movability of every anchor class), and each script
    embedded in it (:func:`extract_embedded_scripts`) at the Python
    file's lines.  Directories are walked recursively.  All the scripts
    found are then checked as one set (FG401–FG404, cross-script FG108),
    an embedded one under a ``file:NAME`` label with script-relative
    lines.  A ``# fargo: ignore`` comment applies to its own file's
    findings, those of the set included, and one that suppresses nothing
    is FG001.  ``topology`` resolves Core and complet names.  A missing
    path raises :class:`FileNotFoundError`.
    """
    sources = {str(path): path.read_text(encoding="utf-8") for path in iter_target_files(paths)}
    per_file: dict[str, list[Diagnostic]] = {}
    scripts: list[tuple[str, str]] = []
    #: Per script: its file, and for an embedded one its first line and
    #: whether its lines map one to one.
    placed: list[tuple[str, int | None, bool]] = []
    for name, source in sources.items():
        if name.endswith(SCRIPT_SUFFIX):
            per_file[name] = []
            scripts.append((source, name))
            placed.append((name, None, True))
            continue
        per_file[name] = check_complet_source(source, file=name)
        for script_name, first_line, text, exact in extract_embedded_scripts(source):
            scripts.append((text, f"{name}:{script_name}"))
            placed.append((name, first_line, exact))
    each, together = check_script_set(scripts, topology=topology)
    for report, (name, first_line, exact) in zip(each, placed):
        for d in report:
            if first_line is not None:
                line = first_line + d.line - 1 if exact and d.line else first_line
                d = d.at(file=name, line=line)
            per_file[name].append(d)
    # The set's findings join their file's pool before suppression, so a
    # comment that silences only such a finding is not reported as unused.
    diagnostics = []
    for d in together:
        per_file.get(d.file, diagnostics).append(d)
    for name, found in per_file.items():
        diagnostics.extend(apply_suppressions(found, sources[name]))
        diagnostics.extend(unused_suppressions(found, sources[name], file=name))
    return sort_diagnostics(diagnostics)


def iter_target_files(paths: list[str]) -> list:
    """``paths`` as files: a directory gives its ``.py`` and ``.fgs`` files, recursively."""
    # Imported here: pathlib costs about 0.6 MiB that the checkers never need.
    from pathlib import Path

    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(
                p for p in sorted(path.rglob("*"))
                if p.suffix in (".py", SCRIPT_SUFFIX) and p.is_file()
            )
        else:
            files.append(path)
    return files


_SCRIPT_SHAPE_RE = re.compile(r"(^|\n)\s*(on\s|\$\w+\s*=)")


def extract_embedded_scripts(source: str) -> list[tuple[str, int, str, bool]]:
    """``(name, first_line, script_source, exact_lines)`` tuples.

    An embedded script is a string constant assigned — at module or
    class level — to a name containing ``SCRIPT`` (the repo-wide
    convention: ``PAPER_SCRIPT``, ``RETRY_SCRIPT``, ...) whose text
    looks like rules (so ``SCRIPT_SUFFIX = ".fgs"`` is not one).

    ``exact_lines`` is True for physical multi-line strings, where
    script line *i* sits at file line ``first_line + i - 1``; strings
    built with escaped ``\\n`` collapse to the assignment's line.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return []
    found: list[tuple[str, int, str, bool]] = []
    scopes: list[list[ast.stmt]] = [tree.body]
    scopes.extend(n.body for n in tree.body if isinstance(n, ast.ClassDef))
    for body in scopes:
        for node in body:
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            value = node.value
            if (
                isinstance(target, ast.Name)
                and "SCRIPT" in target.id.upper()
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
                and _SCRIPT_SHAPE_RE.search(value.value)
            ):
                text = value.value
                # In a physical multi-line string every cooked newline is
                # a physical newline, so counting back from end_lineno
                # lands on the first script line.  Escaped-\n strings
                # span fewer physical lines than cooked ones and cannot
                # be mapped per-line.
                exact = value.end_lineno - value.lineno >= text.count("\n")
                first_line = value.end_lineno - text.count("\n") if exact else node.lineno
                found.append((target.id, first_line, text, exact))
    return found
