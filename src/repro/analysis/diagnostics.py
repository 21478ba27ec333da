"""The diagnostic framework shared by every analyzer family.

A :class:`Diagnostic` is one finding: a stable rule code (``FG101``), a
severity, a human message, and an optional source span.  The rule
catalog (:data:`RULES`) fixes the default severity and one-line title of
every code, so reporters, docs, and tests all speak the same vocabulary.

Per-line suppression uses the comment syntax::

    move $c to gpu-42   # fargo: ignore[FG104]
    ...                 # fargo: ignore          (suppress everything)

which works both in layout scripts and in Python complet sources (both
languages comment with ``#``).  Suppressions are matched against the
*file* line of the diagnostic, so embedded scripts inherit the syntax
unchanged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum


class Severity(str, Enum):
    """How bad a finding is; orders ``error > warning > info``."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 2, "warning": 1, "info": 0}[self.value]


@dataclass(frozen=True, slots=True)
class RuleInfo:
    """Catalog entry of one rule code."""

    code: str
    title: str
    severity: Severity
    family: str


def _rules(*entries: tuple[str, str, Severity, str]) -> dict[str, RuleInfo]:
    return {code: RuleInfo(code, title, sev, fam) for code, title, sev, fam in entries}


#: Stable catalog of every rule the analyzers can emit.
RULES: dict[str, RuleInfo] = _rules(
    # framework
    ("FG001", "unused suppression comment", Severity.INFO, "framework"),
    ("FG100", "source failed to parse", Severity.ERROR, "framework"),
    # script checker
    ("FG101", "undefined script variable", Severity.ERROR, "script"),
    ("FG102", "bad script argument reference", Severity.ERROR, "script"),
    ("FG103", "unknown event name", Severity.ERROR, "script"),
    ("FG104", "unknown Core name", Severity.ERROR, "script"),
    ("FG105", "unknown complet identifier", Severity.WARNING, "script"),
    ("FG106", "type-mismatched threshold or operand", Severity.ERROR, "script"),
    ("FG107", "duplicate or conflicting rules", Severity.WARNING, "script"),
    ("FG108", "statically detectable move cycle", Severity.WARNING, "script"),
    ("FG109", "missing required clause or argument", Severity.ERROR, "script"),
    ("FG110", "unknown reference type", Severity.ERROR, "script"),
    ("FG111", "unknown or misplaced call action", Severity.WARNING, "script"),
    # relocation-semantics checker
    ("FG201", "move amplification through pull closure", Severity.WARNING, "relocation"),
    ("FG202", "duplicate-typed reference to a mutable target", Severity.WARNING, "relocation"),
    ("FG203", "stamp target type missing at destination", Severity.WARNING, "relocation"),
    ("FG204", "conflicting relocation semantics on one edge", Severity.WARNING, "relocation"),
    ("FG205", "large mutable duplicate without store offloading", Severity.WARNING, "relocation"),
    # movability checker
    ("FG301", "unpicklable complet field", Severity.ERROR, "movability"),
    ("FG302", "direct cross-complet reference", Severity.ERROR, "movability"),
    ("FG303", "captured callable cannot be marshaled", Severity.ERROR, "movability"),
    # plan & interaction analysis
    ("FG401", "concurrent move/move race on one complet", Severity.WARNING, "interaction"),
    ("FG402", "cross-script move oscillation", Severity.WARNING, "interaction"),
    ("FG403", "move races a failover/restore action", Severity.WARNING, "interaction"),
    ("FG404", "retype race on one reference edge", Severity.WARNING, "interaction"),
    ("FG405", "unsatisfiable plan step", Severity.ERROR, "plan"),
    ("FG406", "conflicting destinations within one plan", Severity.ERROR, "plan"),
    ("FG407", "self-preempting plan", Severity.ERROR, "plan"),
    ("FG408", "no-op plan step", Severity.INFO, "plan"),
    ("FG409", "plan step fights an installed layout rule", Severity.WARNING, "plan"),
    ("FG410", "sanitizer-observed layout race", Severity.WARNING, "interaction"),
)


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One analyzer finding."""

    code: str
    message: str
    severity: Severity
    file: str | None = None
    line: int = 0
    column: int = 0

    @property
    def location(self) -> str:
        name = self.file if self.file is not None else "<input>"
        if self.line:
            return f"{name}:{self.line}:{self.column}"
        return name

    def render(self) -> str:
        return f"{self.location}: {self.severity.value} {self.code}: {self.message}"

    def at(self, *, file: str | None = None, line: int | None = None) -> "Diagnostic":
        """Copy of this diagnostic re-anchored (embedded-script mapping)."""
        return Diagnostic(
            code=self.code,
            message=self.message,
            severity=self.severity,
            file=file if file is not None else self.file,
            line=line if line is not None else self.line,
            column=self.column,
        )


def diag(
    code: str,
    message: str,
    *,
    file: str | None = None,
    line: int = 0,
    column: int = 0,
    severity: Severity | None = None,
) -> Diagnostic:
    """Build a diagnostic for ``code``, defaulting severity from the catalog."""
    rule = RULES[code]
    return Diagnostic(
        code=code,
        message=message,
        severity=severity if severity is not None else rule.severity,
        file=file,
        line=line,
        column=column,
    )


def sort_diagnostics(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    return sorted(
        diagnostics,
        key=lambda d: (d.file or "", d.line, d.column, d.code, d.message),
    )


def worst_severity(diagnostics: list[Diagnostic]) -> Severity | None:
    if not diagnostics:
        return None
    return max((d.severity for d in diagnostics), key=lambda s: s.rank)


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)


# -- suppression -----------------------------------------------------------------

_IGNORE_RE = re.compile(r"#\s*fargo:\s*ignore(?:\[([A-Za-z0-9_,\s]*)\])?")


def suppressed_lines(source: str) -> dict[int, frozenset[str] | None]:
    """Map of 1-based line number to the codes suppressed there.

    ``None`` means every code is suppressed on that line (a bare
    ``# fargo: ignore``).
    """
    table: dict[int, frozenset[str] | None] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _IGNORE_RE.search(text)
        if match is None:
            continue
        codes = match.group(1)
        if codes is None or not codes.strip():
            table[lineno] = None
        else:
            table[lineno] = frozenset(c.strip().upper() for c in codes.split(",") if c.strip())
    return table


def apply_suppressions(
    diagnostics: list[Diagnostic], source: str
) -> list[Diagnostic]:
    """Drop diagnostics whose line carries a matching suppression comment."""
    table = suppressed_lines(source)
    if not table:
        return list(diagnostics)
    kept = []
    for d in diagnostics:
        codes = table.get(d.line, ...)
        if codes is None or (codes is not ... and d.code in codes):
            continue
        kept.append(d)
    return kept


def unused_suppressions(
    diagnostics: list[Diagnostic], source: str, *, file: str | None = None
) -> list[Diagnostic]:
    """FG001 findings for suppression comments that suppress nothing.

    ``diagnostics`` must be the *pre-suppression* report for ``source``:
    a ``# fargo: ignore`` that matches no finding on its line — or whose
    bracketed code list names codes no finding on that line carries — is
    dead weight that hides future regressions (ruff's unused-``noqa``).
    """
    by_line: dict[int, set[str]] = {}
    for d in diagnostics:
        by_line.setdefault(d.line, set()).add(d.code)
    findings: list[Diagnostic] = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _IGNORE_RE.search(text)
        if match is None:
            continue
        present = by_line.get(lineno, set())
        codes = match.group(1)
        if codes is None or not codes.strip():
            if present:
                continue
            message = "unused blanket suppression: no diagnostic on this line"
        else:
            wanted = [c.strip().upper() for c in codes.split(",") if c.strip()]
            dead = [c for c in wanted if c not in present]
            if not dead:
                continue
            message = (
                f"unused suppression of {', '.join(dead)}: "
                f"no such diagnostic on this line"
            )
        findings.append(
            diag("FG001", message, file=file, line=lineno, column=match.start() + 1)
        )
    return findings


# -- reporters --------------------------------------------------------------------


def render_text(diagnostics: list[Diagnostic]) -> str:
    """The canonical text report (one line per finding plus a summary)."""
    ordered = sort_diagnostics(diagnostics)
    lines = [d.render() for d in ordered]
    errors = sum(1 for d in ordered if d.severity is Severity.ERROR)
    warnings = sum(1 for d in ordered if d.severity is Severity.WARNING)
    if not ordered:
        lines.append("no diagnostics")
    else:
        lines.append(f"{errors} error(s), {warnings} warning(s)")
    return "\n".join(lines)
