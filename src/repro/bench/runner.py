"""The bench runner: execute areas, persist baselines, check regressions.

Baselines live at the repository root as ``BENCH_<area>.json``::

    {
      "area": "marshal",
      "schema": 1,
      "targeted_metric": "serializer_bytes_out",
      "entries": [
        {"label": "pre-fix",  "metrics": {...}},
        {"label": "post-fix", "metrics": {...}}
      ]
    }

Entries are ordered oldest-first; the *last* entry is the committed
baseline that ``--check`` compares a fresh run against.  Every metric is
virtual-clock-deterministic except ``wall_seconds``, which is recorded
for context and never compared.  A metric more than
:data:`REGRESSION_TOLERANCE` worse than the baseline fails the check.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass
from pathlib import Path

from repro.sim.clock import forbid_real_clocks

from .scenarios import SCENARIOS

SCHEMA_VERSION = 1

#: Fractional worsening tolerated before ``--check`` fails (the policy
#: from docs/BENCHMARKS.md; deterministic runs normally diff by 0).
REGRESSION_TOLERANCE = 0.15

#: Metrics recorded for context only, never compared (wall-derived).
#: The ``_wall_seconds`` suffix marks further wall-derived metrics from
#: real-clock areas (e.g. the supervision area's restart MTTR).
UNCOMPARED_METRICS = frozenset({"wall_seconds", "sanitizer_overhead_pct"})
UNCOMPARED_SUFFIX = "_wall_seconds"


def is_uncompared(name: str) -> bool:
    return name in UNCOMPARED_METRICS or name.endswith(UNCOMPARED_SUFFIX)

#: Metric names where a larger value is an improvement: throughput, and
#: the store's cache hits and the bytes they saved.
_HIGHER_BETTER_SUFFIXES = ("_per_vsec", "_hits", "_saved")


def metric_direction(name: str) -> str:
    """``"higher"`` if a bigger value is better for ``name``, else ``"lower"``."""
    if name.endswith(_HIGHER_BETTER_SUFFIXES):
        return "higher"
    return "lower"


def run_area(area: str) -> dict:
    """Execute one scenario under the real-clock ban; return its metrics.

    ``real_clock`` areas (real OS processes, e.g. supervision) are the
    exception: they run without the ban, and their timing metrics use
    the ``_wall_seconds`` suffix so they are never compared.
    """
    scenario = SCENARIOS[area]
    started = time.perf_counter()
    if scenario.real_clock:
        metrics = scenario.fn()
    else:
        with forbid_real_clocks():
            metrics = scenario.fn()
    metrics["wall_seconds"] = round(time.perf_counter() - started, 4)
    return metrics


def baseline_path(root: Path, area: str) -> Path:
    return root / f"BENCH_{area}.json"


def load_baseline(root: Path, area: str) -> dict | None:
    path = baseline_path(root, area)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def record_entry(root: Path, area: str, label: str, metrics: dict) -> dict:
    """Append (or replace, by label) an entry in the area's BENCH file."""
    baseline = load_baseline(root, area)
    if baseline is None:
        baseline = {
            "area": area,
            "schema": SCHEMA_VERSION,
            "targeted_metric": SCENARIOS[area].targeted_metric,
            "entries": [],
        }
    entries = [entry for entry in baseline["entries"] if entry["label"] != label]
    entries.append({"label": label, "metrics": metrics})
    baseline["entries"] = entries
    baseline_path(root, area).write_text(json.dumps(baseline, indent=2) + "\n")
    return baseline


@dataclass
class MetricDelta:
    """One compared metric of one area."""

    area: str
    metric: str
    baseline: float
    current: float
    #: Fractional change, sign-normalised so positive means *worse*.
    worsening: float
    regressed: bool

    def to_json(self) -> dict:
        return {
            "area": self.area,
            "metric": self.metric,
            "baseline": self.baseline,
            "current": self.current,
            "worsening": round(self.worsening, 6),
            "regressed": self.regressed,
        }


def compare_metrics(area: str, baseline: dict, current: dict) -> list[MetricDelta]:
    """Diff a fresh run against a committed entry, metric by metric.

    Metrics present on only one side are skipped (adding a metric must
    not break an older baseline); ``wall_seconds`` is never compared.
    """
    deltas = []
    for name, base_value in baseline.items():
        if is_uncompared(name) or name not in current:
            continue
        current_value = float(current[name])
        base = float(base_value)
        if base == 0.0:
            worsening = 0.0 if current_value == 0.0 else float("inf")
            if metric_direction(name) == "higher":
                worsening = 0.0  # can only improve from zero
        else:
            change = (current_value - base) / abs(base)
            worsening = -change if metric_direction(name) == "higher" else change
        deltas.append(
            MetricDelta(
                area=area,
                metric=name,
                baseline=base,
                current=current_value,
                worsening=worsening,
                regressed=worsening > REGRESSION_TOLERANCE,
            )
        )
    return deltas


def check_area(root: Path, area: str) -> tuple[list[MetricDelta], str | None]:
    """Run ``area`` fresh and compare it against its committed baseline.

    Returns ``(deltas, error)`` where ``error`` describes a missing or
    unusable baseline (itself a check failure).
    """
    baseline = load_baseline(root, area)
    if baseline is None:
        return [], f"no committed baseline {baseline_path(root, area).name}"
    if not baseline.get("entries"):
        return [], f"baseline {baseline_path(root, area).name} has no entries"
    current = run_area(area)
    last = baseline["entries"][-1]
    return compare_metrics(area, last["metrics"], current), None


def _parse_areas(spec: str | None) -> list[str]:
    if spec is None:
        return list(SCENARIOS)
    areas = [area.strip() for area in spec.split(",") if area.strip()]
    unknown = [area for area in areas if area not in SCENARIOS]
    if unknown:
        raise SystemExit(
            f"unknown bench area(s): {', '.join(unknown)}; "
            f"known: {', '.join(SCENARIOS)}"
        )
    return areas


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Deterministic bench runner over the virtual clock.",
    )
    parser.add_argument(
        "--areas",
        help="comma-separated areas (default: all)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare a fresh run against the committed BENCH_*.json baselines "
        f"and fail on >{REGRESSION_TOLERANCE:.0%}% regression",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="write the run into BENCH_<area>.json under --label",
    )
    parser.add_argument(
        "--label",
        default="baseline",
        help="entry label for --update (default: baseline)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path.cwd(),
        help="directory holding the BENCH_*.json files (default: cwd)",
    )
    parser.add_argument(
        "--deltas-out",
        type=Path,
        help="with --check: write the per-metric deltas to this JSON file",
    )
    parser.add_argument(
        "--list", action="store_true", help="list known areas and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        for name, scenario in SCENARIOS.items():
            target = (
                f" [targets {scenario.targeted_metric}]"
                if scenario.targeted_metric
                else ""
            )
            print(f"{name:16s} {scenario.description}{target}")
        return 0

    areas = _parse_areas(args.areas)

    if args.check:
        failed = False
        all_deltas: list[MetricDelta] = []
        for area in areas:
            deltas, error = check_area(args.root, area)
            if error is not None:
                print(f"FAIL {area}: {error}")
                failed = True
                continue
            regressions = [delta for delta in deltas if delta.regressed]
            all_deltas.extend(deltas)
            if regressions:
                failed = True
                print(f"FAIL {area}:")
                for delta in regressions:
                    print(
                        f"  {delta.metric}: {delta.baseline} -> {delta.current} "
                        f"({delta.worsening:+.1%} worse)"
                    )
            else:
                print(f"ok   {area} ({len(deltas)} metrics within tolerance)")
        if args.deltas_out is not None:
            args.deltas_out.write_text(
                json.dumps([delta.to_json() for delta in all_deltas], indent=2)
                + "\n"
            )
        return 1 if failed else 0

    for area in areas:
        metrics = run_area(area)
        if args.update:
            record_entry(args.root, area, args.label, metrics)
            print(f"{area}: recorded entry {args.label!r}")
        else:
            print(f"{area}:")
        for name in sorted(metrics):
            print(f"  {name} = {metrics[name]}")
    return 0
