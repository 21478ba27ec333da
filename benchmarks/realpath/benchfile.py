"""``BENCHMARK.json``: where it is, what it must look like, what it declares.

The file at the root of the repository is the contract every later
performance claim is checked against, so the benchmark refuses to print
a metric the file does not declare, and the unit tests validate the
file's shape.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

PATH = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"

KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOAD_COUNT = 4
MAX_END_TO_END = 16
MAX_PER_LAYER = 128
#: The driver's ceiling on a regression bound.
MAX_BOUND = 0.25


def load(path: Path = PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def problems(spec: dict) -> list[str]:
    """Everything wrong with ``spec``; an empty list means it is valid."""
    found: list[str] = []
    if set(spec) != KEYS:
        found.append(f"keys are {sorted(spec)}, expected {sorted(KEYS)}")
        return found
    run_seconds = spec["run_seconds"]
    if not isinstance(run_seconds, int) or not 1 <= run_seconds <= 60:
        found.append(f"run_seconds {run_seconds!r} is not a whole number from 1 to 60")
    names: list[str] = []
    workloads = spec["workloads"]
    if len(workloads) != WORKLOAD_COUNT:
        found.append(f"{len(workloads)} workloads, expected {WORKLOAD_COUNT}")
    for workload in workloads:
        if set(workload) != {"name", "why"}:
            found.append(f"workload {workload!r} must have exactly name and why")
            continue
        names.append(workload["name"])
        why = workload["why"]
        if not why or len(why) > 200 or "\n" in why:
            found.append(f"why of {workload['name']} is not one line of 1..200 characters")
    for group, limit, keys in (
        ("end_to_end", MAX_END_TO_END, {"name", "unit", "better", "bound"}),
        ("per_layer", MAX_PER_LAYER, {"name", "unit", "better"}),
    ):
        metrics = spec[group]
        if not 1 <= len(metrics) <= limit:
            found.append(f"{len(metrics)} {group} metrics, allowed 1..{limit}")
        for metric in metrics:
            if set(metric) != keys:
                found.append(f"{group} metric {metric!r} must have exactly {sorted(keys)}")
                continue
            names.append(metric["name"])
            if not UNIT.fullmatch(metric["unit"]):
                found.append(f"unit {metric['unit']!r} of {metric['name']} is not allowed")
            if metric["better"] not in ("lower", "higher"):
                found.append(f"better of {metric['name']} is {metric['better']!r}")
            if "bound" in keys and not 0.0 < metric["bound"] <= MAX_BOUND:
                found.append(f"bound of {metric['name']} is outside (0, {MAX_BOUND}]")
    for name in names:
        if not isinstance(name, str) or not NAME.fullmatch(name):
            found.append(f"name {name!r} does not match {NAME.pattern}")
    if len(set(names)) != len(names):
        found.append("a name is used more than once")
    setup = [m for m in spec["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        found.append("end_to_end lacks setup_s with unit s and better lower")
    return found


def declared(spec: dict, group: str) -> dict[str, dict]:
    """The metrics of ``group`` (``end_to_end`` or ``per_layer``) by name."""
    return {metric["name"]: metric for metric in spec[group]}


def undeclared(spec: dict, group: str, printed: dict[str, dict]) -> list[str]:
    """Mismatches between what a run printed and what ``group`` declares."""
    expected = declared(spec, group)
    found = [f"{name} is printed but not declared" for name in printed if name not in expected]
    for name, metric in expected.items():
        if name not in printed:
            found.append(f"{name} is declared but not printed")
        elif printed[name]["unit"] != metric["unit"]:
            found.append(
                f"{name} is printed in {printed[name]['unit']}, declared in {metric['unit']}"
            )
    return found
