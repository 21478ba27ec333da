"""The surface table of ``src/repro``: one row per module, and what consumes it.

Run from anywhere, with nothing beyond the standard library::

    python docs/surface.py > docs/SURFACE.md

For every module under ``src/repro`` the table gives

- its physical lines (what ``make loc`` adds up);
- the files outside its own package that import it, across
  ``src/repro``, ``examples/`` and ``benchmarks/``, read with :mod:`ast`
  (a name a package ``__init__`` re-exports is followed to the module
  that defines it);
- the ``repro.bench`` areas and ``examples/*.py`` that run any of its
  lines, counted with :mod:`trace`;
- the lines of its functions that none of those runs;
- a verdict: why it stays (:data:`VERDICTS`, :data:`MODULE_VERDICTS`).

Each area and each example runs in an interpreter of its own
(``python docs/surface.py --run area:store`` prints what one run hit).
Every ``repro`` module is imported there before counting starts, so a
line counts when a function runs it, not when its module is imported.
A target on real sockets runs :data:`SOCKET_RUNS` times and keeps the
lines most runs hit, which holds the table still from one run of this
script to the next.  Lines that run in a child Core's process
(``transport="procs"``) are not seen: the child is forked from a
template that is not traced.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import runpy
import subprocess
import sys
import threading
import trace
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
EXAMPLES = ROOT / "examples"
#: Where importers are looked for, besides src/repro itself.
CONSUMERS = (EXAMPLES, ROOT / "benchmarks")
#: A cell lists at most this many names before it counts them instead.
LIST_AT_MOST = 6
#: Runs of a target on real sockets.  Thread timing decides a few of its
#: branches (a child that listens before its handlers are up, a reply that
#: races a close), so a line counts as run by it when most runs hit it.
SOCKET_RUNS = 3

#: Package (the first directory under src/repro; "repro" for the modules
#: beside ``__init__.py``) -> why its modules stay.
VERDICTS = {
    "repro": "kept: the public names and the typed errors every layer raises",
    "analysis": "open (aim 3): decided once the schedule explorer exists",
    "apps": "kept: the bundled applications the examples and the taskfarm area run",
    "bench": "kept for aim 1: `python -m repro.bench --check`",
    "cluster": "kept for aims 2 and 3: the one deployment handle",
    "complet": "paper artifact: Figure 1's stubs, trackers, relocators and marshaling",
    "core": "paper artifact: Figure 1's Core, its invocation and movement units",
    "metrics": "kept for aim 4: the metrics every snapshot merges",
    "monitor": "paper artifact: Figure 1's monitor and events",
    "net": "paper artifact: Figure 1's peer interface; TCP is aim 1's real path",
    "recovery": "kept for aim 3: one recovery path over handles",
    "script": "paper artifact: the layout script language",
    "shell": "paper artifact: Figure 1's shell",
    "sim": "kept for aim 3: the virtual clock every test and bench area runs on",
    "store": "kept for aim 1: the `store` area and realpath's `invoke_bulk`",
    "trace": "kept for aim 4: spans across Cores and processes",
    "util": "kept: helpers of the layers above",
    "viewer": "paper artifact: the viewer (Figure 4)",
}

#: Module (path under src/repro) -> a verdict of its own.
MODULE_VERDICTS = {
    "analysis/__init__.py": (
        "kept: `check_paths`, the one file front end (`python -m repro.analysis`, CI's "
        "`analysis` job, the shell's `lint @path`)"
    ),
    "analysis/__main__.py": "kept: `python -m repro.analysis PATH ...`, CI's `analysis` job",
    "analysis/diagnostics.py": (
        "kept: the finding, the rule catalog and the suppression comments every checker shares"
    ),
    "analysis/script_check.py": (
        "kept: the §4.3 language's linter (FG101–FG111), the one arrival-move graph "
        "FG108 and FG402 read and the one order-dependence check FG107, FG401, FG403 and "
        "FG404 read; the `analysis` area runs it"
    ),
    "analysis/movability.py": "kept: FG301–FG303, which `Cluster.analyze` and `check_paths` run",
    "analysis/plan.py": (
        "kept for aim 2: FG405–FG409, the check the layout executor runs before every plan"
    ),
    "analysis/layout.py": (
        "kept for aim 2: the one layout-policy interface; the `adaptive_layout`, `pipeline` "
        "and `taskfarm` areas run its solvers, every script move its executor"
    ),
    "analysis/model.py": (
        "kept for aim 3: the executable §3 layout contract, failures and recovery included; "
        "the chaos soaks and the cluster state machine check their cluster against it step by "
        "step, and FG201–FG205 are its predicates"
    ),
    "apps/catalog.py": "kept: `examples/replicated_catalog.py` runs it",
    "cluster/chaos.py": (
        "kept for aim 3: the seeded chaos soaks (`python -m repro.cluster.chaos`), checked "
        "against `analysis/model.py`"
    ),
    "complet/compiler.py": "paper artifact: the stub compiler (`python -m repro.complet.compiler`)",
    "trace/export.py": "kept for aim 4: `cluster.traces()` and the chaos soaks' Chrome traces",
    "viewer/traceview.py": "kept for aim 4: the shell's trace view",
    "cluster/launch.py": "kept for aim 1: `transport=\"procs\"`, realpath's deployments",
    "cluster/forkserver.py": (
        "kept for aims 1 and 2: forks every `procs` child from one imported image, "
        "knowing nothing of Cores (the `supervision` area's `interpreter_starts`)"
    ),
    "cluster/supervisor.py": "kept for aim 3: respawns `procs` children; the `supervision` area",
    "complet/marshal.py": (
        "paper artifact: marshaling; `_offload_stream` kept: the `store` area's targeted "
        "metric measures it (`store_move_net_bytes` 597 B against 1 049 278 B eager)"
    ),
    "core/locator.py": "kept: the location registry of the paper's future work (EXPERIMENTS C12)",
    "recovery/checkpoint.py": (
        "kept for aims 2 and 3: the one checkpointer, one per Core on every backend "
        "(`enable_recovery()`, each `procs` child's `serve()`; the `supervision` area's children)"
    ),
    "shell/complet.py": "paper artifact: the shell's complet commands (Figure 1)",
    "viewer/timeline.py": "kept: `examples/wan_deployment.py` runs `MovementTimeline`",
}

#: Modules cut once this table showed no consumer, with the row it printed for them.
CUT = {
    "net/batching.py": (
        "263 lines; importers outside `net/`: `bench/`, the store benchmark, `repro/`; "
        "run by the `transport` area alone, in a segment that measured nothing but itself "
        "(49 of its 104 function lines by nothing at all); no example, realpath workload or "
        "EXPERIMENTS id ran it.  Its policy and stats classes, its message kind and the "
        "Transport-instance form of `Cluster(transport=)`, its one caller, went with it"
    ),
    "analysis/cli.py": (
        "293 lines; importers outside `analysis/`: `shell/` (`lint @file`); run by no area or "
        "example (137 of its 137 function lines).  Its file walking, embedded scripts and "
        "suppressions became `check_paths`, which `python -m repro.analysis` and the shell's "
        "`lint @path` call; its six flags went, JSON and SARIF reports and `--cluster-spec` "
        "with them"
    ),
    "analysis/relocation.py": (
        "353 lines; importers outside `analysis/`: `cluster/` (`Cluster.analyze`); run by no "
        "area or example (192 of its 192 function lines).  Its private reference graph became "
        "`analysis/model.py`'s `LayoutModel`, whose transitions the cluster state machine "
        "checks every backend against; FG201–FG205 are predicates over that model"
    ),
}


# -- the modules -------------------------------------------------------------------------


def modules() -> dict[str, Path]:
    """Dotted name -> file, for every module under src/repro."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = path
    return found


def package_of(path: Path) -> str:
    """The first directory under src/repro, or "repro" beside ``__init__.py``."""
    parts = path.relative_to(PACKAGE).parts
    return parts[0] if len(parts) > 1 else "repro"


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path``'s functions that a call can run.

    Module and class bodies run at import, so they are left out; so is
    each ``def`` line, which a call does not report (a lambda or a
    comprehension has its body on its first line, and keeps it).
    """
    lines: set[int] = set()
    pending = [compile(path.read_text(), str(path), "exec")]
    while pending:
        code = pending.pop()
        pending.extend(const for const in code.co_consts if inspect.iscode(const))
        if code.co_flags & inspect.CO_OPTIMIZED:
            own = {line for *_, line in code.co_lines() if line is not None}
            if not code.co_name.startswith("<"):
                own.discard(code.co_firstlineno)
            lines |= own
    return lines


# -- who imports what --------------------------------------------------------------------


def _absolute(node: ast.ImportFrom, importer: str, is_package: bool) -> str:
    if not node.level:
        return node.module or ""
    base = importer.split(".")
    base = base[: len(base) - node.level + (1 if is_package else 0)]
    return ".".join(base + ([node.module] if node.module else []))


def _from_imports(path: Path, dotted: str) -> list[tuple[str, str, str]]:
    """``(source module, name, bound as)`` of every ``from ... import`` in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            source = _absolute(node, dotted, path.name == "__init__.py")
            found.extend((source, alias.name, alias.asname or alias.name) for alias in node.names)
    return found


def _reexports(mods: dict[str, Path]) -> dict[str, dict[str, tuple[str, str]]]:
    """Package -> name it re-exports -> ``(source module, name there)``."""
    return {
        dotted: {bound: (source, name) for source, name, bound in _from_imports(path, dotted)}
        for dotted, path in mods.items()
        if path.name == "__init__.py"
    }


def _resolve(source: str, name: str, mods, reexports, depth: int = 0) -> list[str]:
    """The modules ``from source import name`` goes through: ``source``, the
    packages that re-export ``name`` on the way, and the module defining it."""
    through = [source] if source in mods else []
    if f"{source}.{name}" in mods:
        return [*through, f"{source}.{name}"]
    origin = reexports.get(source, {}).get(name)
    if origin is not None and depth < 8:
        return [*through, *_resolve(*origin, mods, reexports, depth + 1)]
    return through


def imports_of(path: Path, dotted: str, mods, reexports) -> set[str]:
    """The repro modules ``path`` imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names if alias.name in mods)
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(node, dotted, path.name == "__init__.py")
            for alias in node.names:
                found.update(_resolve(source, alias.name, mods, reexports))
    return found


def importers(mods: dict[str, Path]) -> dict[str, set[Path]]:
    """Module -> the files outside its own package that import it."""
    reexports = _reexports(mods)
    files = {path: dotted for dotted, path in mods.items()}
    for directory in CONSUMERS:
        files.update({path: path.stem for path in directory.rglob("*.py")})
    found: dict[str, set[Path]] = {dotted: set() for dotted in mods}
    for path, dotted in files.items():
        for target in imports_of(path, dotted, mods, reexports):
            target_path = mods[target]
            inside = path.is_relative_to(PACKAGE) and package_of(path) == package_of(target_path)
            if not inside:
                found[target].add(path)
    return found


# -- what runs what ----------------------------------------------------------------------


def targets() -> list[str]:
    """Every bench area and every example, as ``area:<name>`` / ``example:<file>``."""
    sys.path.insert(0, str(SRC))
    from repro.bench.scenarios import SCENARIOS

    areas = [f"area:{name}" for name in SCENARIOS]
    return areas + [f"example:{path.name}" for path in sorted(EXAMPLES.glob("*.py"))]


def run_one(target: str) -> dict[str, list[int]]:
    """Run one target under :class:`trace.Trace`; the lines of src/repro it hit."""
    sys.path.insert(0, str(SRC))
    for info in pkgutil.walk_packages([str(PACKAGE)], "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    counter = trace.Trace(count=1, trace=0)
    prefix = f"{PACKAGE}{os.sep}"

    def globaltrace(frame, why, arg):
        # The counter's own local trace, for frames of src/repro only.
        if frame.f_code.co_filename.startswith(prefix):
            return counter.localtrace
        return None

    kind, name = target.split(":", 1)
    threading.settrace(globaltrace)
    sys.settrace(globaltrace)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if kind == "area":
                from repro.bench.runner import run_area

                run_area(name)
            else:
                sys.argv = [str(EXAMPLES / name)]
                runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    hits: dict[str, set[int]] = {}
    for filename, line in counter.counts:
        hits.setdefault(Path(filename).relative_to(PACKAGE).as_posix(), set()).add(line)
    return {module: sorted(lines) for module, lines in sorted(hits.items())}


def _run_in_child(target: str) -> dict[str, set[int]]:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--run", target],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{target} failed:\n{done.stderr}")
    hits = json.loads(done.stdout.splitlines()[-1])
    return {module: set(lines) for module, lines in hits.items()}


def run_all(names: list[str]) -> dict[str, dict[str, set[int]]]:
    """Target -> module -> the lines it hit, each run in an interpreter of its own.

    A target on real sockets (it ran ``net/tcp.py``) runs :data:`SOCKET_RUNS`
    times, and keeps the lines most of those runs hit.
    """
    results: dict[str, dict[str, set[int]]] = {}
    for target in names:
        runs = [_run_in_child(target)]
        if "net/tcp.py" in runs[0]:
            runs += [_run_in_child(target) for _ in range(SOCKET_RUNS - 1)]
        hit = Counter((module, line) for run in runs for module in run for line in run[module])
        results[target] = {}
        for (module, line), count in hit.items():
            if 2 * count > len(runs):
                results[target].setdefault(module, set()).add(line)
    return results


# -- the table ---------------------------------------------------------------------------


def _label(path: Path) -> str:
    if path.is_relative_to(PACKAGE):
        return f"{package_of(path)}/"
    return path.relative_to(ROOT).with_suffix("").as_posix()


def _cell(names: list[str], counted: dict[str, object]) -> str:
    """The names, or past :data:`LIST_AT_MOST` of them, how many of each kind."""
    if not names:
        return "—"
    if len(names) <= LIST_AT_MOST:
        return ", ".join(names)
    return ", ".join(f"{what} {count}" for what, count in counted.items() if count)


def _importers_cell(paths: set[Path]) -> str:
    src = sum(path.is_relative_to(PACKAGE) for path in paths)
    examples = sum(path.is_relative_to(EXAMPLES) for path in paths)
    counted = {"src": src, "examples": examples, "benchmarks": len(paths) - src - examples}
    return _cell(sorted({_label(path) for path in paths}), counted)


def _run_by_cell(names: list[str], areas: int, examples: int) -> str:
    ran_areas = sum(name.startswith("area:") for name in names)
    counted = {
        "areas": ran_areas and f"{ran_areas}/{areas}",
        "examples": (len(names) - ran_areas) and f"{len(names) - ran_areas}/{examples}",
    }
    return _cell([name.split(":", 1)[1] for name in names], counted)


def table() -> str:
    mods = modules()
    imported_by = importers(mods)
    runs = run_all(targets())
    areas = sum(name.startswith("area:") for name in runs)
    rows = []
    total_lines = total_missed = 0
    for dotted, path in mods.items():
        module = path.relative_to(PACKAGE).as_posix()
        executable = executable_lines(path)
        run_by = [name for name, hits in runs.items() if hits.get(module, set()) & executable]
        ran = set().union(*(hits.get(module, set()) for hits in runs.values()))
        missed = len(executable - ran)
        lines = len(path.read_text().splitlines())
        total_lines += lines
        total_missed += missed
        verdict = MODULE_VERDICTS.get(module, VERDICTS[package_of(path)])
        rows.append(
            f"| `{module}` | {lines} | {_importers_cell(imported_by[dotted])} "
            f"| {_run_by_cell(run_by, areas, len(runs) - areas)} "
            f"| {missed} of {len(executable)} | {verdict} |"
        )
    out = [
        "# The surface of `src/repro`",
        "",
        "Generated by `python docs/surface.py > docs/SURFACE.md`; see that",
        "script's docstring for how each column is found.  Do not edit by hand.",
        "",
        f"{len(rows)} modules, {total_lines} lines.  Of the lines inside their functions,",
        f"{total_missed} are run by none of the {areas} bench areas and "
        f"{len(runs) - areas} examples.",
        "",
        "| module | lines | importers outside its package | run by "
        "| function lines none runs | verdict |",
        "|---|---:|---|---|---:|---|",
        *rows,
        "",
        "## Cut",
        "",
        *(f"- `{module}`: {why}." for module, why in CUT.items()),
    ]
    return "\n".join(out) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--run", metavar="TARGET", help="run one area:NAME or example:FILE and print its hits"
    )
    args = parser.parse_args(argv)
    if args.run:
        print(json.dumps(run_one(args.run)))
        return 0
    sys.stdout.write(table())
    return 0


if __name__ == "__main__":
    sys.exit(main())
