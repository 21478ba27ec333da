"""realpath: wall-clock benchmark of FarGo's primitives over real TCP.

    python3 benchmarks/realpath/run.py --workload invoke_small --seed 1999 --seconds 20 --trace 0
    python3 benchmarks/realpath/run.py --workload invoke_small --seed 1999 --seconds 20 --trace 1
    python3 benchmarks/realpath/run.py --quick
    python3 benchmarks/realpath/run.py --selfcheck

Each run happens in a worker process in a process group of its own, so
child Cores that outlive a crash die with the group, and a run that
dies or hangs is reported as failed ops instead of hanging the caller.
The last line of standard output of a single run is the result as one
JSON object.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import benchfile
import stats

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1999
#: Runs per set of ``--selfcheck``.
RUNS_PER_SET = 5
#: A worker gets this long beyond its measured seconds (five set-ups,
#: probes, teardown) before it is killed; always under the driver's 180 s.
GRACE_SECONDS = 90
HARD_LIMIT_SECONDS = 170
#: Exit code of a worker that did not find the program under test; passed on
#: without a result.
NO_PROGRAM = 2


def kill_group(pgid: int) -> None:
    """Kill every process of the group and wait until none is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def run_worker(workload: str, seed: int, seconds: float, trace: int, extra=()):
    """Run one worker to its end; returns ``(exit code, result or None, text)``.

    A worker that crashed or overran its limit yields a result that
    counts its ops as failed.
    """
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    limit = min(HARD_LIMIT_SECONDS, seconds * 2 + GRACE_SECONDS)
    worker = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        text, _ = worker.communicate(timeout=limit)
        reason = f"worker exited with code {worker.returncode}"
    except subprocess.TimeoutExpired:
        reason = f"worker did not finish within {limit:.0f} s"
        kill_group(worker.pid)
        text, _ = worker.communicate()
    finally:
        kill_group(worker.pid)
    if worker.returncode == 0:
        try:
            return 0, json.loads(text.strip().splitlines()[-1]), text
        except (IndexError, ValueError):
            reason = "worker printed no result"
    if worker.returncode == NO_PROGRAM:
        return NO_PROGRAM, None, text
    failed = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return 1, failed, f"{text}realpath: {reason}; its ops count as failed\n"


def single(args) -> int:
    code, result, text = run_worker(args.workload, args.seed, args.seconds, args.trace)
    print(text, end="")
    if code == 1:  # the worker's own last line, if any, is not a result
        print(json.dumps(result))
    return code


def quick(spec: dict) -> int:
    """Every workload for 2 s, one set-up, both modes; for CI smoke use."""
    started = time.monotonic()
    status = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace in (0, 1):
            code, result, text = run_worker(
                workload, DEFAULT_SEED, 2.0, trace, ("--smoke",)
            )
            good = code == 0 and result["correct"] and result["failed"] == 0
            print(f"{workload:14s} trace={trace} "
                  f"{'ok' if good else 'FAILED'} "
                  f"attempted={result['attempted'] if result else 0} "
                  f"metrics={len(result['metrics']) if result else 0}")
            if not good:
                status = 1
                print(text)
    print(f"quick: {time.monotonic() - started:.1f} s")
    return status


def selfcheck(spec: dict, args) -> int:
    """Two interleaved sets of runs of the same code must agree within bounds."""
    bounds = benchfile.declared(spec, "end_to_end")
    status = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        sets: tuple[dict, dict] = ({}, {})
        for repeat in range(RUNS_PER_SET):
            for values in sets:
                code, result, text = run_worker(workload, args.seed + repeat, args.seconds, 0)
                if code != 0 or not result["correct"]:
                    print(text)
                    print(f"{workload}: run with seed {args.seed + repeat} failed")
                    return 1
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {RUNS_PER_SET} runs per set, {args.seconds:g} s each, "
              f"seeds {args.seed}..{args.seed + RUNS_PER_SET - 1}")
        print(f"  {'metric':12s} {'set A median':>14s} {'set B median':>14s} "
              f"{'difference':>10s} {'bound':>6s} {'spread':>7s}")
        for name, bound in bounds.items():
            first = statistics.median(sets[0][name])
            second = statistics.median(sets[1][name])
            difference = abs(stats.worsening(first, second, bound["better"]))
            spread = stats.quartile_spread(sets[0][name] + sets[1][name])
            verdict = "" if difference <= bound["bound"] else "  OUTSIDE"
            if verdict:
                status = 1
            print(f"  {name:12s} {first:14.4f} {second:14.4f} {difference:10.4f} "
                  f"{bound['bound']:6.2f} {spread:7.4f}{verdict}")
    return status


def main(argv: list[str] | None = None) -> int:
    spec = benchfile.load()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help=quick.__doc__)
    parser.add_argument("--selfcheck", action="store_true", help=selfcheck.__doc__)
    args = parser.parse_args(argv)
    if args.quick:
        return quick(spec)
    if args.selfcheck:
        return selfcheck(spec, args)
    if args.workload is None:
        parser.error("name a --workload (or use --quick or --selfcheck)")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
