"""One run of one workload, in its own process (started by run.py).

``--trace 0`` is the end-to-end run: set the deployment up five times
back to back and measure ``--seconds`` on the fifth, with nothing
wrapped.  ``--trace 1`` is the per-layer run: the same workload on
in-process hubs, once with wrappers off and once with them on, then the
isolation probes.  The last line of standard output is the result as
one JSON object.

Exit codes: 0 the run completed (``correct`` says whether every check
held), 2 the program under test is not there, anything else a crash.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import benchfile
import stats
import tracing
import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
#: Ops whose spans are written to the span dump (all are swept).
DUMPED_OPS = 200
#: At most this many traced ops are swept, to bound memory and time.
TRACED_OPS = 20000
PROBE_REPEATS = 30
#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUPS = 5
#: Share of a traced run's seconds spent with wrappers off: the p99 of
#: that round needs 1100 ops, the per-layer means of the other far fewer.
PLAIN_SHARE = 2 / 3


def pin_to_one_cpu() -> int:
    """Pin this process (and so its threads and children) to one CPU.

    A wake-up across CPUs costs about as much as a small call and varies
    by half; on one CPU the numbers are the program's work plus its
    context switches.  The highest allowed CPU is taken because CPU 0
    serves most interrupts.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def peak_rss_mib(pids: list[int]) -> float:
    """Sum of the peak resident sets (``VmHWM``) of ``pids``, in MiB."""
    total_kib = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
    return total_kib / 1024


def calibration_us() -> float:
    """Median time of a fixed piece of interpreter work, to spot a slow machine."""
    samples = []
    for _ in range(21):
        start = time.perf_counter()
        total = 0
        for value in range(20000):
            total += value * value % 7
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


class Run:
    """One run's bookkeeping: notes for the reader, metrics, correctness."""

    def __init__(self, args, sut) -> None:
        self.args = args
        self.sut = sut
        self.workload_cls = workloads.WORKLOADS[args.workload]
        self.notes: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.sample_counts: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        #: What the measured window of an end-to-end run showed (results file only).
        self.window: dict[str, float] = {}

    def metric(self, name: str, value: float, unit: str, samples: int | None = None) -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        if samples is not None:
            self.sample_counts[name] = samples

    def problem(self, text: str) -> None:
        self.correct = False
        self.notes.append(f"PROBLEM: {text}")

    def tear_down(self, deployment) -> None:
        """Teardown failures are reported, not fatal."""
        for failure in deployment.failed_bring_ups:
            self.notes.append(f"a bring-up failed and was tried again: {failure}")
        try:
            deployment.close()
        except Exception as exc:  # noqa: BLE001 - report and go on
            self.notes.append(f"teardown failed: {exc!r}")

    def count(self, round_) -> None:
        self.attempted += round_.attempted
        self.failed += round_.failed
        for error in round_.errors:
            self.problem(error)

    def percentile_us(
        self, name: str, latencies: list[float], q: float, *, required: bool = True
    ) -> None:
        """A percentile in microseconds; a tail too short for it is a problem
        when the metric is ``required`` to repeat, and a note otherwise."""
        try:
            value = stats.percentile(latencies, q)
        except ValueError as exc:
            if required and not self.args.smoke:
                self.problem(f"{name}: {exc}")
            else:
                self.notes.append(f"{name} does not repeat: {exc}")
            value = stats.percentile(latencies, q, min_tail=0) if latencies else 0.0
        self.metric(name, value * 1e6, "us", len(latencies))

    # -- end to end --------------------------------------------------------------

    def end_to_end(self) -> None:
        """Set up :data:`SETUPS` times back to back, tearing down in between,
        and measure one window of ``--seconds`` on the last deployment.

        The window's pooled p50, p95 and throughput are printed but are
        not end-to-end metrics: over ten runs of identical code they did
        not stay within 0.10 on this host (README.md), so by the issue's
        rule they belong to the per-layer set, where the traced run
        reports them.
        """
        args = self.args
        repeats = 1 if args.smoke else SETUPS
        setups: list[workloads.SetUp] = []
        for repeat in range(repeats):
            workload, took = workloads.set_up(self.workload_cls, args.seed, self.sut.Deployment)
            setups.append(took)
            if repeat < repeats - 1:
                self.tear_down(workload.deployment)
        deployment = workload.deployment
        try:
            window, _ = workloads.run_ops(workload, workload.warmup, seconds=args.seconds)
            peak = peak_rss_mib([os.getpid(), *deployment.child_pids()])
        finally:
            self.tear_down(deployment)
        self.count(window)
        self.metric("setup_s", stats.median_setup([took.total for took in setups]), "s",
                    len(setups))
        self.metric("rss_mb", peak, "MiB")
        self.notes.append(
            f"{workload.shape} deployment of {workload.cores}; set-ups took (bring-up + populate "
            "+ warm-up, first is cold): "
            + ", ".join(f"{t.bring_up:.3f}+{t.populate:.3f}+{t.warm_up:.3f}" for t in setups)
            + " s"
        )
        latencies = window.latencies
        if latencies:
            self.window = {
                "op_p50_us": stats.percentile(latencies, 0.50, min_tail=0) * 1e6,
                "op_p95_us": stats.percentile(latencies, 0.95, min_tail=0) * 1e6,
                "ops_per_s": len(latencies) / window.busy,
                "ops": len(latencies),
            }
            self.notes.append(
                "measured window, not end to end on this host (README.md): "
                f"p50 {self.window['op_p50_us']:.1f} us, p95 {self.window['op_p95_us']:.1f} us, "
                f"{self.window['ops_per_s']:.1f} correct ops per busy second, "
                f"n={len(latencies)}"
            )

    # -- per layer ---------------------------------------------------------------

    def traced(self) -> None:
        args, sut = self.args, self.sut
        # The first set-up of the process, in the end-to-end shape: cold.
        workload, cold = workloads.set_up(self.workload_cls, args.seed, sut.Deployment)
        self.tear_down(workload.deployment)
        self.metric("cluster.launch.setup_cold_s", cold.total, "s")

        workload, _ = workloads.set_up(
            self.workload_cls, args.seed, sut.Deployment, traced=True)
        try:
            plain, _ = workloads.run_ops(
                workload, workload.warmup, seconds=args.seconds * PLAIN_SHARE)
        finally:
            self.tear_down(workload.deployment)
        self.count(plain)

        recorder = tracing.Recorder()
        restore = sut.install_wrappers(recorder)
        try:
            workload, _ = workloads.set_up(
                self.workload_cls, args.seed, sut.Deployment, traced=True)
            try:
                wrapped, deltas = workloads.run_ops(
                    workload, workload.warmup, seconds=args.seconds * (1 - PLAIN_SHARE),
                    count=TRACED_OPS,
                    recorder=recorder, counters=workload.deployment.counters)
            finally:
                self.tear_down(workload.deployment)
        finally:
            restore()
        self.count(wrapped)

        totals = tracing.LayerTotals()
        by_op = recorder.spans_by_op()
        dumped = []
        for index, start, end in wrapped.windows:
            spans = by_op.get(index, [])
            totals.add_op(spans, start, end)
            if len(dumped) < DUMPED_OPS:
                dumped.append((index, start, end, spans))
        tracing.dump_spans(OUT / f"spans-{args.workload}.jsonl", dumped)
        for layer in sut.LAYERS:
            self.metric(f"{layer}.self_us", totals.self_us(layer), "us")
            self.metric(f"{layer}.calls", totals.calls_per_op(layer), "1/op")
        unknown = set(totals.self_seconds) - set(sut.LAYERS)
        if unknown:
            self.problem(f"spans of layers outside LAYERS: {sorted(unknown)}")

        traced_ops = max(wrapped.attempted, 1)
        self.metric("net.tcp.messages", deltas.get("messages", 0.0) / traced_ops, "1/op")
        self.metric("net.tcp.payload_bytes", deltas.get("payload_bytes", 0.0) / traced_ops,
                    "B/op")
        self.metric("store.offloaded_bytes", deltas.get("offloaded_bytes", 0.0) / traced_ops,
                    "B/op")
        resolves = deltas.get("resolves", 0.0)
        self.metric("store.cache_hit_ratio",
                    deltas.get("cache_hits", 0.0) / resolves if resolves else 0.0, "ratio")
        self.metric("core.references.lookups", deltas.get("lookups", 0.0) / traced_ops, "1/op")
        self.metric("core.invocation.forwarded", deltas.get("forwarded", 0.0) / traced_ops,
                    "1/op")

        self.percentile_us("trace.hubs_p50_us", plain.latencies, 0.50)
        self.percentile_us("client.op_p95_us", plain.latencies, 0.95, required=False)
        self.percentile_us("client.op_p99_us", plain.latencies, 0.99, required=False)
        self.metric("client.ops_per_s",
                    len(plain.latencies) / plain.busy if plain.busy else 0.0, "1/s",
                    len(plain.latencies))
        off = self.metrics["trace.hubs_p50_us"]["value"]
        on = statistics.median(wrapped.latencies) * 1e6 if wrapped.latencies else 0.0
        self.metric("trace.overhead", on / off if off else 0.0, "ratio", len(wrapped.latencies))
        self.metric("trace.coverage", totals.coverage(), "ratio", totals.ops)
        self.probes()

    def probes(self) -> None:
        """Median time of direct calls on inputs shaped like the workloads'."""
        sut = self.sut
        blobs = workloads.payload_pool(self.args.seed, 3, workloads.BLOB_BYTES)
        small, bulk = blobs[0][:64], b"".join(blobs)
        repeats = 5 if self.args.smoke else PROBE_REPEATS
        start = time.perf_counter()
        ready = sut.Deployment("procs", ["P"])
        self.metric("cluster.launch.child_ready_s", time.perf_counter() - start, "s")
        self.tear_down(ready)
        store_dir = Path(tempfile.mkdtemp(prefix="probe-store-"))
        for source in (
            sut.probes_standalone(small, bulk, store_dir, repeats),
            sut.probes_transport(small, bulk, repeats),
            sut.probes_cores(blobs, repeats),
        ):
            for name, samples in source:
                self.metric(name, statistics.median(samples) * 1e6, "us", len(samples))
        self.metric("client.calibration_us", calibration_us(), "us")

    # -- report ------------------------------------------------------------------

    def report(self, cpu: int) -> dict:
        args = self.args
        group = "per_layer" if args.trace else "end_to_end"
        try:
            spec = benchfile.load()
        except (OSError, ValueError) as exc:
            self.problem(f"cannot read {benchfile.PATH}: {exc}")
        else:
            for text in benchfile.problems(spec) + benchfile.undeclared(spec, group, self.metrics):
                self.problem(f"BENCHMARK.json: {text}")
        if self.failed:
            self.correct = False
        print(f"realpath {args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}")
        print(f"loopback only (127.0.0.1); process, threads and child Cores pinned to CPU {cpu}; "
              "closed loop, one client, one op in flight")
        for note in self.notes:
            print(note)
        print(f"attempted {self.attempted} ops, failed {self.failed}")
        for name, metric in self.metrics.items():
            samples = self.sample_counts.get(name)
            suffix = f"  (n={samples})" if samples is not None else ""
            print(f"  {name:42s} {metric['value']:14.4f} {metric['unit']}{suffix}")
        return {
            "correct": self.correct,
            "attempted": max(self.attempted, 1),
            "failed": self.failed if self.attempted else 1,
            "metrics": self.metrics,
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up, five probe repeats, and a window too short for a "
                             "percentile is a note, not a failure (run.py --quick)")
    args = parser.parse_args(argv)

    try:
        import sut
    except ImportError as exc:
        print(f"realpath: {exc}", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    # Everything the program writes to a temporary directory (the file
    # store) stays inside the checkout and goes away with this run.
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    tempfile.tempdir = str(scratch)
    os.environ["TMPDIR"] = str(scratch)
    try:
        run = Run(args, sut)
        if args.trace:
            run.traced()
        else:
            run.end_to_end()
        result = run.report(cpu)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    mode = "trace" if args.trace else "end_to_end"
    with open(OUT / f"latest-{args.workload}-{mode}.json", "w", encoding="utf-8") as handle:
        json.dump({"args": vars(args), **result, "window": run.window}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
