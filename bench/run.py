#!/usr/bin/env python3
"""Layered benchmark of the srswor package: one workload per run.

    python3 bench/run.py --workload shard-merge --seed 1 --seconds 55 --trace 0
    for w in shard-merge cli-lines; do
        python3 bench/run.py --workload $w --seed 1 --seconds 55 --trace 0; done

Run from the root of a source checkout; the package is imported from its
``src`` directory.  One process, no threads, a closed loop with one client:
each op (one call into the public API, or one ``python -m srswor``
subprocess) starts when the previous one has returned, and every output is
checked.  Ops run until --seconds have passed, in passes over the
workload's pool of input shapes (see workloads.py).  Latency percentiles and
throughput are taken over the complete passes only, so every run weighs each
shape alike however far its last pass got.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every op twice,
untraced and then under span wrappers (see spans.py), checks both give the
same output, and prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

An op that raises, or whose CLI process exits non-zero, is failed; one whose
output fails its check is failed and makes correct false.  Neither stops the
run.  A failed op counts as slower than any other in the latency percentiles.
After the timed ops, the workload's untimed probe runs (shard-merge: calls
with n > 2^64); its result is printed, and is a per-layer metric.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer, layer_metrics
from workloads import WORKLOADS, CheckError

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5  # set-ups before the timed ops, and as many again after them


def fresh_import():
    """Imports srswor and srswor.cli from scratch and returns the package."""
    for name in [m for m in sys.modules if m == "srswor" or m.startswith("srswor.")]:
        del sys.modules[name]
    api = importlib.import_module("srswor")
    importlib.import_module("srswor.cli")
    return api


def set_up(workload_cls, seed):
    """Imports, builds inputs and warms up SETUP_REPS times; keeps the last.

    Returns the workload and the set-up times in seconds.
    """
    times, workload = [], None
    for _ in range(SETUP_REPS):
        if workload is not None:
            workload.close()
            workload = None
        gc.collect()
        t0 = time.perf_counter()
        workload = workload_cls(fresh_import(), seed, ROOT)
        workload.warm_up()
        times.append(time.perf_counter() - t0)
    return workload, times


def checked(check, output) -> int:
    """check(output), with any error in checking a malformed output made a CheckError."""
    try:
        return check(output)
    except CheckError:
        raise
    except Exception as exc:
        raise CheckError(f"output check raised {type(exc).__name__}: {exc}") from exc


class OpTally:
    """Op counts, and each op's busy time, latency and sampled items, of one run."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.correct = True
        self.busy_ns: list = []    # per op
        self.latencies: list = []  # ns per op, inf for a failed op
        self.items: list = []      # per op, 0 for a failed op

    def run(self, op):
        """Times one op and checks it; returns (output, ns), output None on failure."""
        call, check = op
        self.attempted += 1
        t0 = time.perf_counter_ns()
        try:
            output = call()
        except Exception as exc:  # a failing op is counted, never fatal
            self.busy_ns.append(time.perf_counter_ns() - t0)
            self.fail(exc)
            return None, 0
        ns = time.perf_counter_ns() - t0
        self.busy_ns.append(ns)
        try:
            items = checked(check, output)
        except CheckError as exc:
            self.fail(exc)
            return None, 0
        self.latencies.append(ns)
        self.items.append(items)
        return output, ns

    def fail(self, exc: Exception) -> None:
        self.failed += 1
        self.latencies.append(float("inf"))
        self.items.append(0)
        if isinstance(exc, CheckError):
            self.correct = False
        if self.failed <= 3:
            print(f"# op failed: {type(exc).__name__}: {exc}", file=sys.stderr)


def percentile_ms(latencies, q, run_ns):
    """Nearest-rank percentile in ms.

    A failed op (inf) counts as slower than any op: it reads as the whole
    run's duration, which keeps the value finite for JSON.
    """
    ordered = sorted(latencies)
    return min(ordered[max(0, -(-len(ordered) * q // 100) - 1)], run_ns) / 1e6


def run_plain(workload, seconds):
    tally, i = OpTally(), 0
    start = time.perf_counter_ns()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        tally.run(workload.op(i))
        i += 1
    run_ns = time.perf_counter_ns() - start
    # whole passes only; a run too short for one pass uses all its ops
    size = len(workload.specs)
    whole = i // size * size or i
    latencies = tally.latencies[:whole]
    return tally, {
        "latency_p50_ms": (percentile_ms(latencies, 50, run_ns), "ms"),
        "latency_p90_ms": (percentile_ms(latencies, 90, run_ns), "ms"),
        "throughput_items_per_s": (sum(tally.items[:whole]) / (sum(tally.busy_ns[:whole]) / 1e9),
                                   "items/s"),
        "success_rate": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }


def probe(workload, tally):
    """The workload's untimed probe; a wrong output or an error it does not
    expect makes the run incorrect."""
    try:
        return workload.probe()
    except Exception as exc:
        tally.correct = False
        print(f"# probe failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return {}


def run_traced(workload, seconds):
    tally, tracer = OpTally(), Tracer(workload.api)
    untraced_ns = traced_ns = traced_items = i = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        output, ns = tally.run(workload.in_process(i))
        if output is not None:
            try:
                with tracer.op(i):
                    call, check = workload.in_process(i)
                    t0 = time.perf_counter_ns()
                    traced = call()
                    op_ns = time.perf_counter_ns() - t0
                if traced != output:
                    raise CheckError("traced output differs from untraced output")
                traced_items += checked(check, traced)
                traced_ns += op_ns
                untraced_ns += ns
                workload.trace_extra(i, output, ns)
            except Exception as exc:  # a failing op is counted, never fatal
                tally.fail(exc)
        i += 1
    metrics = layer_metrics(tracer, traced_items)
    metrics.update(workload.extra_metrics())
    metrics["trace.overhead_ratio"] = (traced_ns / untraced_ns if untraced_ns else 0.0, "ratio")
    return tally, metrics


def commit() -> str:
    """The checkout's commit read from .git, or 'unknown' outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "srswor" / "__init__.py").is_file():
        print(f"run.py: no srswor package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = None
    try:
        workload, setup_times = set_up(WORKLOADS[args.workload], args.seed)
        gc.collect()
        if args.trace:
            tally, metrics = run_traced(workload, args.seconds)
            metrics.update(probe(workload, tally))
        else:
            tally, metrics = run_plain(workload, args.seconds)
            # the CLI runs in child processes; RUSAGE_CHILDREN gives the largest one's peak
            who = (resource.RUSAGE_CHILDREN if args.workload == "cli-lines"
                   else resource.RUSAGE_SELF)
            metrics["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024, "MB")
            probe(workload, tally)
            workload.close()
            # set-ups on both sides of the timed ops sample the shared host's
            # speed over the whole run, as the other metrics do
            again, later = set_up(WORKLOADS[args.workload], args.seed)
            again.close()
            metrics["setup_s"] = (statistics.median(setup_times + later), "s")
    finally:
        if workload is not None:
            workload.close()

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} loop=closed clients=1")
    print(f"# python={platform.python_version()} nproc={os.cpu_count()} commit={commit()}")
    print(f"# ops={tally.attempted} failed={tally.failed} "
          f"error_rate={tally.failed / max(tally.attempted, 1):.6g}")
    if workload.notes():
        print(f"# {workload.notes()}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
