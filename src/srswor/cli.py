"""Command line front end: sample, bench, verify, merge.

Exit codes: 0 success, 1 input/format failure (an unreadable or unwritable
path, input that stdin's error handler refuses, or a reader that closes the
output early), 2 argument failure (including inputs too large for the memory
this process may use, or for float arithmetic), 3 verification failure.
main alone maps an exception to its code and one stderr line; a closed
output exits 1 with none.  All randomness flows from --seed, so identical
invocations reproduce identical output (bench wall times excepted).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from itertools import islice

from .distributed import MergeInput, downsample, merge_all_with_state
from .rng import RandomSource, Record
from .samplers import (
    SparseFisherYatesIterator,
    default_samplers,
    inorder_sample,
    preinit_fy_sample_with_undo,
    reservoir_sample,
)

BENCH_HEADER = (
    "algorithm", "n", "k", "rep", "wall_time_ns",
    "logical_draws", "peak_aux_entries", "seed",
)


class BenchRecord(Record, frozen=True):
    """One timed rep of run_bench, one field per BENCH_HEADER column."""

    __slots__ = _fields = BENCH_HEADER

    def __init__(self, algorithm: str, n: int, k: int, rep: int, wall_time_ns: int,
                 logical_draws: int, peak_aux_entries: int, seed: int) -> None:
        self._init(algorithm, n, k, rep, wall_time_ns, logical_draws, peak_aux_entries, seed)


def _bench_once(algo: str, n: int, k: int, source: RandomSource) -> tuple[int, int]:
    """Run one timed rep of algo's default_samplers() entry (preinit's array
    is built before the clock starts); returns (wall_time_ns, peak_aux_entries).

    Peak entries are k for member's set, and for sparse the peak of
    SparseFisherYatesIterator's map, replayed untimed on a fresh source of
    the same seed, so on the same draws; the others report 0.
    """
    if algo == "preinit":
        arr = list(range(1, n + 1))
        t0 = time.perf_counter_ns()
        preinit_fy_sample_with_undo(source, arr, k)
        return time.perf_counter_ns() - t0, 0
    sampler = default_samplers()[algo]
    t0 = time.perf_counter_ns()
    sampler(source, n, k)
    wall = time.perf_counter_ns() - t0
    if algo != "sparse":
        return wall, k if algo == "member" else 0
    it = SparseFisherYatesIterator(n, RandomSource(source.seed))
    peak = 0
    for _ in range(k):
        next(it)
        peak = max(peak, it.state_size())
    return wall, peak


def run_bench(grid, algos, reps: int, seed: int) -> list[BenchRecord]:
    """Benchmark each algorithm over each (n, k) cell, reps runs per cell.

    Every run gets a fresh RandomSource seeded with seed + rep, so the same
    rep index across algorithms replays the same underlying stream and the
    draw counts in the output are exactly reproducible.
    """
    records = []
    for n, k in grid:
        for algo in algos:
            for rep in range(reps):
                run_seed = seed + rep
                source = RandomSource(run_seed)
                wall, peak = _bench_once(algo, n, k, source)
                records.append(BenchRecord(
                    algo, n, k, rep, wall, source.stats.total(), peak, run_seed,
                ))
    return records


# --- subcommands -------------------------------------------------------------


def _cmd_sample(args) -> int:
    if args.k < 0:
        print("sample: --k must be >= 0", file=sys.stderr)
        return 2
    if args.n is not None and args.n < 1:
        print("sample: --n must be >= 1", file=sys.stderr)
        return 2
    if args.n is not None and args.k > args.n:
        print(f"sample: k={args.k} exceeds n={args.n}", file=sys.stderr)
        return 2
    source = RandomSource(args.seed)

    if args.indices_only:
        if args.n is None:
            print("sample: --indices-only requires --n", file=sys.stderr)
            return 2
        if args.k:
            result = default_samplers()[args.algo](source, args.n, args.k)
            sys.stdout.writelines(f"{idx}\n" for idx in result.indices)
        return 0

    return _sample_lines(args, source)


def _sample_lines(args, source: RandomSource) -> int:
    """Line-sampling mode: one pass over the input, lines out in input order.

    With --n the sorted positions come from inorder, and the input must
    reach line n, past which nothing is read.  Without it the reservoir
    keeps k lines in stream order: a file shorter than k is refused, a
    shorter stdin yields all of its lines.  A file decodes with stdin's
    encoding and error handler and splits lines at "\n" alone, as stdin
    does, so the same bytes give the same lines by either route."""
    path = args.input
    use_stdin = path is None or path == "-"
    if args.k == 0:
        return 0

    stdin = sys.stdin
    handle = stdin if use_stdin else open(path, encoding=getattr(stdin, "encoding", None),
                                          errors=getattr(stdin, "errors", None), newline="\n")
    try:
        n = args.n
        if n is None:
            result = reservoir_sample(source, handle, args.k)
            if result.n < args.k and not use_stdin:
                print(f"sample: k={args.k} exceeds inferred n={result.n}", file=sys.stderr)
                return 2
            sys.stdout.writelines(result.indices)
            return 0
        wanted = iter(inorder_sample(source, n, args.k).indices)
        kept, want, lineno = [], next(wanted), 0
        for lineno, line in enumerate(islice(handle, n), 1):
            if lineno == want:
                kept.append(line)
                want = next(wanted, 0)  # 0: no line is wanted any more
        if lineno == n:
            sys.stdout.writelines(kept)
            return 0
        print(f"sample: input ended before position {want or n} (expected {n} lines)",
              file=sys.stderr)
        return 1
    finally:
        if not use_stdin:
            handle.close()


def _cmd_bench(args) -> int:
    grid = []
    try:
        for cell in args.grid.split(","):
            n_text, k_text = cell.split(":")
            grid.append((int(n_text), int(k_text)))
    except ValueError:
        print(f"bench: cannot parse --grid {args.grid!r}", file=sys.stderr)
        return 2
    algos = args.algos.split(",")
    known = default_samplers()
    for algo in algos:
        if algo not in known:
            print(f"bench: unknown algorithm {algo!r}", file=sys.stderr)
            return 2
    for n, k in grid:
        if n < 1 or not 0 <= k <= n:
            print(f"bench: invalid cell n={n}, k={k}", file=sys.stderr)
            return 2
    if args.reps < 1:
        print("bench: --reps must be >= 1", file=sys.stderr)
        return 2
    import csv

    rows = [rec._astuple() for rec in run_bench(grid, algos, args.reps, args.seed)]
    csv.writer(sys.stdout, lineterminator="\n").writerows([BENCH_HEADER, *rows])
    return 0


def _cmd_verify(args) -> int:
    if not 0 < args.alpha <= 1:
        print("verify: --alpha must be in (0, 1]", file=sys.stderr)
        return 2
    # opened first, so a bad --json path fails before any check runs
    report = None if args.json is None else open(args.json, "w")
    # the harness is imported only here, so sample and merge do not load it
    from .suite import format_report, run_suite

    records = run_suite(args.suite, args.seed, args.alpha)
    sys.stdout.write(format_report(records))
    if report is not None:
        import json

        payload = [{"name": r.name, "statistic": r.statistic, "p_value": r.p_value,
                    "pass": r.passed} for r in records]
        with report:
            report.write(json.dumps(payload, indent=2) + "\n")
    failures = [r.name for r in records if not r.passed]
    if failures:
        print(f"verify: {len(failures)} check(s) failed:", *failures, sep="\n  ", file=sys.stderr)
        return 3
    return 0


def _parse_shard(line: str) -> MergeInput:
    """One manifest line, population<TAB>size<TAB>comma-separated ids."""
    parts = line.split("\t")
    if len(parts) != 3:
        raise ValueError(f"expected population<TAB>size<TAB>ids, got {len(parts)} field(s)")
    try:
        population, size = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError("non-integer population or size") from None
    ids = parts[2].split(",") if parts[2] else []
    if len(ids) != size:
        raise ValueError(f"declared size {size} but {len(ids)} identifier(s)")
    return MergeInput(ids, population)


def _cmd_merge(args) -> int:
    with open(args.manifest) as handle:
        raw_lines = handle.readlines()

    inputs, first_line = [], {}  # first_line: identifier -> its manifest line
    for lineno, raw in enumerate(raw_lines, 1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        try:
            inputs.append(_parse_shard(line))
            for item in inputs[-1].sample:
                if first_line.setdefault(item, lineno) != lineno:
                    raise ValueError(f"identifier {item!r} also in line {first_line[item]}")
        except ValueError as exc:
            print(f"merge: manifest line {lineno}: {exc}", file=sys.stderr)
            return 1
    if not inputs:
        print("merge: manifest holds no shards", file=sys.stderr)
        return 1

    source = RandomSource(args.seed)
    merged, _ = merge_all_with_state(source, inputs)
    if args.target is not None:
        if not 0 <= args.target <= len(merged):
            print(f"merge: --target {args.target} outside [0, {len(merged)}]", file=sys.stderr)
            return 2
        merged = downsample(source, merged, args.target)
    sys.stdout.writelines([*(f"{item}\n" for item in merged), f"# effective_size={len(merged)}\n"])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    algo_names = tuple(default_samplers())
    parser = argparse.ArgumentParser(
        prog="srswor",
        description="Simple random sampling without replacement toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw one sample of k items")
    p.add_argument("--n", type=int, default=None,
                   help="population size (inferred from a file when omitted)")
    p.add_argument("--k", type=int, required=True, help="sample size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algo", choices=algo_names, default="sparse",
                   help="algorithm for --indices-only mode")
    p.add_argument("--indices-only", action="store_true",
                   help="print indices instead of sampling input lines")
    p.add_argument("input", nargs="?", default=None,
                   help="line file to sample from, '-' or absent for stdin")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("bench", help="time algorithms over an n:k grid")
    p.add_argument("--grid", required=True, help="comma list of n:k cells")
    p.add_argument("--algos", default=",".join(algo_names),
                   help="comma list of algorithms")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify", help="run the statistical verification suite")
    p.add_argument("--suite", choices=("quick", "full"), default="quick")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.001)
    p.add_argument("--json", default=None,
                   help="also write the report as JSON to this path")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("merge", help="merge per-shard samples from a manifest")
    p.add_argument("--manifest", required=True,
                   help="lines of population<TAB>size<TAB>comma-separated-ids")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target", type=int, default=None,
                   help="downsample the merged result to this size")
    p.set_defaults(func=_cmd_merge)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed reader shows here, not at exit
        return code
    except (OSError, UnicodeError) as exc:
        # an unreadable or unwritable path, input stdin's decoder refuses, or
        # a failed write to stdout; a reader that left early is not reported
        if not isinstance(exc, BrokenPipeError):
            print(f"{args.command}: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:
            # stdout still holds bytes it cannot write, which would fail again
            # in the flush at exit; it goes to devnull so that exit stays quiet
            # (the recipe in the docs of Python's signal module)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except MemoryError:
        # e.g. fy or preinit, which build an n-element array, at huge --n
        print(f"{args.command}: out of memory; the input is too large for the "
              "memory this process may use", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # e.g. inorder or merge thinning, whose draws take n as a float, at n >= 2^1024
        print(f"{args.command}: input too large for float arithmetic ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
