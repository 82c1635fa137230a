"""The benchmark's workloads: inputs from the seed, operations, output checks.

Every workload builds its inputs from the seed alone: at set-up, except
shard-merge's shard samples, which are built per op outside the timed call.
op(i) returns a zero-argument call into the package's public API, or one
``python -m srswor`` subprocess, together with a check of its output.  op(i)
is a pure function of (seed, i): each op gets its own RandomSource seeded
from both, so calling op(i) twice replays the same work.  The traced run uses
that to compare a traced and an untraced execution of the same op.

Each workload has a fixed pool of input shapes (block count and sizes, k,
CLI arguments) taken from the R_d low-discrepancy sequence (Roberts 2018),
which covers every input distribution evenly.  The ops run in passes: a pass
runs every shape of the pool once, in an order drawn from the seed, and
every op draws its random stream from the seed.  So the seed changes the order and the random
draws but not the mix of shapes, and a run's metrics, taken over whole
passes, measure the program rather than the draw of inputs.
"""

from __future__ import annotations

import io
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path


CLI_METRICS = {
    "cli.startup_ms": "ms",
    "cli.count_pass_ms": "ms",
    "cli.sample_file_ms": "ms",
    "cli.sample_stdin_ms": "ms",
    "cli.sample_indices_ms": "ms",
    "cli.merge_ms": "ms",
    "cli.lines_scanned_per_s": "lines/s",
}


class CheckError(Exception):
    """An operation returned, but its output is wrong."""


class CliError(Exception):
    """A CLI invocation exited with a non-zero code."""


def lattice(dims: int, count: int) -> list:
    """The first count points of the R_d sequence in [0, 1)^dims."""
    phi = 2.0
    for _ in range(60):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    alpha = [phi ** -(j + 1) for j in range(dims)]
    return [[(0.5 + i * a) % 1.0 for a in alpha] for i in range(1, count + 1)]


def log_uniform(u: float, lo: float, hi: float) -> int:
    """Maps u in [0, 1) to an integer log-uniform over [lo, hi)."""
    return int(lo * (hi / lo) ** u)


def op_seed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i


def check_sample(items, n: int, k: int) -> int:
    """k distinct integers in [1, n]; returns k."""
    if len(items) != k:
        raise CheckError(f"{len(items)} items, expected {k}")
    if len(set(items)) != k:
        raise CheckError("repeated items")
    if k and not (1 <= min(items) and max(items) <= n):
        raise CheckError(f"item outside [1, {n}]")
    return k


def check_increasing(items) -> None:
    if any(a >= b for a, b in zip(items, items[1:])):
        raise CheckError("sorted sampler output is not strictly increasing")


class Workload:
    """One workload; subclasses define op(i) and may override the hooks."""

    name = ""

    def __init__(self, api, seed: int, root: Path) -> None:
        self.api = api
        self.seed = seed
        self.specs: list = []  # the pool of input shapes; one pass runs each once
        self._order = (-1, [])

    def spec(self, i: int):
        """The shape op i runs: pass i // len(specs) visits the whole pool in a seeded order."""
        pass_no, j = divmod(i, len(self.specs))
        if self._order[0] != pass_no:
            order = list(range(len(self.specs)))
            random.Random(op_seed(self.seed, pass_no)).shuffle(order)
            self._order = (pass_no, order)
        return self._order[1][j]

    def op(self, i: int):
        """(call, check): call() runs op i, check(result) validates it and
        returns the number of sampled items."""
        raise NotImplementedError

    def in_process(self, i: int):
        """Op i run inside this process, for the traced run."""
        return self.op(i)

    def warm_up(self) -> None:
        """Fixed calls, independent of the seed, that load the code paths."""

    def trace_extra(self, i: int, output, in_process_ns: int) -> None:
        """Extra measurements the traced run takes after op i."""

    def extra_metrics(self) -> dict:
        """The cli layer metrics, name -> (value, unit); 0 where no CLI ran."""
        return {name: (0.0, unit) for name, unit in CLI_METRICS.items()}

    def notes(self) -> str:
        """One line of run facts for the report, or ''."""
        return ""

    def probe(self) -> dict:
        """Untimed calls after the timed ops, name -> (value, unit); see UntimedProbe."""
        return {"samplers.huge_n_error_rate": (0.0, "ratio")}

    def close(self) -> None:
        """Removes whatever set-up wrote to disk."""


class UntimedProbe:
    """Untimed calls after the timed ops, for behaviour no timed op reaches.

    n above 2^64: such calls fail today (rng draws a bounded int from a
    negative shift count), and a benchmark workload must be one on which no
    op fails, so they are kept out of the timed mix and probed here instead.
    preinit: the CLI runs it on an array of its own, so only a call on a
    caller's array can check that the array is put back.
    """

    PROBES = 20  # calls with n in (2^64, 2^80], half sparse, half member
    CALLER_N = 10_000
    probe_error = "none"

    def probe(self):
        """Runs the probe calls; returns the error rate of the n > 2^64 calls.

        A call that raises counts as an error; one that returns must pass the
        output check like any op, or the run is not correct.
        """
        api, rnd, errors = self.api, random.Random(self.seed), 0
        for j in range(self.PROBES):
            n, k = 2 ** 64 + 1 + rnd.randrange(2 ** 80 - 2 ** 64), 1 + rnd.randrange(64)
            fn = (api.sparse_fisher_yates, api.membership_checking_sample)[j % 2]
            try:
                result = fn(api.RandomSource(op_seed(self.seed, j)), n, k)
            except Exception as exc:
                errors += 1
                self.probe_error = f"{type(exc).__name__}: {exc}"
                continue
            check_sample(result.indices, n, k)
        caller = list(range(1, self.CALLER_N + 1))
        source = api.RandomSource(op_seed(self.seed, self.PROBES))
        result, _ = api.preinit_fy_sample_with_undo(source, caller, 100)
        if caller != list(range(1, self.CALLER_N + 1)):
            raise CheckError("preinit left the caller array changed")
        check_sample(result.indices, self.CALLER_N, 100)
        return {"samplers.huge_n_error_rate": (errors / self.PROBES, "ratio")}

    def notes(self):
        return f"n > 2^64 probe: {self.PROBES} untimed calls, last error {self.probe_error}"


class ShardMerge(UntimedProbe, Workload):
    """Split a k-sample over blocks and sample each; merge shard samples and downsample."""

    name = "shard-merge"
    POOL = 65
    OVERSAMPLE = 3    # shard samples hold about 3k items in all, so merges exceed k
    MIN_SHARD_K = 64  # keeps every shard's merge threshold tight

    def __init__(self, api, seed, root):
        super().__init__(api, seed, root)
        self.specs = [(log_uniform(u_b, 4, 65), log_uniform(u_k, 200, 2001))
                      for u_b, u_k in lattice(2, self.POOL)]

    def inputs(self, j):
        """Block sizes and independently drawn shard samples of spec j.

        Built per op, outside the timed call, so memory holds one op's
        shard samples at a time.
        """
        blocks, k = self.specs[j]
        # one size per stratum of the log-uniform law, in an order fixed per
        # spec: the sizes set the split's cost, so they are part of the shape
        sizes = [log_uniform((m + 0.5) / blocks, 1e5, 1e9) for m in range(blocks)]
        random.Random(j).shuffle(sizes)
        rnd = random.Random(op_seed(self.seed, j))
        total = sum(sizes)
        shards, offset = [], 0
        for size in sizes:
            shard_k = min(size, max(self.MIN_SHARD_K,
                                    math.ceil(self.OVERSAMPLE * k * size / total)))
            # ids are global positions, so shards never share an id
            ids = rnd.sample(range(offset + 1, offset + size + 1), shard_k)
            shards.append(self.api.MergeInput(ids, size))
            offset += size
        return sizes, k, shards

    def warm_up(self):
        api, source = self.api, self.api.RandomSource(0)
        sizes = [10**6] * 8
        for size, count in zip(sizes, api.split_sample_counts(source, sizes, 200)):
            api.sparse_fisher_yates(source, size, count)
        shards = [api.MergeInput(range(j * 1000 + 1, j * 1000 + 101), 1000) for j in range(8)]
        merged, _ = api.merge_all_with_state(source, shards)
        api.downsample(source, merged, 50)

    def op(self, i):
        sizes, k, shards = self.inputs(self.spec(i))
        api = self.api
        source = api.RandomSource(op_seed(self.seed, i))
        split, sparse = api.split_sample_counts, api.sparse_fisher_yates
        merge, downsample = api.merge_all_with_state, api.downsample

        def call():
            counts = split(source, sizes, k)
            blocks = [sparse(source, size, c).indices for size, c in zip(sizes, counts)]
            merged, state = merge(source, shards)
            return counts, blocks, merged, state, downsample(source, merged, k)

        def check(result):
            counts, blocks, merged, state, kept = result
            if sum(counts) != k or any(not 0 <= c <= s for c, s in zip(counts, sizes)):
                raise CheckError(f"split counts {counts} do not fit k={k} over blocks {sizes}")
            for block, size, c in zip(blocks, sizes, counts):
                check_sample(block, size, c)
            if len(merged) != sum(state.kappas) or any(
                    kappa > len(shard.sample) for kappa, shard in zip(state.kappas, shards)):
                raise CheckError("merge kept counts disagree with its output")
            members = {x for shard in shards for x in shard.sample}
            if len(set(merged)) != len(merged) or not members.issuperset(merged):
                raise CheckError("merged items are not distinct shard items")
            if len(kept) != k or len(set(kept)) != k or not set(merged).issuperset(kept):
                raise CheckError(f"downsample did not keep exactly {k} merged items")
            return 2 * k

        return call, check


class CliLines(Workload):
    """Sequential ``python -m srswor`` processes over a line file, stdin and a manifest."""

    name = "cli-lines"
    POOL = 28         # 7 specs per case, one per index sampler in sample_indices
    LINES = 20_000    # lines in the file that `sample FILE` reads
    STREAM = 30_000   # lines piped to `sample -`, one reservoir draw each
    SHARDS = 8
    MAX_TARGET = 300
    CASES = ("sample_file", "sample_stdin", "sample_indices", "merge")
    ALGOS = ("fy", "sparse", "member", "preinit", "select", "inorder", "reservoir")

    def __init__(self, api, seed, root):
        super().__init__(api, seed, root)
        self.root = root
        self.dir = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=root))
        rnd = random.Random(seed)
        file_lines = [f"{j} {rnd.getrandbits(48):012x}" for j in range(1, self.LINES + 1)]
        stream_lines = [f"s{j} {rnd.getrandbits(48):012x}" for j in range(1, self.STREAM + 1)]
        self.file_pos = {line: j for j, line in enumerate(file_lines, 1)}
        self.stream_pos = {line: j for j, line in enumerate(stream_lines, 1)}
        self.file = self.dir / "lines.txt"
        self.stream = self.dir / "stream.txt"
        self.manifest = self.dir / "manifest.tsv"
        self.file.write_text("\n".join(file_lines) + "\n")
        self.stream.write_text("\n".join(stream_lines) + "\n")
        # one population per stratum of the log-uniform law, the same for every seed
        populations = [log_uniform((c + 0.5) / self.SHARDS, 1e4, 1e6) for c in range(self.SHARDS)]
        total = sum(populations)
        rows, self.shard_ids = [], set()
        for c, population in enumerate(populations):
            # oversampled like ShardMerge's shards, so every merge exceeds its target
            size = max(64, math.ceil(3 * self.MAX_TARGET * population / total))
            ids = [f"{c}-{x}" for x in rnd.sample(range(1, population + 1), size)]
            self.shard_ids.update(ids)
            rows.append(f"{population}\t{size}\t{','.join(ids)}\n")
        self.manifest.write_text("".join(rows))
        for i, (u0, u1) in enumerate(lattice(2, self.POOL)):
            case = self.CASES[i % len(self.CASES)]
            if case == "sample_file":
                argv = ["sample", "--k", str(log_uniform(u0, 1, 501)), str(self.file)]
            elif case == "sample_stdin":
                argv = ["sample", "--k", str(log_uniform(u0, 1, 501)), "-"]
            elif case == "sample_indices":
                algo = self.ALGOS[i // len(self.CASES) % len(self.ALGOS)]
                # the samplers that touch every position get n <= 1e5
                top = 1e12 if algo in ("sparse", "member", "inorder") else 1e5
                argv = ["sample", "--indices-only", "--algo", algo,
                        "--n", str(log_uniform(u0, 1e3, top)), "--k", str(log_uniform(u1, 1, 201))]
            else:
                argv = ["merge", "--manifest", str(self.manifest),
                        "--target", str(log_uniform(u0, 10, self.MAX_TARGET + 1))]
            self.specs.append((case, argv))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), self.env.get("PYTHONPATH")) if p)
        self.exit_codes = Counter()
        self.wall = {case: [] for case in self.CASES}
        self.startup, self.count_pass = [], []
        self.scanned_lines = self.scan_ns = 0

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _spec(self, i):
        case, argv = self.specs[self.spec(i)]
        return case, argv + ["--seed", str(op_seed(self.seed, i))]

    def _run(self, argv, stdin_path):
        with open(stdin_path) if stdin_path else nullcontext(subprocess.DEVNULL) as stdin:
            proc = subprocess.run([sys.executable, "-m", "srswor", *argv], stdin=stdin,
                                  capture_output=True, text=True, env=self.env,
                                  cwd=self.root, timeout=120)
        self.exit_codes[proc.returncode] += 1
        if proc.returncode != 0:
            raise CliError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.stdout

    def _run_in_process(self, main, argv, stdin_path):
        out, saved = io.StringIO(), sys.stdin
        try:
            with open(stdin_path) if stdin_path else nullcontext(saved) as stdin, \
                    redirect_stdout(out), redirect_stderr(io.StringIO()):
                sys.stdin = stdin
                code = main(argv)
        finally:
            sys.stdin = saved
        if code != 0:
            raise CliError(f"exit {code}")
        return out.getvalue()

    def notes(self):
        counts = " ".join(f"{code}:{n}" for code, n in sorted(self.exit_codes.items()))
        return f"cli exit codes (code:count) {counts}"

    def _stdin(self, case):
        return self.stream if case == "sample_stdin" else None

    def warm_up(self):
        self._run(["sample", "--indices-only", "--n", "1000", "--k", "10"], None)

    def op(self, i):
        case, argv = self._spec(i)
        return ((lambda: self._run(argv, self._stdin(case))),
                (lambda out: self._check(case, argv, out)))

    def in_process(self, i):
        case, argv = self._spec(i)
        main = self.api.cli.main  # bound here, so a traced op gets the span wrapper
        return ((lambda: self._run_in_process(main, argv, self._stdin(case))),
                (lambda out: self._check(case, argv, out)))

    def _check(self, case, argv, out):
        lines = out.splitlines()
        if case == "sample_indices":
            n, k = int(argv[argv.index("--n") + 1]), int(argv[argv.index("--k") + 1])
            try:
                indices = [int(x) for x in lines]
            except ValueError:
                raise CheckError("non-integer index line") from None
            if argv[argv.index("--algo") + 1] in ("select", "inorder"):
                check_increasing(indices)
            return check_sample(indices, n, k)
        if case == "merge":
            target = int(argv[argv.index("--target") + 1])
            if not lines or lines[-1] != f"# effective_size={target}":
                raise CheckError("merge output lacks its effective_size trailer")
            items = lines[:-1]
            if (len(items) != target or len(set(items)) != target
                    or not self.shard_ids.issuperset(items)):
                raise CheckError(f"merge did not print {target} distinct shard ids")
            return target
        positions = self.file_pos if case == "sample_file" else self.stream_pos
        available = self.LINES if case == "sample_file" else self.STREAM
        k = min(int(argv[argv.index("--k") + 1]), available)
        try:
            order = [positions[line] for line in lines]
        except KeyError:
            raise CheckError("sampled line is not an input line") from None
        check_increasing(order)
        return check_sample(order, available, k)

    def trace_extra(self, i, output, in_process_ns):
        case, argv = self._spec(i)
        t0 = time.perf_counter_ns()
        sub_out = self._run(argv, self._stdin(case))
        wall = time.perf_counter_ns() - t0
        if sub_out != output:
            raise CheckError("subprocess output differs from the in-process output")
        self.wall[case].append(wall)
        self.startup.append(wall - in_process_ns)
        if case == "sample_file":
            with_n = ["sample", "--n", str(self.LINES)] + argv[1:]
            t0 = time.perf_counter_ns()
            self._run_in_process(self.api.cli.main, with_n, None)
            self.count_pass.append(in_process_ns - (time.perf_counter_ns() - t0))
            last = self.file_pos[output.splitlines()[-1]] if output else 0
            self.scanned_lines += self.LINES + last
            self.scan_ns += in_process_ns
        elif case == "sample_stdin":
            self.scanned_lines += self.STREAM
            self.scan_ns += in_process_ns

    def extra_metrics(self):
        def median_ms(values):
            return sorted(values)[len(values) // 2] / 1e6 if values else 0.0

        m = {"cli.startup_ms": median_ms(self.startup),
             "cli.count_pass_ms": median_ms(self.count_pass)}
        for case in self.CASES:
            m[f"cli.{case}_ms"] = median_ms(self.wall[case])
        m["cli.lines_scanned_per_s"] = (self.scanned_lines / (self.scan_ns / 1e9)
                                        if self.scan_ns else 0.0)
        return {name: (value, CLI_METRICS[name]) for name, value in m.items()}


WORKLOADS = {w.name: w for w in (ShardMerge, CliLines)}
