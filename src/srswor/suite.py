"""The one catalogue of law checks, and the runnable verification suite.

Each law that `srswor verify` and the acceptance criteria both measure has
one function here: it takes its sources, scale and alpha, returns the raw
measurement or a chi-square report, and leaves the verdict to its caller.
run_suite is deterministic given (suite, seed): each check derives its own
source seed from the run seed and its name, so adding or reordering checks
does not disturb the others.  A check passes when its p-value (or exactness
flag, for structural checks) clears the configured alpha; structural checks
report p 1.0 or 0.0.
"""

from __future__ import annotations

import itertools
import math
import zlib
from collections import Counter
from dataclasses import dataclass

from . import distributed, statcheck
from .distributions import beta, beta_binomial, binomial, hypergeometric
from .rng import DrawStats, RandomSource
from .samplers import (
    SparseFisherYatesIterator,
    default_samplers,
    fisher_yates_sample,
    inorder_sample,
    membership_checking_sample,
    permutation_from_transpositions,
    preinit_fy_sample_with_undo,
    reservoir_sample,
    selection_sample,
    sparse_fisher_yates,
)

# reservoir_sample's draw budget, in units of k(1 + ln(n/k)).  A run makes
# three draws per replacement and about k ln(n/k) replacements, so it
# averages under 3 units.  By the exact law of the replacement count, a run
# breaks the budget with probability below 2e-11 at every n <= 61 (the
# worst case is k = 1).
RESERVOIR_DRAW_FACTOR = 12


@dataclass(frozen=True)
class CheckRecord:
    name: str
    statistic: float
    p_value: float
    passed: bool


# --- the shared checks -------------------------------------------------------


def random_cells(source, count: int, n_lo: int, n_hi: int):
    """Yield count cells (n, k), n uniform on [n_lo, n_hi], k uniform on [1, n].

    Cells are drawn lazily, so a check that draws from the same source
    between cells interleaves with them cell by cell.
    """
    for _ in range(count):
        n = n_lo - 1 + source.next_uniform_int(n_hi - n_lo + 1)
        yield n, source.next_uniform_int(n)


def pmf_law(draw, law, source, reps: int, alpha: float) -> statcheck.GofReport:
    """Chi-square of reps values draw(source) against law = (lo, probs),
    where probs[i] is the probability of lo + i.

    A value outside [lo, lo + len(probs)) raises ValueError.
    """
    lo, probs = law
    size = len(probs)
    counts = [0] * size
    for _ in range(reps):
        i = draw(source) - lo
        if not 0 <= i < size:
            raise ValueError(f"value {lo + i} outside [{lo}, {lo + size - 1}]")
        counts[i] += 1
    return statcheck.chi_square_gof(counts, probs, alpha)


def first_position_law(sampler, source, n: int, k: int, reps: int,
                       alpha: float) -> statcheck.GofReport:
    """The smallest index of reps samples sampler(source, n, k), against its
    law 1 + BetaBinomial(1, k, n - k)."""
    lo, probs = statcheck.beta_binomial_law(1, k, n - k)
    return pmf_law(lambda s: min(sampler(s, n, k).indices), (1 + lo, probs),
                   source, reps, alpha)


def reservoir_max_law(source, n: int, k: int, reps: int,
                      alpha: float) -> statcheck.GofReport:
    """The largest item that reservoir_sample keeps of range(1, n + 1), reps
    times, against its law P(max = m) = C(m - 1, k - 1) / C(n, k).

    Items arrive in increasing order, so the largest kept one is the last
    replacement: the law reads the whole chain of skips, the longest ones
    included.
    """
    total = math.comb(n, k)
    law = (k, [math.comb(m - 1, k - 1) / total for m in range(k, n + 1)])
    return pmf_law(lambda s: max(reservoir_sample(s, range(1, n + 1), k).indices),
                   law, source, reps, alpha)


def bitexact_mismatches(cells) -> int:
    """Cells (seed, n, k) where fisher_yates_sample and sparse_fisher_yates,
    each on a fresh RandomSource(seed), select different sequences."""
    return sum(
        fisher_yates_sample(RandomSource(seed), n, k).indices
        != sparse_fisher_yates(RandomSource(seed), n, k).indices
        for seed, n, k in cells
    )


def draw_budget_violations(cells) -> int:
    """Broken draw budgets over cells (source, n, k).

    fy, sparse and preinit run in turn on the cell's source and must make
    exactly k uniform-int draws and nothing else, by their draw_stats and
    by the source's own counters; inorder exactly k beta-binomial draws, and
    select at most n Bernoulli draws.  reservoir, on range(1, n + 1), must
    make one uniform int per replacement (at most n - k), two uniform reals
    per replacement plus two, and at most RESERVOIR_DRAW_FACTOR *
    k(1 + ln(n/k)) draws in all.
    """
    samplers = default_samplers()
    violations = 0
    for source, n, k in cells:
        for name in ("fy", "sparse", "preinit"):
            before = source.stats.copy()
            reported = samplers[name](source, n, k).draw_stats
            violations += reported != DrawStats(k) or source.stats - before != reported
        violations += inorder_sample(source, n, k).draw_stats.beta_binomial != k
        violations += selection_sample(source, n, k).draw_stats.bernoulli > n
        stats = reservoir_sample(source, range(1, n + 1), k).draw_stats
        violations += (stats.uniform_int > n - k
                       or stats.uniform_real != 2 * stats.uniform_int + 2
                       or stats.total() > RESERVOIR_DRAW_FACTOR * k * (1 + math.log(n / k)))
    return violations


def membership_draws(source, n: int, k: int, reps: int) -> list[int]:
    """Uniform-int draws made by each of reps membership_checking_sample runs."""
    return [
        membership_checking_sample(source, n, k).draw_stats.uniform_int
        for _ in range(reps)
    ]


def occupancy_sums(n: int, checkpoints, sources) -> tuple[dict, dict]:
    """Live hash entries of SparseFisherYatesIterator(n, source), one pass
    per source, read at each of the increasing checkpoints.

    Returns (sums, sums of squares) keyed by checkpoint.
    """
    sums = dict.fromkeys(checkpoints, 0)
    sumsq = dict.fromkeys(checkpoints, 0)
    for source in sources:
        it = SparseFisherYatesIterator(n, source)
        for c in checkpoints:
            while it.i < c:
                next(it)
            size = it.state_size()
            sums[c] += size
            sumsq[c] += size * size
    return sums, sumsq


def restoration_violations(source, cells, value_bound: int) -> int:
    """Cells (n, k) whose array of n values drawn on [1, value_bound] is not
    bitwise restored by preinit_fy_sample_with_undo; all draws use source."""
    violations = 0
    for n, k in cells:
        arr = [source.next_uniform_int(value_bound) for _ in range(n)]
        snapshot = list(arr)
        preinit_fy_sample_with_undo(source, arr, k)
        violations += arr != snapshot
    return violations


def split_merge_law(source, k: int, reps: int, alpha: float) -> statcheck.GofReport:
    """Split k over blocks (4, 4), sample each block's share with
    sparse_fisher_yates, and chi-square the union against the uniform law
    on all C(8, k) subsets."""
    def draw(s):
        c0, c1 = distributed.split_sample_counts(s, (4, 4), k)
        return (sparse_fisher_yates(s, 4, c0).indices
                + [i + 4 for i in sparse_fisher_yates(s, 4, c1).indices])
    return statcheck.enumerate_subset_distribution(draw, 8, k, reps, source, alpha)


def downsample_subsets_law(source, n: int, m: int, reps: int,
                           alpha: float) -> statcheck.GofReport:
    """Keep m of range(1, n + 1) with downsample, reps times, and chi-square
    the kept sets against the uniform law on all C(n, m) subsets.  With
    c = min(m, n - m), a small c takes the draws route (the positions to
    keep if 2m <= n, else to drop), a large one the marks route; see
    distributed.downsample for the rule."""
    return statcheck.enumerate_subset_distribution(
        lambda s: distributed.downsample(s, range(1, n + 1), m), n, m, reps, source, alpha)


def merge_two_shards(source, reps: int) -> tuple[list[int], Counter, int]:
    """Merge sparse samples of 2 from shards [1, 4] and [5, 8], reps times.

    Returns the inclusion count of each item 1..8, the count of each merged
    set, and the number of runs in which the shard with the smaller
    threshold did not keep both of its items.
    """
    inclusion = [0] * 8
    merged_sets: Counter = Counter()
    winner_violations = 0
    for _ in range(reps):
        sample_a = sparse_fisher_yates(source, 4, 2).indices
        sample_b = [i + 4 for i in sparse_fisher_yates(source, 4, 2).indices]
        merged, state = distributed.merge_all_with_state(
            source,
            (distributed.MergeInput(sample_a, 4), distributed.MergeInput(sample_b, 4)),
        )
        merged_sets[frozenset(merged)] += 1
        for item in merged:
            inclusion[item - 1] += 1
        widx = state.thresholds.index(min(state.thresholds))
        winner_violations += state.kappas[widx] != 2
    return inclusion, merged_sets, winner_violations


def median_wall_ns_by_n(records) -> dict[int, int]:
    """Median wall_time_ns of run_bench records per n (the upper median)."""
    by_n: dict[int, list[int]] = {}
    for rec in records:
        by_n.setdefault(rec.n, []).append(rec.wall_time_ns)
    return {n: sorted(v)[len(v) // 2] for n, v in by_n.items()}


# --- the verify suite ---------------------------------------------------------

# per-check scale as (quick, full); full also runs the last three checks
_SCALES = dict(
    uniform_draws=(60_000, 600_000),
    ks_n=(20_000, 100_000),
    dist_reps=(30_000, 200_000),
    subset_reps=(4_000, 100_000),
    fp_reps=(30_000, 100_000),
    member_reps=(20_000, 100_000),
    occupancy_runs=(1_500, 10_000),
    merge_reps=(20_000, 200_000),
    split_reps=(30_000, 100_000),
    perm_reps=(24_000, 120_000),
    structural_cases=(60, 200),
)
_SUITES = ("quick", "full")

_MASK64 = (1 << 64) - 1


def _derive(seed: int, name: str) -> int:
    mixed = (seed * 0x9E3779B97F4A7C15 + zlib.crc32(name.encode())) & _MASK64
    mixed = ((mixed ^ (mixed >> 31)) * 0xBF58476D1CE4E5B9) & _MASK64
    return mixed ^ (mixed >> 29)


def _seeded_cells(seed: int, name: str, count: int, n_hi: int):
    # one derived seed per case, which both picks the cell and drives the run
    for case in range(count):
        run_seed = _derive(seed, f"{name}-{case}")
        n, k = next(random_cells(RandomSource(run_seed), 1, 2, n_hi))
        yield run_seed, n, k


def _gof_record(name: str, report) -> CheckRecord:
    return CheckRecord(name, report.statistic, report.p_value, report.passed)


def _structural(name: str, violations: int) -> CheckRecord:
    ok = violations == 0
    return CheckRecord(name, float(violations), 1.0 if ok else 0.0, ok)


def run_suite(suite: str = "quick", seed: int = 0,
              alpha: float = 0.001) -> list[CheckRecord]:
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}, expected 'quick' or 'full'")
    column = _SUITES.index(suite)
    scale = {key: sizes[column] for key, sizes in _SCALES.items()}
    cases = scale["structural_cases"]
    records: list[CheckRecord] = []

    def src(name: str) -> RandomSource:
        return RandomSource(_derive(seed, name))

    def law(name, draw, expected, reps):
        records.append(_gof_record(name, pmf_law(draw, expected, src(name), reps, alpha)))

    def ks(name, draw, cdf):
        s = src(name)
        values = [draw(s) for _ in range(scale["ks_n"])]
        records.append(_gof_record(name, statcheck.ks_gof(values, cdf, alpha)))

    # -- uniform primitives ---------------------------------------------------

    law("uniform-int-equidist-m6", lambda s: s.next_uniform_int(6),
        (1, [1 / 6] * 6), scale["uniform_draws"])
    ks("uniform-real-ks", lambda s: s.next_uniform_real(), lambda z: z)

    # -- distribution laws ----------------------------------------------------

    reps = scale["dist_reps"]
    law("binomial-pmf-n10-p0.5", lambda s: binomial(s, 10, 0.5),
        statcheck.binomial_law(10, 0.5), reps)
    # np = 40 exercises the BTRD path
    law("binomial-pmf-n100-p0.4", lambda s: binomial(s, 100, 0.4),
        statcheck.binomial_law(100, 0.4), reps)
    for name, a, b, m in (("beta-binomial-uniform-1-1-5", 1, 1, 5),
                          ("beta-binomial-pmf-1-2-3", 1, 2, 3),
                          ("beta-binomial-pmf-2-2-6", 2, 2, 6)):
        law(name, lambda s: beta_binomial(s, a, b, m),
            statcheck.beta_binomial_law(a, b, m), reps)
    # (20, 60, 25) takes inversion at mean 8.3 with min(v, k) = 20 after the
    # symmetries; (70, 150, 75), mean 35, takes HRUA
    for v, n, k in ((2, 4, 2), (5, 12, 7), (20, 60, 25), (70, 150, 75)):
        law(f"hypergeometric-pmf-{v}-{n}-{k}", lambda s: hypergeometric(s, v, n, k),
            statcheck.hypergeom_law(v, n, k), reps)

    ks("beta-quantile-ks-a1-b4", lambda s: beta(s, 1.0, 4.0),
       lambda z: 1.0 - (1.0 - z) ** 4)
    # chance that at least 3 of 4 uniforms fall below z
    ks("beta-ks-a3-b2", lambda s: beta(s, 3.0, 2.0),
       lambda z: 4.0 * z ** 3 * (1.0 - z) + z ** 4)

    # -- sampler laws ----------------------------------------------------------

    for algo_name, sampler in default_samplers().items():
        name = f"subset-uniformity-{algo_name}"
        report = statcheck.enumerate_subset_distribution(
            lambda s: sampler(s, 6, 3).indices, 6, 3, scale["subset_reps"], src(name), alpha
        )
        records.append(_gof_record(name, report))

    for name, sampler in (("first-position-inorder-5-2", inorder_sample),
                          ("first-position-sparse-min-5-2", sparse_fisher_yates)):
        report = first_position_law(sampler, src(name), 5, 2, scale["fp_reps"], alpha)
        records.append(_gof_record(name, report))

    # -- cost laws -------------------------------------------------------------

    name = "membership-mean-draws-100-50"
    reps = scale["member_reps"]
    draws = membership_draws(src(name), 100, 50, reps)
    mean = math.fsum(draws) / reps
    expect = statcheck.expected_membership_draws(100, 50)
    var = math.fsum((d - mean) ** 2 for d in draws) / (reps - 1)
    z = (mean - expect) / math.sqrt(var / reps)
    p = statcheck.normal_sf_two_sided(z)
    records.append(CheckRecord(name, z, p, p >= alpha))

    name = "hash-occupancy-n1000"
    checkpoints = (100, 250, 500, 750, 900)
    runs = scale["occupancy_runs"]
    sums, sumsq = occupancy_sums(1000, checkpoints, itertools.repeat(src(name), runs))
    means = {c: sums[c] / runs for c in checkpoints}
    expect_mid = statcheck.expected_hash_occupancy(1000, 500)
    var_mid = (sumsq[500] - runs * means[500] ** 2) / (runs - 1)
    z = (means[500] - expect_mid) / math.sqrt(var_mid / runs)
    dominated = all(means[c] <= means[500] for c in checkpoints)
    p = statcheck.normal_sf_two_sided(z) if dominated else 0.0
    records.append(CheckRecord(name, z, p, p >= alpha and dominated))

    name = "draw-budget-exact"
    cells = (
        (RandomSource(_derive(seed, f"{name}-{case}")), n, k)
        for case, (n, k) in enumerate(random_cells(src(name), cases, 2, 61))
    )
    records.append(_structural(name, draw_budget_violations(cells)))

    name = "sorted-order-outputs"
    violations = 0
    s = src(name)
    for n, k in random_cells(s, cases, 2, 41):
        for res in (selection_sample(s, n, k), inorder_sample(s, n, k)):
            if any(a >= b for a, b in zip(res.indices, res.indices[1:])):
                violations += 1
            if res.indices and not (1 <= res.indices[0] and res.indices[-1] <= n):
                violations += 1
    records.append(_structural(name, violations))

    name = "sparse-classical-bitexact"
    records.append(
        _structural(name, bitexact_mismatches(_seeded_cells(seed, name, cases, 81)))
    )

    name = "iterator-prefix-consistency"
    violations = sum(
        list(itertools.islice(SparseFisherYatesIterator(n, RandomSource(run_seed)), k))
        != sparse_fisher_yates(RandomSource(run_seed), n, k).indices
        for run_seed, n, k in _seeded_cells(seed, name, cases, 81)
    )
    records.append(_structural(name, violations))

    name = "preinit-restoration"
    s = src(name)
    violations = restoration_violations(s, random_cells(s, cases, 2, 101), 10 ** 6)
    records.append(_structural(name, violations))

    # -- distributed -----------------------------------------------------------

    law("split-counts-2-2-k2",
        lambda s: distributed.split_sample_counts(s, (2, 2), 2)[0],
        statcheck.hypergeom_law(2, 4, 2), scale["split_reps"])

    inclusion, _, winner_violations = merge_two_shards(
        src("merge-item-inclusion-4-4"), scale["merge_reps"]
    )
    report = statcheck.chi_square_gof(inclusion, [1 / 8] * 8, alpha)
    records.append(_gof_record("merge-item-inclusion-4-4", report))
    records.append(_structural("merge-winner-keeps-all", winner_violations))

    # -- permutations ----------------------------------------------------------

    perm_index = {p: i for i, p in enumerate(itertools.permutations(range(1, 5)))}
    law("permutation-uniformity-n4",
        lambda s: perm_index[tuple(permutation_from_transpositions(s, 4))],
        (0, [1 / 24] * 24), scale["perm_reps"])

    if suite == "full":
        name = "uniform-int-sweep-m1-64"
        reports = [
            pmf_law(lambda s: s.next_uniform_int(m), (1, [1.0 / m] * m),
                    src(f"{name}-{m}"), 10_000 * m, alpha)
            for m in range(2, 65)
        ]
        worst = min(r.p_value for r in reports)
        records.append(CheckRecord(name, worst, worst, all(r.passed for r in reports)))

        name = "split-merge-duality-4-4-k3"
        records.append(_gof_record(name, split_merge_law(src(name), 3, 20_000, alpha)))

        # 100 uniform draws over 20 cells per rep: the share of reps that a fixed
        # internal level of 0.01 rejects measures the p-value machinery
        name = "chi-square-calibration-ncat20"
        s = src(name)
        reps = 100_000
        cal_alpha = 0.01
        rejected = sum(
            not pmf_law(lambda s: s.next_uniform_int(20), (1, [1.0 / 20] * 20), s, 100,
                        cal_alpha).passed
            for _ in range(reps)
        )
        expect = reps * cal_alpha
        z = (rejected - expect) / math.sqrt(reps * cal_alpha * (1.0 - cal_alpha))
        p = statcheck.normal_sf_two_sided(z)
        records.append(CheckRecord(name, z, p, p >= alpha))

    for n, m in ((5, 2), (5, 3), (12, 1), (12, 11)):
        name = f"downsample-subsets-{n}-{m}"
        report = downsample_subsets_law(src(name), n, m, scale["subset_reps"], alpha)
        records.append(_gof_record(name, report))

    name = "reservoir-max-position-60-3"
    records.append(_gof_record(name, reservoir_max_law(src(name), 60, 3, scale["fp_reps"],
                                                       alpha)))
    return records


def format_report(records: list[CheckRecord]) -> list[str]:
    lines = []
    for r in records:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.name:<36s} stat={r.statistic:>12.6g}  p={r.p_value:<12.6g} {status}"
        )
    return lines
