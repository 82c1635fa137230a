"""The one catalogue of law checks, and the runnable verification suite.

Each law that `srswor verify` and the acceptance criteria both measure has
one function here: it takes its sources, scale and alpha, returns the raw
measurement or a chi-square report, and leaves the verdict to its caller.
run_suite runs one table of rows (name, scale key, check), deterministic
given (suite, seed): each row's source is seeded from the run seed and its
name, so adding or reordering rows does not disturb the others.  A check
passes when its p-value (or exactness flag, for structural checks) clears
the configured alpha; structural checks report p 1.0 or 0.0.
"""

from __future__ import annotations

import itertools
import math
import zlib
from collections import Counter

from . import distributed, statcheck
from .distributions import beta, beta_binomial, binomial, hypergeometric
from .rng import DrawStats, RandomSource, Record
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


class CheckRecord(Record, frozen=True):
    __slots__ = _fields = ("name", "statistic", "p_value", "passed")

    def __init__(self, name: str, statistic: float, p_value: float, passed: bool) -> None:
        self._init(name, statistic, p_value, passed)


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


# --- the verify suite ---------------------------------------------------------

# per-check scale as (quick, full); a quick scale of 0 marks a check that only
# the full suite runs
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
    sweep_reps=(0, 10_000),   # per value of each bound m
    duality_reps=(0, 20_000),
    calibration_reps=(0, 100_000),
)
_SUITES = ("quick", "full")

_MASK64 = (1 << 64) - 1


def _derive(seed: int, name: str) -> int:
    mixed = (seed * 0x9E3779B97F4A7C15 + zlib.crc32(name.encode())) & _MASK64
    mixed = ((mixed ^ (mixed >> 31)) * 0xBF58476D1CE4E5B9) & _MASK64
    return mixed ^ (mixed >> 29)


def _seeded_cells(seed_of, count: int, n_hi: int):
    # one derived seed per case, which both picks the cell and drives the run
    for case in range(count):
        run_seed = seed_of(case)
        n, k = next(random_cells(RandomSource(run_seed), 1, 2, n_hi))
        yield run_seed, n, k


def _exact(violations: int) -> tuple[float, float, bool]:
    ok = violations == 0
    return float(violations), 1.0 if ok else 0.0, ok


def _z_test(z: float, alpha: float, ok: bool = True) -> tuple[float, float, bool]:
    p = statcheck.normal_sf_two_sided(z) if ok else 0.0
    return z, p, ok and p >= alpha


# A check is called as check(source, size, alpha, seed_of): source is seeded
# from the run seed and the row's name, size is the row's scale, and
# seed_of(tag) derives a seed from the run seed and f"{name}-{tag}".

def _law(draw, law):
    return lambda source, size, alpha, _: pmf_law(draw, law, source, size, alpha)


def _family(draw, law, *params):
    return _law(lambda s: draw(s, *params), law(*params))


def _ks(draw, cdf):
    return lambda source, size, alpha, _: statcheck.ks_gof(
        [draw(source) for _ in range(size)], cdf, alpha)


def _membership_mean(source, reps, alpha, _):
    draws = membership_draws(source, 100, 50, reps)
    mean = math.fsum(draws) / reps
    var = math.fsum((d - mean) ** 2 for d in draws) / (reps - 1)
    return _z_test((mean - statcheck.expected_membership_draws(100, 50))
                   / math.sqrt(var / reps), alpha)


def _occupancy(source, runs, alpha, _):
    checkpoints = (100, 250, 500, 750, 900)
    sums, sumsq = occupancy_sums(1000, checkpoints, itertools.repeat(source, runs))
    means = {c: sums[c] / runs for c in checkpoints}
    var_mid = (sumsq[500] - runs * means[500] ** 2) / (runs - 1)
    z = (means[500] - statcheck.expected_hash_occupancy(1000, 500)) / math.sqrt(var_mid / runs)
    return _z_test(z, alpha, all(means[c] <= means[500] for c in checkpoints))


def _draw_budget(source, cases, alpha, seed_of):
    return _exact(draw_budget_violations(
        (RandomSource(seed_of(case)), n, k)
        for case, (n, k) in enumerate(random_cells(source, cases, 2, 61))))


def _sorted_outputs(source, cases, alpha, _):
    violations = 0
    for n, k in random_cells(source, cases, 2, 41):
        for res in (selection_sample(source, n, k), inorder_sample(source, n, k)):
            violations += any(a >= b for a, b in zip(res.indices, res.indices[1:]))
            violations += bool(res.indices) and not (1 <= res.indices[0] and res.indices[-1] <= n)
    return _exact(violations)


def _prefix_consistency(source, cases, alpha, seed_of):
    return _exact(sum(
        list(itertools.islice(SparseFisherYatesIterator(n, RandomSource(run_seed)), k))
        != sparse_fisher_yates(RandomSource(run_seed), n, k).indices
        for run_seed, n, k in _seeded_cells(seed_of, cases, 81)))


def _merge(source, reps, alpha, _):
    inclusion, _, winner_violations = merge_two_shards(source, reps)
    return {"merge-item-inclusion-4-4": statcheck.chi_square_gof(inclusion, [1 / 8] * 8, alpha),
            "merge-winner-keeps-all": _exact(winner_violations)}


def _uniform_sweep(source, reps, alpha, seed_of):
    reports = [pmf_law(lambda s: s.next_uniform_int(m), (1, [1.0 / m] * m),
                       RandomSource(seed_of(m)), reps * m, alpha)
               for m in range(2, 65)]
    worst = min(r.p_value for r in reports)
    return worst, worst, all(r.passed for r in reports)


def _calibration(source, reps, alpha, _):
    # 100 uniform draws over 20 cells per rep: the share of reps that a fixed
    # internal level of 0.01 rejects measures the p-value machinery
    cal_alpha = 0.01
    rejected = sum(
        not pmf_law(lambda s: s.next_uniform_int(20), (1, [1.0 / 20] * 20), source, 100,
                    cal_alpha).passed
        for _ in range(reps)
    )
    return _z_test((rejected - reps * cal_alpha)
                   / math.sqrt(reps * cal_alpha * (1.0 - cal_alpha)), alpha)


def _checks() -> list[tuple]:
    """The suite's rows (name, scale key, check), in report order."""
    perm_index = {p: i for i, p in enumerate(itertools.permutations(range(1, 5)))}
    return [
        ("uniform-int-equidist-m6", "uniform_draws",
         _law(lambda s: s.next_uniform_int(6), (1, [1 / 6] * 6))),
        ("uniform-real-ks", "ks_n", _ks(lambda s: s.next_uniform_real(), lambda z: z)),
        ("binomial-pmf-n10-p0.5", "dist_reps", _family(binomial, statcheck.binomial_law, 10, 0.5)),
        # np = 40 exercises the BTRD path
        ("binomial-pmf-n100-p0.4", "dist_reps",
         _family(binomial, statcheck.binomial_law, 100, 0.4)),
        *[(name, "dist_reps", _family(beta_binomial, statcheck.beta_binomial_law, a, b, m))
          for name, a, b, m in (("beta-binomial-uniform-1-1-5", 1, 1, 5),
                                ("beta-binomial-pmf-1-2-3", 1, 2, 3),
                                ("beta-binomial-pmf-2-2-6", 2, 2, 6))],
        # (20, 60, 25) takes inversion at mean 8.3 with min(v, k) = 20 after the
        # symmetries; (70, 150, 75), mean 35, takes HRUA
        *[(f"hypergeometric-pmf-{v}-{n}-{k}", "dist_reps",
           _family(hypergeometric, statcheck.hypergeom_law, v, n, k))
          for v, n, k in ((2, 4, 2), (5, 12, 7), (20, 60, 25), (70, 150, 75))],
        ("beta-quantile-ks-a1-b4", "ks_n",
         _ks(lambda s: beta(s, 1.0, 4.0), lambda z: 1.0 - (1.0 - z) ** 4)),
        # chance that at least 3 of 4 uniforms fall below z
        ("beta-ks-a3-b2", "ks_n",
         _ks(lambda s: beta(s, 3.0, 2.0), lambda z: 4.0 * z ** 3 * (1.0 - z) + z ** 4)),
        *[(f"subset-uniformity-{algo}", "subset_reps",
           lambda source, reps, alpha, _, sampler=sampler: statcheck.enumerate_subset_distribution(
               lambda s: sampler(s, 6, 3).indices, 6, 3, reps, source, alpha))
          for algo, sampler in default_samplers().items()],
        *[(name, "fp_reps", lambda source, reps, alpha, _, sampler=sampler:
           first_position_law(sampler, source, 5, 2, reps, alpha))
          for name, sampler in (("first-position-inorder-5-2", inorder_sample),
                                ("first-position-sparse-min-5-2", sparse_fisher_yates))],
        ("membership-mean-draws-100-50", "member_reps", _membership_mean),
        ("hash-occupancy-n1000", "occupancy_runs", _occupancy),
        ("draw-budget-exact", "structural_cases", _draw_budget),
        ("sorted-order-outputs", "structural_cases", _sorted_outputs),
        ("sparse-classical-bitexact", "structural_cases", lambda source, cases, alpha, seed_of:
         _exact(bitexact_mismatches(_seeded_cells(seed_of, cases, 81)))),
        ("iterator-prefix-consistency", "structural_cases", _prefix_consistency),
        ("preinit-restoration", "structural_cases", lambda source, cases, alpha, _:
         _exact(restoration_violations(source, random_cells(source, cases, 2, 101), 10 ** 6))),
        ("split-counts-2-2-k2", "split_reps",
         _law(lambda s: distributed.split_sample_counts(s, (2, 2), 2)[0],
              statcheck.hypergeom_law(2, 4, 2))),
        ("merge-item-inclusion-4-4", "merge_reps", _merge),
        ("permutation-uniformity-n4", "perm_reps",
         _law(lambda s: perm_index[tuple(permutation_from_transpositions(s, 4))],
              (0, [1 / 24] * 24))),
        ("uniform-int-sweep-m1-64", "sweep_reps", _uniform_sweep),
        ("split-merge-duality-4-4-k3", "duality_reps",
         lambda source, reps, alpha, _: split_merge_law(source, 3, reps, alpha)),
        ("chi-square-calibration-ncat20", "calibration_reps", _calibration),
        *[(f"downsample-subsets-{n}-{m}", "subset_reps", lambda source, reps, alpha, _, n=n, m=m:
           downsample_subsets_law(source, n, m, reps, alpha))
          for n, m in ((5, 2), (5, 3), (12, 1), (12, 11))],
        ("reservoir-max-position-60-3", "fp_reps",
         lambda source, reps, alpha, _: reservoir_max_law(source, 60, 3, reps, alpha)),
    ]


def run_suite(suite: str = "quick", seed: int = 0,
              alpha: float = 0.001) -> list[CheckRecord]:
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}, expected 'quick' or 'full'")
    column = _SUITES.index(suite)
    records = []
    for name, key, check in _checks():
        size = _SCALES[key][column]
        if size == 0:
            continue
        results = check(RandomSource(_derive(seed, name)), size, alpha,
                        lambda tag: _derive(seed, f"{name}-{tag}"))
        # the merge row reports two records from one run
        for label, result in (results.items() if isinstance(results, dict) else [(name, results)]):
            if not isinstance(result, tuple):
                result = result.statistic, result.p_value, result.passed
            records.append(CheckRecord(label, *result))
    return records


def format_report(records: list[CheckRecord]) -> list[str]:
    lines = []
    for r in records:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.name:<36s} stat={r.statistic:>12.6g}  p={r.p_value:<12.6g} {status}"
        )
    return lines
