"""The one catalogue of law checks, and the runnable verification suite.

Every law check of the package is a row of _checks(): `srswor verify` runs
the table, and the tests run it once at the quick scale.  Each law that the
acceptance criteria measure too has one function here: it takes its
sources and scale, returns the raw measurement or a (statistic, p-value)
pair, and leaves the verdict to its caller.  run_suite runs the rows
(name, (quick, full) scale, check), deterministic given (suite, seed): each
row's source is seeded from the run seed and its name, so adding or
reordering rows does not disturb the others.  A check returns (statistic,
p-value); a structural check reports p 1.0 or 0.0, and a check whose side
condition fails reports p 0.0.  run_row alone applies alpha: a record
passes when its p-value is at least alpha.
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


def pmf_law(draw, law, source, reps: int, edges=None) -> tuple[float, float]:
    """Chi-square (statistic, p-value) of reps values draw(source) against
    law = (lo, probs), where probs[i] is the probability of lo + i: one cell
    per value, or the cells [lo + a, lo + b) of each pair (a, b) of
    consecutive edges.

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
    if edges is None:
        return statcheck.chi_square_gof(counts, probs)
    cells = list(zip(edges, edges[1:]))
    return statcheck.chi_square_gof([sum(counts[a:b]) for a, b in cells],
                                    [math.fsum(probs[a:b]) for a, b in cells])


def subset_law(draw, n: int, k: int):
    """(indexed, law) for pmf_law: the uniform law on the C(n, k) k-subsets
    of [1, n], indexed in itertools.combinations order, and indexed(source)
    the index of the items draw(source), in any order, or -1 if they are not
    such a subset."""
    index = {subset: i for i, subset in enumerate(itertools.combinations(range(1, n + 1), k))}
    return (lambda source: index.get(tuple(sorted(draw(source))), -1),
            (0, [1.0 / len(index)] * len(index)))


def _wide_edges(probs) -> list[int]:
    """pmf_law's edges for a law too wide for one cell per value: about 60
    cells of equal width over its mean +- 4 sd, and each tail beyond them
    one cell.  They are offsets, so a float keeps them exact to a fraction
    of a cell however large the law's lo is."""
    size = len(probs)
    mean = sum([i * q for i, q in enumerate(probs)])
    sd = math.sqrt(sum([(i - mean) ** 2 * q for i, q in enumerate(probs)]))
    left, right = math.floor(mean - 4 * sd), math.ceil(mean + 4 * sd)
    width = max(1, math.ceil((right - left + 1) / 60))
    return sorted({min(max(e, 0), size)
                   for e in (0, *range(left, right + 1, width), right + 1, size)})


def _beta_cdf(alpha: int, b: float):
    """CDF of Beta(alpha, b) for integer alpha: the chance that at least alpha
    of N = alpha + b - 1 uniforms fall below x, with (1 - x)^m taken as
    exp(m log1p(-x)) so that it holds at huge b."""
    n = alpha + b - 1

    def cdf(x):
        total, coef = 0.0, 1.0
        for j in range(alpha):
            total += coef * x ** j * math.exp((n - j) * math.log1p(-x))
            coef *= (n - j) / (j + 1)
        return 1.0 - total
    return cdf


def first_position_law(sampler, source, n: int, k: int, reps: int) -> tuple[float, float]:
    """The smallest index of reps samples sampler(source, n, k), against its
    law 1 + BetaBinomial(1, k, n - k)."""
    lo, probs = statcheck.beta_binomial_law(1, k, n - k)
    return pmf_law(lambda s: min(sampler(s, n, k).indices), (1 + lo, probs),
                   source, reps)


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
            it.take(c - it.i)
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


def split_merge_law(source, k: int, reps: int) -> tuple[float, float]:
    """Split k over blocks (4, 4), sample each block's share with
    sparse_fisher_yates, and chi-square the union against the uniform law
    on all C(8, k) subsets."""
    def draw(s):
        c0, c1 = distributed.split_sample_counts(s, (4, 4), k)
        return (sparse_fisher_yates(s, 4, c0).indices
                + [i + 4 for i in sparse_fisher_yates(s, 4, c1).indices])
    return pmf_law(*subset_law(draw, 8, k), source, reps)


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

# Scales shared by several rows, as (quick, full); a row may give its own
# pair.  A quick scale of 0 marks a check that only the full suite runs.
_DIST_REPS = (30_000, 200_000)
_LAW_REPS = (60_000, 200_000)
_KS_N = (20_000, 100_000)
_SUBSET_REPS = (4_000, 100_000)
_STRUCTURAL_CASES = (60, 200)
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


def _exact(violations: int) -> tuple[float, float]:
    return float(violations), float(violations == 0)


def _given(result, ok: bool) -> tuple[float, float]:
    """result's statistic, and its p-value if the side condition ok holds,
    else 0.0."""
    statistic, p_value = result
    return statistic, p_value if ok else 0.0


def _z_test(z: float, ok: bool = True) -> tuple[float, float]:
    return _given((z, statcheck.normal_sf_two_sided(z)), ok)


def _worst(results) -> tuple[float, float]:
    """The (statistic, p-value) of the smallest p over one run's tests."""
    return min(results, key=lambda r: r[1])


# A check is called as check(source, size, seed_of): source is seeded from
# the run seed and the row's name, size is the row's scale, and seed_of(tag)
# derives a seed from the run seed and f"{name}-{tag}".

def _law(draw, law):
    return lambda source, size, _: pmf_law(draw, law, source, size)


def _family(draw, law, *params):
    return _law(lambda s: draw(s, *params), law(*params))


def _ks(draw, cdf):
    return lambda source, size, _: statcheck.ks_gof([draw(source) for _ in range(size)], cdf)


def _wide_family(draw, law, uniforms_per_draw, *params):
    # the law is walked when the row runs, not when the table is built
    def check(source, reps, _):
        lo, probs = law(*params)
        result = pmf_law(lambda s: draw(s, *params), (lo, probs), source, reps, _wide_edges(probs))
        return _given(result, source.stats.uniform_real < uniforms_per_draw * reps)
    return check


def _normal_ks(draw, num: int, den: int, sd: float):
    # z = (c - num / den) / sd, with c - num / den formed exactly
    return _ks(lambda s: (draw(s) * den - num) / den / sd,
               lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0)))


def _binomial_normal(n: int, p: float):
    num, den = p.as_integer_ratio()
    return _normal_ks(lambda s: binomial(s, n, p), n * num, den, math.sqrt(n * p * (1 - p)))


def _hypergeometric_normal(v: int, n: int, k: int):
    sd = math.sqrt(k * (v / n) * (1 - v / n) * ((n - k) / (n - 1)))
    return _normal_ks(lambda s: hypergeometric(s, v, n, k), k * v, n, sd)


def _beta_b1(a: int):
    # the b = 1 route takes one uniform a draw
    def check(source, size, _):
        result = statcheck.ks_gof([beta(source, float(a), 1.0) for _ in range(size)],
                                  lambda x: x ** a)
        return _given(result, source.stats.uniform_real == size)
    return check


def _pair_thirds(source):
    # the thirds of [1, 3 * 2^64] that sparse's first and second picks fall in
    a, b = sparse_fisher_yates(source, 3 << 64, 2).indices
    return 3 * ((a - 1) >> 64) + ((b - 1) >> 64)


# P(thirds i, j) = (t^2 - [i = j] t) / (m (m - 1)), t = 2^64, m = 3t
_PAIR_THIRDS_LAW = (0, [((1 << 128) - (i == j) * (1 << 64)) / ((3 << 64) * ((3 << 64) - 1))
                        for i in range(3) for j in range(3)])


def _membership_mean(source, reps, _):
    draws = membership_draws(source, 100, 50, reps)
    mean = math.fsum(draws) / reps
    var = math.fsum((d - mean) ** 2 for d in draws) / (reps - 1)
    return _z_test((mean - statcheck.expected_membership_draws(100, 50)) / math.sqrt(var / reps))


def _occupancy(source, runs, _):
    checkpoints = (100, 250, 500, 750, 900)
    sums, sumsq = occupancy_sums(1000, checkpoints, itertools.repeat(source, runs))
    means = {c: sums[c] / runs for c in checkpoints}
    var_mid = (sumsq[500] - runs * means[500] ** 2) / (runs - 1)
    z = (means[500] - statcheck.expected_hash_occupancy(1000, 500)) / math.sqrt(var_mid / runs)
    return _z_test(z, all(means[c] <= means[500] for c in checkpoints))


def _draw_budget(source, cases, seed_of):
    return _exact(draw_budget_violations(
        (RandomSource(seed_of(case)), n, k)
        for case, (n, k) in enumerate(random_cells(source, cases, 2, 61))))


def _sorted_outputs(source, cases, _):
    violations = 0
    for n, k in random_cells(source, cases, 2, 41):
        for res in (selection_sample(source, n, k), inorder_sample(source, n, k)):
            violations += any(a >= b for a, b in zip(res.indices, res.indices[1:]))
            violations += bool(res.indices) and not (1 <= res.indices[0] and res.indices[-1] <= n)
    return _exact(violations)


def _prefix_consistency(source, cases, seed_of):
    return _exact(sum(
        SparseFisherYatesIterator(n, RandomSource(run_seed)).take(k)
        != sparse_fisher_yates(RandomSource(run_seed), n, k).indices
        for run_seed, n, k in _seeded_cells(seed_of, cases, 81)))


def _split_marginals(source, reps, _):
    # each block's count of a (3, 4, 5) split of 4 is Hypergeom(block, 12, 4)
    sizes = (3, 4, 5)
    tallies = [[0] * 5 for _ in sizes]
    for _ in range(reps):
        for tally, c in zip(tallies, distributed.split_sample_counts(source, sizes, 4)):
            tally[c] += 1
    laws = [statcheck.hypergeom_law(size, 12, 4) for size in sizes]
    return _worst([statcheck.chi_square_gof(tally[lo:lo + len(probs)], probs)
                   for tally, (lo, probs) in zip(tallies, laws)])


def _merge(source, reps, _):
    # given the merged size s, each of the 8 items is kept with chance s / 8
    # (sizes seen in under a twentieth of the runs, and s = 0, are left out)
    inclusion, merged_sets, winner_violations = merge_two_shards(source, reps)
    given_size = []
    for s in range(1, 5):
        sets = {merged: count for merged, count in merged_sets.items() if len(merged) == s}
        if sum(sets.values()) >= reps / 20:
            given_size.append(statcheck.chi_square_gof(
                [sum(count for merged, count in sets.items() if item in merged)
                 for item in range(1, 9)], [1 / 8] * 8))
    return {"merge-item-inclusion-4-4": statcheck.chi_square_gof(inclusion, [1 / 8] * 8),
            "merge-winner-keeps-all": _exact(winner_violations),
            "merge-inclusion-given-size-4-4": _worst(given_size)}


def _merge_drop_side(source, reps, _):
    # shards of 4 sorted items from 8: kappa = 3 drops one position, and a
    # bias toward either end of a shard would show in the inclusion counts
    inclusion = [0] * 16
    drop_side = 0
    for _ in range(reps):
        sample_a = sorted(sparse_fisher_yates(source, 8, 4).indices)
        sample_b = sorted(i + 8 for i in sparse_fisher_yates(source, 8, 4).indices)
        merged, state = distributed.merge_all_with_state(
            source, (distributed.MergeInput(sample_a, 8), distributed.MergeInput(sample_b, 8)))
        drop_side += state.kappas.count(3)
        for item in merged:
            inclusion[item - 1] += 1
    return _given(statcheck.chi_square_gof(inclusion, [1 / 16] * 16), drop_side > reps // 4)


def _merge_symmetric(source, reps, _):
    # swapping the two shards must not change the law of the merged set
    tallies = []
    for swap in (False, True):
        tally: Counter = Counter()
        for _ in range(reps):
            a = distributed.MergeInput(fisher_yates_sample(source, 3, 1).indices, 3)
            b = distributed.MergeInput([3 + fisher_yates_sample(source, 3, 1).indices[0]], 3)
            merged, _ = distributed.merge_all_with_state(source, (b, a) if swap else (a, b))
            tally[frozenset(merged)] += 1
        tallies.append(tally)
    keys = sorted(set(tallies[0]) | set(tallies[1]), key=sorted)
    return statcheck.chi_square_two_sample(*([t[s] for s in keys] for t in tallies))


def _merge_beside_empty(source, reps, _):
    # an empty shard's threshold is Beta(1, N); beside it, the kept count of
    # a 10-item shard has nearly the same law at N = 10^5 and 10^17 (Exp(1)
    # against Gamma(11) after scaling by N)
    tallies = []
    for n in (10**5, 10**17):
        inputs = (distributed.MergeInput([], n), distributed.MergeInput(range(10), n))
        tally = [0] * 11
        for _ in range(reps):
            tally[distributed.merge_all_with_state(source, inputs)[1].kappas[1]] += 1
        tallies.append(tally)
    return statcheck.chi_square_two_sample(*tallies)


def _thinning(q: float):
    # the kept count of 5 items is Binomial(5, q), and the kept subsets of
    # each size are uniform
    def check(source, reps, _):
        kept = Counter(tuple(distributed._thin(source, range(5), q)) for _ in range(reps))
        sizes = [0] * 6
        for subset, count in kept.items():
            sizes[len(subset)] += count
        lo, probs = statcheck.binomial_law(5, q)
        results = [statcheck.chi_square_gof(sizes[lo:lo + len(probs)], probs)]
        for m in range(1, 5):
            subsets = list(itertools.combinations(range(5), m))
            results.append(statcheck.chi_square_gof(
                [kept[subset] for subset in subsets], [1 / len(subsets)] * len(subsets)))
        return _worst(results)
    return check


def _downsample_items(source, reps, _):
    inclusion = [0] * 5
    for _ in range(reps):
        for item in distributed.downsample(source, [1, 2, 3, 4, 5], 2):
            inclusion[item - 1] += 1
    return statcheck.chi_square_gof(inclusion, [1 / 5] * 5)


def _uniform_sweep(source, reps, seed_of):
    worst = min(pmf_law(lambda s: s.next_uniform_int(m), (1, [1.0 / m] * m),
                        RandomSource(seed_of(m)), reps * m)[1]
                for m in range(2, 65))
    return worst, worst


def _calibration(source, reps, _):
    # 100 uniform draws over 20 cells per rep: the share of reps that a fixed
    # internal level of 0.01 rejects measures the p-value machinery
    cal_alpha = 0.01
    rejected = sum(
        pmf_law(lambda s: s.next_uniform_int(20), (1, [1.0 / 20] * 20), source, 100)[1] < cal_alpha
        for _ in range(reps)
    )
    return _z_test((rejected - reps * cal_alpha)
                   / math.sqrt(reps * cal_alpha * (1.0 - cal_alpha)))


def _checks() -> list[tuple]:
    """The suite's rows (name, (quick, full) scale, check), in report order."""
    perm_index = {p: i for i, p in enumerate(itertools.permutations(range(1, 5)))}
    return [
        ("uniform-int-equidist-m6", (60_000, 600_000),
         _law(lambda s: s.next_uniform_int(6), (1, [1 / 6] * 6))),
        # bounds above 2^64 join words: next_uniform_int, then the run of
        # bounds in descending_ints
        ("uniform-int-thirds-m3x2^64", (30_000, 300_000),
         _law(lambda s: (s.next_uniform_int(3 << 64) - 1) >> 64, (0, [1 / 3] * 3))),
        ("sparse-pair-thirds-n3x2^64", (30_000, 300_000), _law(_pair_thirds, _PAIR_THIRDS_LAW)),
        ("uniform-real-ks", _KS_N, _ks(lambda s: s.next_uniform_real(), lambda z: z)),
        ("binomial-pmf-n10-p0.5", _DIST_REPS, _family(binomial, statcheck.binomial_law, 10, 0.5)),
        # np = 40 exercises the BTRD path
        ("binomial-pmf-n100-p0.4", _DIST_REPS,
         _family(binomial, statcheck.binomial_law, 100, 0.4)),
        ("binomial-pmf-n10-p0.3", _LAW_REPS, _family(binomial, statcheck.binomial_law, 10, 0.3)),
        # BTRD up to n = 10^30, the p > 1/2 reflection included; it takes
        # 1.4-1.8 uniforms a draw, and the row fails at 2
        *[(f"binomial-btrd-{name}", (40_000, 100_000),
           _wide_family(binomial, statcheck.binomial_law, 2, n, p))
          for name, n, p in (("n400-p0.4", 400, 0.4), ("n1000-p0.3", 1000, 0.3),
                             ("n5000-p0.9", 5000, 0.9), ("n1e9-p0.4", 10**9, 0.4),
                             ("n2^53+1-p2^-45", 2**53 + 1, 2.0**-45),
                             ("n2^64+1-p1-2^-50", 2**64 + 1, 1 - 2.0**-50),
                             ("n1e30-p1e-27", 10**30, 1e-27))],
        # sd from 1e5 to 3e149: too wide for the oracle's pmf walk, and normal to
        # within O(1/sd)
        *[(f"binomial-z-{name}", _KS_N, _binomial_normal(n, p))
          for name, n, p in (("n1e300-p1e-290", 10**300, 1e-290), ("n2^1023-p0.5", 2**1023, 0.5),
                             ("n2^1023+2^1000-p0.3", 2**1023 + 2**1000, 0.3))],
        *[(name, scale, _family(beta_binomial, statcheck.beta_binomial_law, a, b, m))
          for name, scale, a, b, m in (("beta-binomial-uniform-1-1-5", _LAW_REPS, 1, 1, 5),
                                       ("beta-binomial-pmf-1-2-3", _DIST_REPS, 1, 2, 3),
                                       ("beta-binomial-pmf-2-2-6", _LAW_REPS, 2, 2, 6),
                                       ("beta-binomial-pmf-1-3-5", _LAW_REPS, 1, 3, 5))],
        # (20, 60, 25) takes inversion at mean 8.3 with min(v, k) = 20 after the
        # symmetries; (70, 150, 75), mean 35, takes HRUA; (40, 1000, 300) and
        # (300, 1000, 960) take inversion over 41 points, directly and through
        # k -> n - k; (9, 12, 5) goes through v -> n - v
        *[(f"hypergeometric-pmf-{v}-{n}-{k}", scale,
           _family(hypergeometric, statcheck.hypergeom_law, v, n, k))
          for scale, v, n, k in ((_LAW_REPS, 2, 4, 2), (_DIST_REPS, 5, 12, 7),
                                 (_DIST_REPS, 20, 60, 25), (_DIST_REPS, 70, 150, 75),
                                 (_LAW_REPS, 40, 1000, 300), (_LAW_REPS, 300, 1000, 960),
                                 (_DIST_REPS, 9, 12, 5))],
        # HRUA takes about 3 uniforms a draw, and the row fails at 4
        *[(f"hypergeometric-hrua-{name}", (40_000, 100_000),
           _wide_family(hypergeometric, statcheck.hypergeom_law, 4, v, n, k))
          for name, v, n, k in (("500-2000-300", 500, 2000, 300),
                                ("1e9-3e9-1500", 10**9, 3 * 10**9, 1500),
                                ("2^62-2^64+1-1500", 2**62, 2**64 + 1, 1500),
                                ("1e29-1e30-4000", 10**29, 10**30, 4000))],
        *[(f"hypergeometric-z-{name}", _KS_N, _hypergeometric_normal(v, n, k))
          for name, v, n, k in (("1e40-3e40-1e39", 10**40, 3 * 10**40, 10**39),
                                ("1e200-3e200-1e150", 10**200, 3 * 10**200, 10**150),
                                ("1e300-1e307-1e306", 10**300, 10**307, 10**306))],
        ("beta-quantile-ks-a1-b4", (40_000, 100_000),
         _ks(lambda s: beta(s, 1.0, 4.0), lambda z: 1.0 - (1.0 - z) ** 4)),
        # chance that at least 3 of 4 uniforms fall below z
        ("beta-ks-a3-b2", (50_000, 100_000),
         _ks(lambda s: beta(s, 3.0, 2.0), lambda z: 4.0 * z ** 3 * (1.0 - z) + z ** 4)),
        # past b of about 2^50, 1 - U**(1/b) rounds to 0 for almost every U;
        # alpha = 3 runs BB with its shapes 18 orders of magnitude apart
        *[(f"beta-ks-a{a}-b{name}", _KS_N, _ks(lambda s, a=a, b=b: beta(s, float(a), b),
                                               _beta_cdf(a, b)))
          for a in (1, 3) for name, b in (("2^60", 2.0**60), ("1e17", 1e17))],
        ("beta-ks-a2-b1", _KS_N, _beta_b1(2)),
        ("beta-ks-a6-b1", _KS_N, _beta_b1(6)),
        # Beta(40, 5) is 1 - Beta(5, 40): BB with the shapes swapped
        ("beta-ks-a5-b40", _KS_N, _ks(lambda s: beta(s, 5.0, 40.0), _beta_cdf(5, 40))),
        ("beta-ks-a40-b5", _KS_N, _ks(lambda s: beta(s, 40.0, 5.0),
                                      lambda x, low=_beta_cdf(5, 40): 1.0 - low(1.0 - x))),
        *[(f"subset-uniformity-{algo}", _SUBSET_REPS,
           _law(*subset_law(lambda s, sampler=sampler: sampler(s, 6, 3).indices, 6, 3)))
          for algo, sampler in default_samplers().items()],
        *[(name, scale, lambda source, reps, _, sampler=sampler:
           first_position_law(sampler, source, 5, 2, reps))
          for name, scale, sampler in (
              ("first-position-inorder-5-2", (40_000, 100_000), inorder_sample),
              ("first-position-sparse-min-5-2", (30_000, 100_000), sparse_fisher_yates))],
        ("membership-mean-draws-100-50", (20_000, 100_000), _membership_mean),
        ("hash-occupancy-n1000", (1_500, 10_000), _occupancy),
        ("draw-budget-exact", _STRUCTURAL_CASES, _draw_budget),
        ("sorted-order-outputs", _STRUCTURAL_CASES, _sorted_outputs),
        ("sparse-classical-bitexact", _STRUCTURAL_CASES, lambda source, cases, seed_of:
         _exact(bitexact_mismatches(_seeded_cells(seed_of, cases, 81)))),
        ("iterator-prefix-consistency", _STRUCTURAL_CASES, _prefix_consistency),
        ("preinit-restoration", _STRUCTURAL_CASES, lambda source, cases, _:
         _exact(restoration_violations(source, random_cells(source, cases, 2, 101), 10 ** 6))),
        ("split-counts-2-2-k2", (60_000, 100_000),
         _law(lambda s: distributed.split_sample_counts(s, (2, 2), 2)[0],
              statcheck.hypergeom_law(2, 4, 2))),
        ("split-counts-3-4-5-k4", (40_000, 100_000), _split_marginals),
        ("merge-item-inclusion-4-4", (60_000, 200_000), _merge),
        ("merge-inclusion-drop-side-8-8", (40_000, 100_000), _merge_drop_side),
        ("merge-symmetric-3-3", (30_000, 100_000), _merge_symmetric),
        ("merge-beside-empty-1e5-1e17", (20_000, 100_000), _merge_beside_empty),
        # 256 q = 76.8 draws a Bernoulli at each tie byte; 256 q = 160 draws none
        ("thinning-q0.3", _LAW_REPS, _thinning(0.3)),
        ("thinning-q0.625", _LAW_REPS, _thinning(0.625)),
        ("permutation-uniformity-n4", (24_000, 120_000),
         _law(lambda s: perm_index[tuple(permutation_from_transpositions(s, 4))],
              (0, [1 / 24] * 24))),
        # per value of each bound m
        ("uniform-int-sweep-m1-64", (0, 10_000), _uniform_sweep),
        ("split-merge-duality-4-4-k3", (0, 20_000),
         lambda source, reps, _: split_merge_law(source, 3, reps)),
        ("chi-square-calibration-ncat20", (0, 100_000), _calibration),
        # keep m of n: a small min(m, n - m) takes the draws route (the
        # positions to keep if 2m <= n, else to drop), a large one the marks
        # route, with fix-ups both ways; see distributed.downsample
        *[(f"downsample-subsets-{n}-{m}", (20_000, 100_000),
           _law(*subset_law(lambda s, n=n, m=m: distributed.downsample(s, range(1, n + 1), m),
                            n, m)))
          for n, m in ((5, 2), (5, 3), (12, 1), (12, 11))],
        ("downsample-items-5-2", (30_000, 100_000), _downsample_items),
        # items arrive in increasing order, so the largest kept one is the last
        # replacement: its law, P(max = m) = C(m - 1, 2) / C(60, 3), reads the
        # whole chain of skips, the longest ones included
        ("reservoir-max-position-60-3", (40_000, 100_000),
         _law(lambda s: max(reservoir_sample(s, range(1, 61), 3).indices),
              (3, [math.comb(m - 1, 2) / math.comb(60, 3) for m in range(3, 61)]))),
    ]


def run_row(name: str, check, size: int, seed: int, alpha: float) -> list[CheckRecord]:
    """The records of one row's check at size, run on the source and seeds
    that the run seed and the row's name derive.  This is the suite's one
    verdict: a record passes when its p-value is at least alpha."""
    results = check(RandomSource(_derive(seed, name)), size,
                    lambda tag: _derive(seed, f"{name}-{tag}"))
    # the merge row reports three records from one run
    return [CheckRecord(label, statistic, p_value, p_value >= alpha)
            for label, (statistic, p_value)
            in (results.items() if isinstance(results, dict) else [(name, results)])]


def run_suite(suite: str = "quick", seed: int = 0,
              alpha: float = 0.001) -> list[CheckRecord]:
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}, expected 'quick' or 'full'")
    column = _SUITES.index(suite)
    return [record for name, scale, check in _checks() if scale[column]
            for record in run_row(name, check, scale[column], seed, alpha)]


def format_report(records: list[CheckRecord]) -> str:
    return "".join(f"{r.name:<36s} stat={r.statistic:>12.6g}  p={r.p_value:<12.6g} "
                   f"{'PASS' if r.passed else 'FAIL'}\n" for r in records)
