"""Runnable verification suite: every named check returns a record.

Checks are deterministic given (suite, seed): each one derives its own
source seed from the run seed and its name, so adding or reordering checks
does not disturb the others.  A check passes when its p-value (or exactness
flag, for structural checks) clears the configured alpha; structural checks
report p 1.0 or 0.0.
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass

from . import distributed, statcheck
from .distributions import (
    BetaParams,
    HypergeomParams,
    beta,
    beta_binomial,
    binomial,
    hypergeometric,
)
from .rng import RandomSource
from .samplers import (
    SparseFisherYatesIterator,
    default_samplers,
    fisher_yates_sample,
    inorder_sample,
    membership_checking_sample,
    permutation_from_transpositions,
    preinit_fy_sample_with_undo,
    selection_sample,
    sparse_fisher_yates,
)


@dataclass(frozen=True)
class CheckRecord:
    name: str
    statistic: float
    p_value: float
    passed: bool


_SCALES = {
    "quick": dict(
        uniform_draws=60_000,
        ks_n=20_000,
        dist_reps=30_000,
        subset_reps=4_000,
        fp_reps=30_000,
        member_reps=20_000,
        occupancy_runs=1_500,
        merge_reps=20_000,
        split_reps=30_000,
        perm_reps=24_000,
        structural_cases=60,
        full_extras=False,
    ),
    "full": dict(
        uniform_draws=600_000,
        ks_n=100_000,
        dist_reps=200_000,
        subset_reps=100_000,
        fp_reps=100_000,
        member_reps=100_000,
        occupancy_runs=10_000,
        merge_reps=200_000,
        split_reps=100_000,
        perm_reps=120_000,
        structural_cases=200,
        full_extras=True,
    ),
}

_MASK64 = (1 << 64) - 1


def _derive(seed: int, name: str) -> int:
    mixed = (seed * 0x9E3779B97F4A7C15 + zlib.crc32(name.encode())) & _MASK64
    mixed = ((mixed ^ (mixed >> 31)) * 0xBF58476D1CE4E5B9) & _MASK64
    return mixed ^ (mixed >> 29)


def _gof_record(name: str, report: statcheck.GofReport) -> CheckRecord:
    return CheckRecord(name, report.statistic, report.p_value, report.passed)


def _structural(name: str, violations: int) -> CheckRecord:
    ok = violations == 0
    return CheckRecord(name, float(violations), 1.0 if ok else 0.0, ok)


def run_suite(suite: str = "quick", seed: int = 0,
              alpha: float = 0.001) -> list[CheckRecord]:
    if suite not in _SCALES:
        raise ValueError(f"unknown suite {suite!r}, expected 'quick' or 'full'")
    scale = _SCALES[suite]
    records: list[CheckRecord] = []

    def src(name: str) -> RandomSource:
        return RandomSource(_derive(seed, name))

    # -- uniform primitives ---------------------------------------------------

    name = "uniform-int-equidist-m6"
    s = src(name)
    counts = [0] * 6
    for _ in range(scale["uniform_draws"]):
        counts[s.next_uniform_int(6) - 1] += 1
    records.append(_gof_record(name, statcheck.chi_square_gof(counts, [1 / 6] * 6, alpha)))

    name = "uniform-real-ks"
    s = src(name)
    values = [s.next_uniform_real() for _ in range(scale["ks_n"])]
    ks = statcheck.ks_gof(values, lambda z: z, alpha)
    records.append(CheckRecord(name, ks.statistic, ks.p_value, ks.passed))

    # -- distribution laws ----------------------------------------------------

    def pmf_check(name, draw, pmf, support):
        s = src(name)
        counts = [0] * len(support)
        offset = support[0]
        for _ in range(scale["dist_reps"]):
            counts[draw(s) - offset] += 1
        probs = [pmf(c) for c in support]
        spill = 1.0 - math.fsum(probs)
        if abs(spill) > 1e-12:
            raise ValueError(f"{name}: support does not cover the law")
        records.append(_gof_record(name, statcheck.chi_square_gof(counts, probs, alpha)))

    pmf_check(
        "binomial-pmf-n10-p0.5",
        lambda s: binomial(s, 10, 0.5),
        lambda c: statcheck.binomial_pmf(10, 0.5, c),
        range(0, 11),
    )
    # np = 40 exercises the BTRD path
    pmf_check(
        "binomial-pmf-n100-p0.4",
        lambda s: binomial(s, 100, 0.4),
        lambda c: statcheck.binomial_pmf(100, 0.4, c),
        range(0, 101),
    )
    pmf_check(
        "beta-binomial-uniform-1-1-5",
        lambda s: beta_binomial(s, 1, 1, 5),
        lambda c: statcheck.beta_binomial_pmf(1, 1, 5, c),
        range(0, 6),
    )
    pmf_check(
        "beta-binomial-pmf-1-2-3",
        lambda s: beta_binomial(s, 1, 2, 3),
        lambda c: statcheck.beta_binomial_pmf(1, 2, 3, c),
        range(0, 4),
    )
    pmf_check(
        "beta-binomial-pmf-2-2-6",
        lambda s: beta_binomial(s, 2, 2, 6),
        lambda c: statcheck.beta_binomial_pmf(2, 2, 6, c),
        range(0, 7),
    )
    pmf_check(
        "hypergeometric-pmf-2-4-2",
        lambda s: hypergeometric(s, HypergeomParams(2, 4, 2)),
        lambda c: statcheck.hypergeom_pmf(HypergeomParams(2, 4, 2), c),
        range(0, 3),
    )
    pmf_check(
        "hypergeometric-pmf-5-12-7",
        lambda s: hypergeometric(s, HypergeomParams(5, 12, 7)),
        lambda c: statcheck.hypergeom_pmf(HypergeomParams(5, 12, 7), c),
        range(0, 6),
    )

    name = "beta-quantile-ks-a1-b4"
    s = src(name)
    values = [beta(s, BetaParams(1.0, 4.0)) for _ in range(scale["ks_n"])]
    ks = statcheck.ks_gof(values, lambda z: 1.0 - (1.0 - z) ** 4, alpha)
    records.append(CheckRecord(name, ks.statistic, ks.p_value, ks.passed))

    name = "beta-gamma-ks-a3-b2"
    s = src(name)
    values = [beta(s, BetaParams(3.0, 2.0)) for _ in range(scale["ks_n"])]

    def beta32_cdf(z):
        # chance that at least 3 of 4 uniforms fall below z
        return 4.0 * z ** 3 * (1.0 - z) + z ** 4

    ks = statcheck.ks_gof(values, beta32_cdf, alpha)
    records.append(CheckRecord(name, ks.statistic, ks.p_value, ks.passed))

    # -- sampler laws ----------------------------------------------------------

    for algo_name, sampler in default_samplers().items():
        name = f"subset-uniformity-{algo_name}"
        report = statcheck.enumerate_subset_distribution(
            sampler, 6, 3, scale["subset_reps"], src(name), alpha
        )
        records.append(_gof_record(name, report))

    fp_probs = [statcheck.first_position_pmf(5, 2, x) for x in range(1, 5)]

    name = "first-position-inorder-5-2"
    s = src(name)
    counts = [0] * 4
    for _ in range(scale["fp_reps"]):
        counts[inorder_sample(s, 5, 2).indices[0] - 1] += 1
    records.append(_gof_record(name, statcheck.chi_square_gof(counts, fp_probs, alpha)))

    name = "first-position-sparse-min-5-2"
    s = src(name)
    counts = [0] * 4
    for _ in range(scale["fp_reps"]):
        counts[min(sparse_fisher_yates(s, 5, 2).indices) - 1] += 1
    records.append(_gof_record(name, statcheck.chi_square_gof(counts, fp_probs, alpha)))

    # -- cost laws -------------------------------------------------------------

    name = "membership-mean-draws-100-50"
    s = src(name)
    reps = scale["member_reps"]
    draws = [
        membership_checking_sample(s, 100, 50).draw_stats.uniform_int
        for _ in range(reps)
    ]
    mean = math.fsum(draws) / reps
    expect = statcheck.expected_membership_draws(100, 50)
    var = math.fsum((d - mean) ** 2 for d in draws) / (reps - 1)
    z = (mean - expect) / math.sqrt(var / reps)
    p = statcheck.normal_sf_two_sided(z)
    records.append(CheckRecord(name, z, p, p >= alpha))

    name = "hash-occupancy-n1000"
    s = src(name)
    n = 1000
    checkpoints = (100, 250, 500, 750, 900)
    runs = scale["occupancy_runs"]
    sums = {c: 0 for c in checkpoints}
    sumsq_mid = 0.0
    for _ in range(runs):
        it = SparseFisherYatesIterator(n, s)
        for c in checkpoints:
            while it.i < c:
                next(it)
            size = it.state_size()
            sums[c] += size
            if c == 500:
                sumsq_mid += size * size
    means = {c: sums[c] / runs for c in checkpoints}
    expect_mid = statcheck.expected_hash_occupancy(n, 500)
    var_mid = (sumsq_mid - runs * means[500] ** 2) / (runs - 1)
    z = (means[500] - expect_mid) / math.sqrt(var_mid / runs)
    dominated = all(means[c] <= means[500] for c in checkpoints)
    p = statcheck.normal_sf_two_sided(z) if dominated else 0.0
    records.append(CheckRecord(name, z, p, p >= alpha and dominated))

    name = "draw-budget-exact"
    violations = 0
    s = src(name)
    for case in range(scale["structural_cases"]):
        n = 1 + s.next_uniform_int(60)
        k = s.next_uniform_int(n)
        run = RandomSource(_derive(seed, f"{name}-{case}"))
        if fisher_yates_sample(run, n, k).draw_stats.uniform_int != k:
            violations += 1
        if sparse_fisher_yates(run, n, k).draw_stats.uniform_int != k:
            violations += 1
        arr = list(range(1, n + 1))
        if preinit_fy_sample_with_undo(run, arr, k)[0].draw_stats.uniform_int != k:
            violations += 1
        if inorder_sample(run, n, k).draw_stats.beta_binomial != k:
            violations += 1
        if selection_sample(run, n, k).draw_stats.bernoulli > n:
            violations += 1
    records.append(_structural(name, violations))

    name = "sorted-order-outputs"
    violations = 0
    s = src(name)
    for _ in range(scale["structural_cases"]):
        n = 1 + s.next_uniform_int(40)
        k = s.next_uniform_int(n)
        for res in (selection_sample(s, n, k), inorder_sample(s, n, k)):
            if any(a >= b for a, b in zip(res.indices, res.indices[1:])):
                violations += 1
            if res.indices and not (1 <= res.indices[0] and res.indices[-1] <= n):
                violations += 1
    records.append(_structural(name, violations))

    name = "sparse-classical-bitexact"
    violations = 0
    for case in range(scale["structural_cases"]):
        run_seed = _derive(seed, f"{name}-{case}")
        picker = RandomSource(run_seed)
        n = 1 + picker.next_uniform_int(80)
        k = picker.next_uniform_int(n)
        a = fisher_yates_sample(RandomSource(run_seed), n, k)
        b = sparse_fisher_yates(RandomSource(run_seed), n, k)
        if a.indices != b.indices:
            violations += 1
    records.append(_structural(name, violations))

    name = "iterator-prefix-consistency"
    violations = 0
    for case in range(scale["structural_cases"]):
        run_seed = _derive(seed, f"{name}-{case}")
        picker = RandomSource(run_seed)
        n = 1 + picker.next_uniform_int(80)
        k = picker.next_uniform_int(n)
        it = SparseFisherYatesIterator(n, RandomSource(run_seed))
        prefix = [next(it) for _ in range(k)]
        if prefix != sparse_fisher_yates(RandomSource(run_seed), n, k).indices:
            violations += 1
    records.append(_structural(name, violations))

    name = "preinit-restoration"
    violations = 0
    s = src(name)
    for _ in range(scale["structural_cases"]):
        n = 1 + s.next_uniform_int(100)
        k = s.next_uniform_int(n)
        arr = [s.next_uniform_int(10 ** 6) for _ in range(n)]
        snapshot = list(arr)
        preinit_fy_sample_with_undo(s, arr, k)
        if arr != snapshot:
            violations += 1
    records.append(_structural(name, violations))

    # -- distributed -----------------------------------------------------------

    name = "split-counts-2-2-k2"
    s = src(name)
    counts = [0] * 3
    for _ in range(scale["split_reps"]):
        counts[distributed.split_sample_counts(s, (2, 2), 2)[0]] += 1
    probs = [statcheck.hypergeom_pmf(HypergeomParams(2, 4, 2), c) for c in range(3)]
    records.append(_gof_record(name, statcheck.chi_square_gof(counts, probs, alpha)))

    name = "merge-item-inclusion-4-4"
    s = src(name)
    inclusion = [0] * 8
    winner_violations = 0
    for _ in range(scale["merge_reps"]):
        sample_a = sparse_fisher_yates(s, 4, 2).indices
        sample_b = [i + 4 for i in sparse_fisher_yates(s, 4, 2).indices]
        merged, state = distributed.merge_all_with_state(
            s,
            (distributed.MergeInput(sample_a, 4), distributed.MergeInput(sample_b, 4)),
        )
        for item in merged:
            inclusion[item - 1] += 1
        widx = state.thresholds.index(min(state.thresholds))
        if state.kappas[widx] != 2:
            winner_violations += 1
    records.append(
        _gof_record(name, statcheck.chi_square_gof(inclusion, [1 / 8] * 8, alpha))
    )
    records.append(_structural("merge-winner-keeps-all", winner_violations))

    # -- permutations ----------------------------------------------------------

    name = "permutation-uniformity-n4"
    s = src(name)
    perm_index = {p: i for i, p in enumerate(itertools.permutations(range(1, 5)))}
    observed = [0] * 24
    for _ in range(scale["perm_reps"]):
        observed[perm_index[tuple(permutation_from_transpositions(s, 4))]] += 1
    records.append(
        _gof_record(name, statcheck.chi_square_gof(observed, [1 / 24] * 24, alpha))
    )

    if scale["full_extras"]:
        records.extend(_full_extras(seed, alpha))

    return records


def _full_extras(seed: int, alpha: float) -> list[CheckRecord]:
    records: list[CheckRecord] = []

    name = "uniform-int-sweep-m1-64"
    worst = 1.0
    ok = True
    for m in range(2, 65):
        s = RandomSource(_derive(seed, f"{name}-{m}"))
        counts = [0] * m
        for _ in range(10_000 * m):
            counts[s.next_uniform_int(m) - 1] += 1
        report = statcheck.chi_square_gof(counts, [1.0 / m] * m, alpha)
        worst = min(worst, report.p_value)
        ok = ok and report.passed
    records.append(CheckRecord(name, worst, worst, ok))

    name = "split-merge-duality-4-4-k3"
    s = RandomSource(_derive(seed, name))
    subsets = {fs: i for i, fs in enumerate(
        frozenset(c) for c in itertools.combinations(range(1, 9), 3)
    )}
    counts = [0] * len(subsets)
    for _ in range(20_000):
        c0, c1 = distributed.split_sample_counts(s, (4, 4), 3)
        picked = []
        if c0:
            picked.extend(sparse_fisher_yates(s, 4, c0).indices)
        if c1:
            picked.extend(i + 4 for i in sparse_fisher_yates(s, 4, c1).indices)
        counts[subsets[frozenset(picked)]] += 1
    probs = [1.0 / len(subsets)] * len(subsets)
    records.append(_gof_record(name, statcheck.chi_square_gof(counts, probs, alpha)))

    name = "chi-square-calibration-ncat20"
    s = RandomSource(_derive(seed, name))
    reps = 100_000
    cal_alpha = 0.01  # fixed internal level; measures the p-value machinery
    n_cat = 20
    per_rep = 100
    probs = [1.0 / n_cat] * n_cat
    rejected = 0
    for _ in range(reps):
        counts = [0] * n_cat
        for _ in range(per_rep):
            counts[s.next_uniform_int(n_cat) - 1] += 1
        if statcheck.chi_square_gof(counts, probs, cal_alpha).p_value < cal_alpha:
            rejected += 1
    expect = reps * cal_alpha
    z = (rejected - expect) / math.sqrt(reps * cal_alpha * (1.0 - cal_alpha))
    p = statcheck.normal_sf_two_sided(z)
    records.append(CheckRecord(name, z, p, p >= alpha))

    return records


def format_report(records: list[CheckRecord]) -> list[str]:
    lines = []
    for r in records:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.name:<36s} stat={r.statistic:>12.6g}  p={r.p_value:<12.6g} {status}"
        )
    return lines
