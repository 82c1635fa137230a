"""Acceptance suite: the ten distributional and structural guarantees.

Each test covers one numbered criterion, prints a single PASS/FAIL line with
the measured quantity, and asserts it.  Scales and tolerances are fixed; all
randomness is seeded, so the whole module is deterministic.
"""

import itertools
import math
import time
from collections import Counter

from srswor.cli import run_bench
from srswor.distributed import MergeInput, merge_all_with_state, split_sample_counts
from srswor.distributions import HypergeomParams, hypergeometric
from srswor.rng import RandomSource
from srswor.samplers import (
    SparseFisherYatesIterator,
    default_samplers,
    fisher_yates_sample,
    inorder_sample,
    membership_checking_sample,
    preinit_fy_sample_with_undo,
    sparse_fisher_yates,
)
from srswor.statcheck import (
    chi_square_gof,
    chi_square_two_sample,
    enumerate_subset_distribution,
    expected_membership_draws,
    first_position_pmf,
    hypergeom_pmf,
)

ALPHA = 0.001


def report(num, name, ok, detail):
    print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_01_bit_exact_equivalence():
    # sparse FY must emit the identical selection sequence to classical FY
    # for 1000 seeds at each scale; budget 10 s
    t0 = time.perf_counter()
    mismatches = 0
    for n, k in [(10, 3), (100, 37), (1000, 1000)]:
        for seed in range(1000):
            a = fisher_yates_sample(RandomSource(seed), n, k)
            b = sparse_fisher_yates(RandomSource(seed), n, k)
            if a.indices != b.indices:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    report(1, "bit-exact sparse vs classical", ok,
           f"mismatches={mismatches}, elapsed={elapsed:.1f}s of 10s")


def test_criterion_02_uniform_subsets_all_algorithms():
    # every sampler draws each of the C(6,3)=20 subsets equally often;
    # 2e5 reps per algorithm, chi-square at alpha=0.001; budget 60 s total
    t0 = time.perf_counter()
    failures = []
    for i, (name, sampler) in enumerate(default_samplers().items()):
        src = RandomSource(90210 + i)
        rep = enumerate_subset_distribution(sampler, 6, 3, 200000, src, ALPHA)
        if not rep.passed:
            failures.append(f"{name} p={rep.p_value:.2e}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    report(2, "uniform subsets, 7 algorithms", ok,
           f"failures={failures or 'none'}, elapsed={elapsed:.1f}s of 60s")


def test_criterion_03_first_position_law():
    # P(X1 = x) at (n=5, k=2) is (0.4, 0.3, 0.2, 0.1); 1e5 reps
    src = RandomSource(333)
    reps = 100000
    counts = [0] * 4
    for _ in range(reps):
        counts[inorder_sample(src, 5, 2).indices[0] - 1] += 1
    probs = [first_position_pmf(5, 2, x) for x in range(1, 5)]
    rep = chi_square_gof(counts, probs, ALPHA)
    report(3, "in-order first-position law", rep.passed,
           f"chi2={rep.statistic:.2f}, p={rep.p_value:.4f}")


def test_criterion_04_draw_counts():
    # exact: one logical draw per selection for the four k-draw samplers;
    # statistical: membership mean draws at (100,50) within 1% of 68.817
    exact_ok = True
    for n, k in [(10, 3), (100, 37), (500, 250), (1000, 1000)]:
        exact_ok &= fisher_yates_sample(RandomSource(4), n, k).draw_stats.uniform_int == k
        exact_ok &= sparse_fisher_yates(RandomSource(4), n, k).draw_stats.uniform_int == k
        res, _ = preinit_fy_sample_with_undo(RandomSource(4), list(range(n)), k)
        exact_ok &= res.draw_stats.uniform_int == k
        exact_ok &= inorder_sample(RandomSource(4), n, k).draw_stats.beta_binomial == k

    src = RandomSource(444)
    reps = 100000
    total = 0
    for _ in range(reps):
        total += membership_checking_sample(src, 100, 50).draw_stats.uniform_int
    mean = total / reps
    expected = expected_membership_draws(100, 50)
    rel_err = abs(mean - expected) / expected
    ok = exact_ok and rel_err < 0.01
    report(4, "draw budgets", ok,
           f"exact={exact_ok}, membership mean={mean:.3f} vs {expected:.3f} "
           f"({100 * rel_err:.2f}% of 1%)")


def test_criterion_05_hash_occupancy():
    # sparse iterator at n=1000 over 1e4 runs: mean entries at i=500 within
    # 3 standard errors of 250, and that checkpoint dominates the others
    n, runs = 1000, 10000
    checkpoints = [100, 250, 500, 750, 900]
    sums = dict.fromkeys(checkpoints, 0)
    sq_at_500 = 0
    for run in range(runs):
        it = SparseFisherYatesIterator(n, RandomSource(5000 + run))
        step = 0
        for cp in checkpoints:
            while step < cp:
                next(it)
                step += 1
            size = it.state_size()
            sums[cp] += size
            if cp == 500:
                sq_at_500 += size * size
    means = {cp: sums[cp] / runs for cp in checkpoints}
    var = sq_at_500 / runs - means[500] ** 2
    sigma = math.sqrt(var / runs)
    dev = abs(means[500] - 250.0)
    dominant = all(means[500] >= means[cp] for cp in checkpoints)
    ok = dev <= 3 * sigma and dominant
    report(5, "hash occupancy peak n/4", ok,
           f"mean@500={means[500]:.3f} (|dev|={dev:.3f} <= 3sigma={3 * sigma:.3f}), "
           f"dominates={dominant}")


def test_criterion_06_restoration():
    # 1000 random arrays up to n=1e4 are bitwise unchanged after the
    # sample-with-undo pass
    src = RandomSource(666)
    damaged = 0
    for _ in range(1000):
        n = src.next_uniform_int(10000)
        k = src.next_uniform_int(n)
        x = [src.next_uniform_int(2 ** 31) for _ in range(n)]
        original = list(x)
        preinit_fy_sample_with_undo(src, x, k)
        if x != original:
            damaged += 1
    report(6, "undo restoration", damaged == 0, f"damaged={damaged}/1000")


def test_criterion_07_hypergeometric_law():
    # empirical law vs pmf for >= 20 triples with n <= 12, 1e5 reps each,
    # chi-square at alpha=0.001; (2,4,2) = (1/6, 4/6, 1/6) mandatory
    picker = RandomSource(777)
    triples = [(2, 4, 2)]
    while len(triples) < 20:
        n = picker.next_uniform_int(11) + 1  # 2..12
        v = picker.next_uniform_int(n + 1) - 1  # 0..n
        k = picker.next_uniform_int(n)
        lo, hi = max(0, k - (n - v)), min(v, k)
        if hi - lo >= 1 and (v, n, k) not in triples:
            triples.append((v, n, k))
    reps = 100000
    failures = []
    for v, n, k in triples:
        params = HypergeomParams(v, n, k)
        lo, hi = max(0, k - (n - v)), min(v, k)
        src = RandomSource(7000 + v * 169 + n * 13 + k)
        counts = Counter(hypergeometric(src, params) for _ in range(reps))
        probs = [hypergeom_pmf(params, c) for c in range(lo, hi + 1)]
        rep = chi_square_gof([counts[c] for c in range(lo, hi + 1)], probs, ALPHA)
        if not rep.passed:
            failures.append(f"{(v, n, k)} p={rep.p_value:.2e}")
    report(7, "hypergeometric-by-search law", not failures,
           f"triples={len(triples)}, failures={failures or 'none'}")


def test_criterion_08_split_merge_duality():
    # splitting k over blocks (4,4) then sampling each block reproduces
    # the uniform law over all C(8,k) subsets, k = 1..4
    failures = []
    for k in range(1, 5):
        subsets = list(itertools.combinations(range(1, 9), k))
        index = {frozenset(s): i for i, s in enumerate(subsets)}
        reps = max(100 * len(subsets), 10000)
        src = RandomSource(800 + k)
        counts = [0] * len(subsets)
        for _ in range(reps):
            c1, c2 = split_sample_counts(src, [4, 4], k)
            picks = sparse_fisher_yates(src, 4, c1).indices if c1 else []
            picks += [x + 4 for x in sparse_fisher_yates(src, 4, c2).indices] if c2 else []
            counts[index[frozenset(picks)]] += 1
        rep = chi_square_gof(counts, [1 / len(subsets)] * len(subsets), ALPHA)
        if not rep.passed:
            failures.append(f"k={k} p={rep.p_value:.2e}")
    report(8, "split/merge duality", not failures,
           f"k=1..4 over C(8,k) subsets, failures={failures or 'none'}")


def test_criterion_09_merge_correctness():
    # two shards of 4 with k=2 each, 2e5 runs: equal per-item inclusion,
    # agreement with the explicit-uniform oracle, winner keeps all samples
    reps = 200000

    src = RandomSource(999)
    inclusion = Counter()
    impl_sets = Counter()
    winner_violations = 0
    for _ in range(reps):
        sa = fisher_yates_sample(src, 4, 2).indices
        sb = [x + 4 for x in fisher_yates_sample(src, 4, 2).indices]
        merged, state = merge_all_with_state(
            src, (MergeInput(sa, 4), MergeInput(sb, 4)))
        win = state.thresholds.index(min(state.thresholds))
        if state.kappas[win] != 2:
            winner_violations += 1
        impl_sets[frozenset(merged)] += 1
        for item in merged:
            inclusion[item] += 1

    counts = [inclusion[i] for i in range(1, 9)]
    inc_rep = chi_square_gof(counts, [1 / 8] * 8, ALPHA)

    # oracle: assign one explicit uniform per item; each shard's sample is
    # its 2 smallest, its threshold the 3rd smallest; survivors are the
    # sampled items below the smaller threshold
    osrc = RandomSource(998)
    oracle_sets = Counter()
    for _ in range(reps):
        us = [osrc.next_uniform_real() for _ in range(8)]
        merged = []
        thresholds = []
        for base in (0, 4):
            block = sorted(range(base + 1, base + 5), key=lambda i: us[i - 1])
            thresholds.append(us[block[2] - 1])
        t_prime = min(thresholds)
        for base in (0, 4):
            block = sorted(range(base + 1, base + 5), key=lambda i: us[i - 1])
            merged.extend(i for i in block[:2] if us[i - 1] < t_prime)
        oracle_sets[frozenset(merged)] += 1

    keys = sorted(set(impl_sets) | set(oracle_sets), key=lambda s: (len(s), sorted(s)))
    agree_rep = chi_square_two_sample(
        [impl_sets.get(s, 0) for s in keys],
        [oracle_sets.get(s, 0) for s in keys],
        ALPHA,
    )
    ok = inc_rep.passed and agree_rep.passed and winner_violations == 0
    report(9, "merge correctness", ok,
           f"inclusion p={inc_rep.p_value:.4f}, oracle p={agree_rep.p_value:.4f}, "
           f"winner violations={winner_violations}/{reps}")


def test_criterion_10_scaling_trends():
    # sparse FY wall time at fixed k=1000 varies < 3x across three decades
    # of n; classical FY at fixed k=10 grows >= 5x from n=1e4 to 1e5;
    # budget 60 s
    t0 = time.perf_counter()
    reps = 7
    run_bench([(10000, 1000)], ["sparse"], 2, 7)  # warm up allocators

    sparse_recs = run_bench([(10000, 1000), (100000, 1000), (1000000, 1000)],
                            ["sparse"], reps, 10)
    sparse_by_n = {}
    for rec in sparse_recs:
        sparse_by_n.setdefault(rec.n, []).append(rec.wall_time_ns)
    sparse_medians = {n: sorted(v)[len(v) // 2] for n, v in sparse_by_n.items()}
    sparse_ratio = max(sparse_medians.values()) / min(sparse_medians.values())

    fy_recs = run_bench([(10000, 10), (100000, 10)], ["fy"], reps, 11)
    fy_by_n = {}
    for rec in fy_recs:
        fy_by_n.setdefault(rec.n, []).append(rec.wall_time_ns)
    fy_medians = {n: sorted(v)[len(v) // 2] for n, v in fy_by_n.items()}
    fy_growth = fy_medians[100000] / fy_medians[10000]

    elapsed = time.perf_counter() - t0
    ok = sparse_ratio < 3.0 and fy_growth >= 5.0 and elapsed < 60.0
    report(10, "scaling trends", ok,
           f"sparse max/min={sparse_ratio:.2f} (<3), classical 1e4->1e5 "
           f"x{fy_growth:.1f} (>=5), elapsed={elapsed:.1f}s of 60s")
