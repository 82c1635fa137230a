"""Acceptance suite: the ten distributional and structural guarantees.

Each test covers one numbered criterion, prints a single PASS/FAIL line with
the measured quantity, and asserts it.  Scales and tolerances are fixed; all
randomness is seeded, so the whole module is deterministic.  The sampling
loops are the srswor.suite checks that `srswor verify` runs too, called here
at each criterion's own seed, scale, alpha and threshold.
"""

import math
import time
from collections import Counter
from statistics import median_high

from srswor import statcheck, suite
from srswor.cli import run_bench
from srswor.distributions import hypergeometric
from srswor.rng import RandomSource
from srswor.samplers import default_samplers, inorder_sample

ALPHA = 0.001


def report(num, name, ok, detail):
    print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_01_bit_exact_equivalence():
    # sparse FY must emit the identical selection sequence to classical FY
    # for 1000 seeds at each scale; budget 10 s
    t0 = time.perf_counter()
    mismatches = suite.bitexact_mismatches(
        (seed, n, k) for n, k in [(10, 3), (100, 37), (1000, 1000)]
        for seed in range(1000)
    )
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
        _, p = suite.pmf_law(*suite.subset_law(lambda s: sampler(s, 6, 3).indices, 6, 3),
                             src, 200000)
        if not p >= ALPHA:
            failures.append(f"{name} p={p:.2e}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    report(2, "uniform subsets, 7 algorithms", ok,
           f"failures={failures or 'none'}, elapsed={elapsed:.1f}s of 60s")


def test_criterion_03_first_position_law():
    # P(X1 = x) at (n=5, k=2) is (0.4, 0.3, 0.2, 0.1); 1e5 reps
    chi2, p = suite.first_position_law(inorder_sample, RandomSource(333), 5, 2, 100000)
    report(3, "in-order first-position law", p >= ALPHA, f"chi2={chi2:.2f}, p={p:.4f}")


def test_criterion_04_draw_counts():
    # exact: one logical draw per selection for the four k-draw samplers
    # (and at most n for select), each cell on one RandomSource(4);
    # statistical: membership mean draws at (100,50) within 1% of 68.817
    cells = [(RandomSource(4), n, k)
             for n, k in [(10, 3), (100, 37), (500, 250), (1000, 1000)]]
    exact_ok = suite.draw_budget_violations(cells) == 0

    reps = 100000
    mean = sum(suite.membership_draws(RandomSource(444), 100, 50, reps)) / reps
    expected = statcheck.expected_membership_draws(100, 50)
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
    sums, sumsq = suite.occupancy_sums(
        n, checkpoints, (RandomSource(5000 + run) for run in range(runs))
    )
    means = {cp: sums[cp] / runs for cp in checkpoints}
    var = sumsq[500] / runs - means[500] ** 2
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
    cells = suite.random_cells(src, 1000, 1, 10000)
    damaged = suite.restoration_violations(src, cells, 2 ** 31)
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
    failures = []
    for v, n, k in triples:
        _, p = suite.pmf_law(lambda s: hypergeometric(s, v, n, k),
                             statcheck.hypergeom_law(v, n, k),
                             RandomSource(7000 + v * 169 + n * 13 + k), 100000)
        if not p >= ALPHA:
            failures.append(f"{(v, n, k)} p={p:.2e}")
    report(7, "hypergeometric-by-search law", not failures,
           f"triples={len(triples)}, failures={failures or 'none'}")


def test_criterion_08_split_merge_duality():
    # splitting k over blocks (4,4) then sampling each block reproduces
    # the uniform law over all C(8,k) subsets, k = 1..4
    failures = []
    for k in range(1, 5):
        reps = max(100 * math.comb(8, k), 10000)
        _, p = suite.split_merge_law(RandomSource(800 + k), k, reps)
        if not p >= ALPHA:
            failures.append(f"k={k} p={p:.2e}")
    report(8, "split/merge duality", not failures,
           f"k=1..4 over C(8,k) subsets, failures={failures or 'none'}")


def test_criterion_09_merge_correctness():
    # two shards of 4 with k=2 each, 2e5 runs: equal per-item inclusion,
    # agreement with the explicit-uniform oracle, winner keeps all samples
    reps = 200000
    inclusion, impl_sets, winner_violations = suite.merge_two_shards(
        RandomSource(999), reps)
    _, inc_p = statcheck.chi_square_gof(inclusion, [1 / 8] * 8)

    # oracle: assign one explicit uniform per item; each shard's sample is
    # its 2 smallest, its threshold the 3rd smallest; survivors are the
    # sampled items below the smaller threshold
    osrc = RandomSource(998)
    oracle_sets = Counter()
    for _ in range(reps):
        us = [osrc.next_uniform_real() for _ in range(8)]
        blocks = [sorted(range(base + 1, base + 5), key=lambda i: us[i - 1])
                  for base in (0, 4)]
        t_prime = min(us[block[2] - 1] for block in blocks)
        oracle_sets[frozenset(
            i for block in blocks for i in block[:2] if us[i - 1] < t_prime)] += 1

    keys = sorted(set(impl_sets) | set(oracle_sets), key=lambda s: (len(s), sorted(s)))
    _, agree_p = statcheck.chi_square_two_sample(
        [impl_sets.get(s, 0) for s in keys],
        [oracle_sets.get(s, 0) for s in keys],
    )
    ok = inc_p >= ALPHA and agree_p >= ALPHA and winner_violations == 0
    report(9, "merge correctness", ok,
           f"inclusion p={inc_p:.4f}, oracle p={agree_p:.4f}, "
           f"winner violations={winner_violations}/{reps}")


def test_criterion_10_scaling_trends():
    # sparse FY wall time at fixed k=1000 varies < 3x across three decades
    # of n; classical FY at fixed k=10 grows >= 5x from n=1e4 to 1e5;
    # budget 60 s
    t0 = time.perf_counter()
    reps = 7
    run_bench([(10000, 1000)], ["sparse"], 2, 7)  # warm up allocators

    def median_ns(algo, ns, k, seed):
        # the upper median of each cell's wall times, rep r on seed + r; rep r
        # of every cell runs before rep r + 1 of any, so that a drift in the
        # host's speed reaches all cells alike
        walls = [[] for _ in ns]
        for rep in range(reps):
            for cell, n in zip(walls, ns):
                cell += [r.wall_time_ns for r in run_bench([(n, k)], [algo], 1, seed + rep)]
        return [median_high(cell) for cell in walls]

    sparse_medians = median_ns("sparse", (10000, 100000, 1000000), 1000, 10)
    sparse_ratio = max(sparse_medians) / min(sparse_medians)
    fy_small, fy_large = median_ns("fy", (10000, 100000), 10, 11)
    fy_growth = fy_large / fy_small

    elapsed = time.perf_counter() - t0
    ok = sparse_ratio < 3.0 and fy_growth >= 5.0 and elapsed < 60.0
    report(10, "scaling trends", ok,
           f"sparse max/min={sparse_ratio:.2f} (<3), classical 1e4->1e5 "
           f"x{fy_growth:.1f} (>=5), elapsed={elapsed:.1f}s of 60s")
