#!/usr/bin/env python3
"""Wall-time scaling of the samplers across population sizes.

Times the O(k) hash-map sampler at fixed k across three decades of n, and
the classical array sampler at small fixed k where its O(n) initialization
dominates, then prints the ratio table the two complexity claims predict:
flat for the former, linear growth for the latter.
"""

import argparse

from srswor.cli import run_bench
from srswor.suite import median_wall_ns_by_n


def timing_table(title, algo, k, reps, seed):
    """Print median wall time per n over three decades; return the medians."""
    grid = [(10_000, k), (100_000, k), (1_000_000, k)]
    medians = median_wall_ns_by_n(run_bench(grid, [algo], reps, seed))
    print(title)
    print(f"  {'n':>10} {'median ns':>12} {'vs n=1e4':>9}")
    for n in sorted(medians):
        print(f"  {n:>10} {medians[n]:>12} {medians[n] / medians[10_000]:>8.2f}x")
    return medians


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=7)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sparse-k", type=int, default=1000)
    parser.add_argument("--classical-k", type=int, default=10)
    args = parser.parse_args()

    run_bench([(10000, args.sparse_k)], ["sparse"], 2, args.seed)  # warm up

    sparse = timing_table(
        f"sparse hash-map sampler, k={args.sparse_k} (expected: flat in n)",
        "sparse", args.sparse_k, args.reps, args.seed)
    spread = max(sparse.values()) / min(sparse.values())
    print(f"  max/min spread: {spread:.2f}x\n")

    timing_table(
        f"classical array sampler, k={args.classical_k} (expected: linear in n)",
        "fy", args.classical_k, args.reps, args.seed + 1)


if __name__ == "__main__":
    main()
