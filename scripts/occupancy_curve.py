#!/usr/bin/env python3
"""Measured hash-map occupancy of the sparse sampler against i*(n-i)/n.

Steps the iterator through a full pass over n items for many seeds and
compares the mean number of live hash entries at each checkpoint with the
closed-form expectation, which peaks at n/4 when half the items are drawn.
"""

import argparse

from srswor.rng import RandomSource
from srswor.statcheck import expected_hash_occupancy
from srswor.suite import occupancy_sums


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--runs", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--points", type=int, default=10,
                        help="number of evenly spaced checkpoints")
    args = parser.parse_args()

    checkpoints = sorted({args.n * j // args.points for j in range(1, args.points)}
                         | {args.n // 2})
    sources = (RandomSource(args.seed + run) for run in range(args.runs))
    sums, _ = occupancy_sums(args.n, checkpoints, sources)

    print(f"n={args.n}, runs={args.runs}")
    print(f"  {'i':>8} {'mean |H|':>10} {'i(n-i)/n':>10} {'diff':>8}")
    for cp in checkpoints:
        mean = sums[cp] / args.runs
        expect = expected_hash_occupancy(args.n, cp)
        print(f"  {cp:>8} {mean:>10.2f} {expect:>10.2f} {mean - expect:>+8.2f}")
    peak = max(checkpoints, key=lambda cp: sums[cp])
    print(f"measured peak at i={peak} "
          f"(theory: i=n/2={args.n // 2}, value n/4={args.n / 4:.1f})")


if __name__ == "__main__":
    main()
