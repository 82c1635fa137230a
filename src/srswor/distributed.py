"""Splitting and merging of without-replacement samples across blocks.

A k-sample of a partitioned population induces a multivariate
hypergeometric split of k over the blocks; split_sample_counts draws that
split so each block can be sampled independently.  merge_all_with_state
goes the other way: given independent samples of disjoint populations it
produces a valid sample of the union without touching the unsampled items.

The merge works in the implicit-uniforms picture: a k-sample of n items can
be read as the k smallest of n iid uniforms, and the (k+1)-th order
statistic, distributed Beta(k+1, n-k), is the threshold below which the
sample is a complete census of the union population.  Taking the smallest
threshold T' across shards, every sampled item survives independently with
probability min(1, T'/T_c) given its shard's threshold T_c: shard c keeps a
Binomial number kappa_c of its k_c items, all of them where T_c is the
minimum, and downsample picks which, in input order.  The survivors are a
simple random sample of the union with a random (but valid) size;
downsample also trims them to an exact target size when one is required.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .distributions import beta, binomial, hypergeometric
from .rng import Record, UniformSource
from .samplers import fisher_yates_sample


class MergeInput(Record, frozen=True):
    """One shard: the drawn sample plus the size of the population it came from."""

    __slots__ = _fields = ("sample", "population_size")

    def __init__(self, sample: Sequence, population_size: int) -> None:
        sample = tuple(sample)
        if population_size < 1 or len(sample) > population_size:
            raise ValueError(f"invalid sizes k={len(sample)}, n={population_size}")
        if len(set(sample)) != len(sample):
            raise ValueError("duplicate identifiers")
        self._init(sample, population_size)


class MergeState(Record, frozen=True):
    """Per-shard thresholds and surviving counts from one merge."""

    __slots__ = _fields = ("thresholds", "kappas")

    def __init__(self, thresholds: tuple, kappas: tuple) -> None:
        self._init(thresholds, kappas)


def split_sample_counts(source: UniformSource, block_sizes: Sequence[int],
                        k: int) -> list[int]:
    """Multivariate hypergeometric split of k over blocks of the given sizes.

    Drawn as a chain of single hypergeometric draws: how many of the k land
    in the first block, then how many of the rest land in the second, and so
    on.  The counts always sum to k and never exceed their block.
    """
    sizes = list(block_sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError(f"block sizes must be positive, got {sizes}")
    total = sum(sizes)
    if not 0 <= k <= total:
        raise ValueError(f"sample size {k} outside [0, {total}]")
    counts = []
    n_rem = total
    k_rem = k
    for size in sizes[:-1]:
        c = hypergeometric(source, size, n_rem, k_rem)
        counts.append(c)
        n_rem -= size
        k_rem -= c
    counts.append(k_rem)
    return counts


def merge_all_with_state(source: UniformSource,
                         inputs: Sequence[MergeInput]) -> tuple[list, MergeState]:
    """Merge any number of shard samples; see the module docstring for the law.

    All thresholds are drawn first, then every shard is thinned against the
    common minimum, so the construction is symmetric in its inputs.  Shard c
    costs a beta, a binomial and min(kappa_c, k_c - kappa_c) uniform ints;
    its kept items follow input order, shard by shard.
    """
    if not inputs:
        raise ValueError("merge requires at least one input")
    thresholds = []
    for inp in inputs:
        k_c = len(inp.sample)
        thresholds.append(beta(source, k_c + 1, inp.population_size - k_c))
    t_min = min(thresholds)
    merged: list = []
    kappas = []
    for inp, t_c in zip(inputs, thresholds):
        k_c = len(inp.sample)
        kappa = binomial(source, k_c, min(1.0, t_min / t_c)) if k_c else 0
        kappas.append(kappa)
        merged.extend(downsample(source, inp.sample, kappa))
    return merged, MergeState(tuple(thresholds), tuple(kappas))


def downsample(source: UniformSource, sample: Sequence, target: int) -> list:
    """Uniformly keep exactly target of the n items of sample, in input order.

    fisher_yates_sample draws the positions to keep if 2 * target <= n, else
    the uniform subset to drop: min(target, n - target) uniform ints, none
    at target 0 or n.  Its O(n) array costs no more than the input, and it
    makes the same draws and picks as sparse_fisher_yates.  The kept items
    are read off a byte mask over the positions, with no sort.
    """
    n = len(sample)
    if not 0 <= target <= n:
        raise ValueError(f"target {target} outside [0, {n}]")
    if target == 0 or target == n:
        return list(sample) if target else []
    drop = 2 * target > n
    mask = bytearray([drop]) * n
    for p in fisher_yates_sample(source, n, n - target if drop else target).indices:
        mask[p - 1] = not drop
    return list(itertools.compress(sample, mask))
