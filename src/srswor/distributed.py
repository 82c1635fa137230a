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
probability q = min(1, T'/T_c) given its shard's threshold T_c.  So shard c
keeps all of its k_c items where T_c is the minimum, and is otherwise
thinned by one iid Bernoulli(q) mask: kappa_c, the mask's count, is
Binomial(k_c, q), and given kappa_c the kept items are a uniform subset,
in input order.  The survivors are a simple random sample of the union
with a random (but valid) size; downsample trims them to an exact target
size when one is required.

downsample keeps m of n items by one of two exact routes, chosen by
expected word cost with c = min(m, n - m).  The draws route takes the c
draws of a partial shuffle and picks by Floyd's set rule; the marks route
marks each position by an iid byte below a level L near 256m/n,
ceil(n / 8) words in all, and flips uniformly chosen marks until exactly m
remain, about sqrt(2 n p (1 - p) / pi) flips with p = L / 256.  The draws
route is taken when c is below the marks route's words plus flips.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .distributions import bernoulli, beta, hypergeometric
from .rng import RandomSource, Record


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


def split_sample_counts(source: RandomSource, block_sizes: Sequence[int],
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
        c = hypergeometric(source, size, n_rem, k_rem)  # route: split chain
        counts.append(c)
        n_rem -= size
        k_rem -= c
    counts.append(k_rem)
    return counts


def merge_all_with_state(source: RandomSource,
                         inputs: Sequence[MergeInput]) -> tuple[list, MergeState]:
    """Merge any number of shard samples; see the module docstring for the law.

    All thresholds are drawn first, then every shard is thinned against the
    common minimum, so the construction is symmetric in its inputs.  Each
    shard costs one beta.  A shard with q = T'/T_c below 1 also costs the
    ceil(k_c / 8) words of its byte mask and about k_c / 256 Bernoullis
    (see _thin); the others keep all their items with no draw.  The kept
    items follow input order, shard by shard.
    """
    if not inputs:
        raise ValueError("merge requires at least one input")
    # a shape past the float range raises here, before the first beta
    float(max(inp.population_size - len(inp.sample) for inp in inputs))
    thresholds = []
    for inp in inputs:
        k_c = len(inp.sample)
        thresholds.append(beta(source, k_c + 1, inp.population_size - k_c))  # route: merge
    t_min = min(thresholds)
    merged: list = []
    kappas = []
    for inp, t_c in zip(inputs, thresholds):
        q = t_min / t_c
        kept = _thin(source, inp.sample, q) if q < 1.0 and inp.sample else inp.sample
        kappas.append(len(kept))
        merged.extend(kept)
    return merged, MergeState(tuple(thresholds), tuple(kappas))


def _thin(source: RandomSource, sample: Sequence, q: float) -> list:
    """The items of sample, each kept independently with probability q < 1,
    in input order.

    Byte b of uniform_bytes(len(sample)) decides its item against L =
    floor(256 q): kept if b < L, dropped if b > L, and at b == L kept by one
    bernoulli(256 q - L), which is drawn only when that is not 0.  256 q is
    exact in floats, so P(kept) = L / 256 + (256 q - L) / 256 = q.
    """
    scaled = 256.0 * q  # route: thinning byte mask
    level = int(scaled)
    data = source.uniform_bytes(len(sample))
    mask = bytearray(data.translate(b"\1" * level + bytes(256 - level)))
    tie = scaled - level
    if tie:
        i = data.find(level)  # route: thinning tie byte
        while i >= 0:
            mask[i] = bernoulli(source, tie)
            i = data.find(level, i + 1)
    return list(itertools.compress(sample, mask))


def downsample(source: RandomSource, sample: Sequence, target: int) -> list:
    """Uniformly keep exactly target of the n items of sample, in input order.

    Target 0 or n draws nothing.  Otherwise, with c = min(target, n - target)
    the positions on the smaller side, one of two exact routes, chosen by
    expected word cost, marks the kept positions in a byte mask.  With L,
    256 * target / n rounded half up, and p = L / 256, the marks route
    costs ceil(n / 8) words plus about sqrt(2 n p (1 - p) / pi) flips, the
    mean of |s - target| below:

    - c below that, draws: the c draws of a partial shuffle of n
      (descending_ints), c uniform ints.  Floyd's set rule on the reversed
      draws (Bentley and Floyd, CACM 1987) picks the same c positions as
      the shuffle: the draw r against bound j picks r, or j if r is
      already picked.
    - Otherwise, marks: n iid uniform bytes (uniform_bytes, ceil(n / 8)
      words); a byte below L marks its position.  iid marks are
      exchangeable, so given their count s they are a uniform s-subset.
      Then |s - target| flags of the surplus value are flipped one at a
      time, each chosen uniformly by rejection on uniform ints in [1, n],
      and a uniform flip keeps the subset uniform.  Since c > n / 8, L
      lies in [32, 224], and a flip takes fewer than 8 ints on average.

    The kept items are read off the mask, with no sort.
    """
    n = len(sample)
    if not 0 <= target <= n:
        raise ValueError(f"target {target} outside [0, {n}]")
    if target == 0 or target == n:
        return list(sample) if target else []
    drop = 2 * target > n
    c = n - target if drop else target
    level = (512 * target + n) // (2 * n)
    flips = math.sqrt(2 * n * level * (256 - level) / math.pi) / 256
    if c < -(-n // 8) + flips:
        # mask[p - 1] == drop until position p is picked
        mask = bytearray([drop]) * n  # route: downsample draws
        draws = source.descending_ints(n, c)
        for j, r in zip(range(n - c + 1, n + 1), reversed(draws)):
            mask[r - 1 if mask[r - 1] == drop else j - 1] = not drop
    else:
        mask = bytearray(source.uniform_bytes(n).translate(b"\1" * level + bytes(256 - level)))
        surplus = mask.count(1) - target  # route: downsample marks
        flag = surplus > 0
        draw = source.next_uniform_int
        for _ in range(abs(surplus)):
            r = draw(n) - 1
            while mask[r] != flag:
                r = draw(n) - 1
            mask[r] = not flag
    return list(itertools.compress(sample, mask))
