"""Simple random sampling without replacement, k out of n, by seven routes.

All samplers draw a uniformly random k-subset of {1..n} (or of the caller's
items).  They differ in output order, work, and memory:

  fisher_yates_sample          selection order, k draws, O(n) array
  sparse_fisher_yates          selection order, k draws, O(k) hash map
  SparseFisherYatesIterator    selection order, j draws per take(j), O(k) map
  membership_checking_sample   selection order, ~n(H_n - H_{n-k}) draws, O(k) set
  preinit_fy_sample_with_undo  selection order, k draws, caller array + k swaps
  selection_sample             sorted order, <= n Bernoulli draws, O(1) extra
  inorder_sample               sorted order, k beta-binomial draws, O(1) extra
  reservoir_sample             stream order, ~3k ln(n/k) draws, O(k)

The two Fisher-Yates variants are exchangeable: given the same source they
produce bit-identical output, the sparse one just stores only the array
slots that differ from their initial value.  Both, and preinit, take their
k draws in one source.descending_ints call, the iterator one per take(j),
and both sparse forms share one swap-map loop.  default_samplers() is the
one registry of the seven algorithms by name.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from typing import Any, Iterable

from .distributions import bernoulli, beta_binomial
from .rng import DrawStats, RandomSource, Record


class SampleOrder(enum.Enum):
    SELECTION = "selection"
    SORTED = "sorted"


class SampleResult(Record):
    """A drawn sample plus the draw accounting for the run that produced it.

    indices holds population indices in [1, n] for the index-based samplers;
    for preinit_fy_sample_with_undo and reservoir_sample it holds the
    caller's item values instead, reservoir_sample's in stream order.  order
    is SORTED only when the sequence is guaranteed strictly increasing.
    """

    __slots__ = _fields = ("indices", "order", "n", "draw_stats")

    def __init__(self, indices: list, order: SampleOrder, n: int,
                 draw_stats: DrawStats) -> None:
        self.indices = indices
        self.order = order
        self.n = n
        self.draw_stats = draw_stats


def _check_nk(n: int, k: int) -> None:
    # operator.index refuses a count that is not an integer, a float among them
    if operator.index(n) < 1:
        raise ValueError(f"population size must be >= 1, got {n}")
    if not 0 <= operator.index(k) <= n:
        raise ValueError(f"sample size {k} outside [0, {n}]")


def fisher_yates_sample(source: RandomSource, n: int, k: int) -> SampleResult:
    """Partial Fisher-Yates shuffle over a materialized array.

    Step i swaps a uniformly drawn live position into slot n-i; the item that
    lands there is the i-th selection.  Exactly k uniform-int draws.
    """
    _check_nk(n, k)
    x = list(range(n + 1))  # slot i holds item i; slot 0 is never drawn
    for top, r in zip(range(n, n - k, -1), source.descending_ints(n, k)):  # route: fisher-yates
        x[top], x[r] = x[r], x[top]
    # later swaps never reach a filled slot, so slots n, n-1, ... hold the picks
    return SampleResult(x[n:n - k:-1], SampleOrder.SELECTION, n, DrawStats(k))


def _map_picks(entries: dict, top: int, draws: list[int]) -> list[int]:
    """The picks of draws at bounds top, top - 1, ...; entries maps each
    displaced slot to its item, and is updated in place."""
    get, pop = entries.get, entries.pop
    out = []
    append = out.append
    for last, r in zip(range(top, top - len(draws), -1), draws):  # route: sparse map loop
        append(get(r, r))
        entries[r] = get(last, last)
        pop(last, None)
    return out


class SparseFisherYatesIterator:
    """Streaming Fisher-Yates that never materializes the array.

    A hash map holds only the slots displaced by past swaps, so after i
    selections it stores at most i entries (in expectation i*(n-i)/n).
    take(j) yields the next j selections from one descending_ints call and
    O(j) map operations, the same indices the classical sampler would,
    draw for draw; next() is take(1).  Entries at slots that can never be
    drawn again are discarded as soon as they die.
    """

    def __init__(self, n: int, source: RandomSource):
        _check_nk(n, 0)
        self.n = n
        self.i = 0
        self._source = source
        self._entries: dict = {}

    def __iter__(self) -> "SparseFisherYatesIterator":
        return self

    def __next__(self) -> int:
        if self.i >= self.n:
            raise StopIteration
        return self.take(1)[0]

    def take(self, j: int) -> list[int]:
        """The next j selections; fewer than j left raises ValueError, drawing nothing."""
        top = self.n - self.i  # route: sparse iterator take
        picks = _map_picks(self._entries, top, self._source.descending_ints(top, j))
        self.i += j
        return picks

    def state_size(self) -> int:
        return len(self._entries)


def sparse_fisher_yates(source: RandomSource, n: int, k: int) -> SampleResult:
    """Hash-map Fisher-Yates: k draws, O(k) time and space, any n.

    The same draws and output as SparseFisherYatesIterator(n,
    source).take(k), bit-identical to fisher_yates_sample.  The map's keys
    are earlier draws only, so a draw r picks r itself unless an earlier
    draw was r too: when the k draws are distinct they are the sample, and
    the map loop runs only when one repeats.
    """
    _check_nk(n, k)
    draws = source.descending_ints(n, k)  # route: sparse distinct draws
    if len(set(draws)) < k:
        draws = _map_picks({}, n, draws)  # route: sparse map, when a draw repeats
    return SampleResult(draws, SampleOrder.SELECTION, n, DrawStats(k))


def membership_checking_sample(source: RandomSource, n: int, k: int) -> SampleResult:
    """Draw with replacement and reject repeats.

    Simple but not draw-optimal: the expected number of uniform draws is
    sum over t < k of n/(n-t), about n*ln(n/(n-k)) for large n, versus the
    flat k of the Fisher-Yates family.
    """
    _check_nk(n, k)
    before = source.stats.copy()
    seen = set()
    out = []
    while len(out) < k:
        r = source.next_uniform_int(n)  # route: membership checking
        if r not in seen:
            seen.add(r)
            out.append(r)
    return SampleResult(out, SampleOrder.SELECTION, n, source.stats - before)


def preinit_fy_sample_with_undo(source: RandomSource, x: list,
                                k: int) -> tuple[SampleResult, list[tuple[int, int]]]:
    """Sample k item values from a caller-owned array, then put it back.

    Runs the same swap schedule as fisher_yates_sample over x itself and
    returns (result, swaps): swaps lists the (position, partner)
    transpositions in the order they were applied, 1-based.  Each is an
    involution, so replaying them in reverse before returning leaves x
    element-for-element identical to its input state.  Auxiliary space is
    the k swaps and the k-entry sample, nothing proportional to n.
    """
    n = len(x)
    _check_nk(n, k)
    swaps = list(zip(range(n, n - k, -1), source.descending_ints(n, k)))  # route: preinit
    for a, b in swaps:
        x[a - 1], x[b - 1] = x[b - 1], x[a - 1]
    out = [x[top - 1] for top in range(n, n - k, -1)]
    for a, b in reversed(swaps):
        x[a - 1], x[b - 1] = x[b - 1], x[a - 1]
    return SampleResult(out, SampleOrder.SELECTION, n, DrawStats(k)), swaps


def selection_sample(source: RandomSource, n: int, k: int) -> SampleResult:
    """Left-to-right scan accepting index i with probability k_left/n_left.

    Output is sorted by construction.  Consumes one Bernoulli draw per index
    scanned and stops as soon as the sample is full, hence at most n draws.
    """
    _check_nk(n, k)
    before = source.stats.copy()
    out = []
    k_left = k
    for i in range(1, n + 1):
        if k_left == 0:
            break
        if bernoulli(source, k_left / (n - i + 1)):  # route: selection scan
            out.append(i)
            k_left -= 1
    return SampleResult(out, SampleOrder.SORTED, n, source.stats - before)


def inorder_sample(source: RandomSource, n: int, k: int) -> SampleResult:
    """Generate the sorted sample directly from the gap law.

    The gap in front of the next selected position, counted in unselected
    items, is BetaBinomial(1, k_rem, n_rem - k_rem); positions are the
    running prefix sums of gap + 1.  Exactly k beta-binomial draws and O(1)
    working memory, with no need to know anything but n.
    """
    _check_nk(n, k)
    before = source.stats.copy()
    out = []
    pos = 0
    n_rem = n
    k_rem = k
    for _ in range(k):
        gap = beta_binomial(source, 1, k_rem, n_rem - k_rem)  # route: in-order gaps
        pos += gap + 1
        out.append(pos)
        n_rem -= gap + 1
        k_rem -= 1
    return SampleResult(out, SampleOrder.SORTED, n, source.stats - before)


def reservoir_sample(source: RandomSource, stream: Iterable[Any], k: int) -> SampleResult:
    """Uniform k-subset of a stream of unknown length, one pass, O(k) memory.

    Li's Algorithm L (ACM TOMS 20(4), 1994): give every item an implicit
    uniform key and keep the k smallest.  w, the largest kept key, is drawn
    as the top of k uniforms and shrinks by a factor U^(1/k) at each
    replacement; the number of items skipped before the next key below w is
    Geometric(w), drawn from one uniform real.  Skipped items are read in
    islice chunks, and each kept one replaces a uniformly chosen slot.  Item
    t > k is kept with probability k/t, so a run makes about k ln(n/k)
    replacements, each one uniform int and two uniform reals, plus two reals
    for the first w and for the skip that runs off the end.  The result's
    indices hold the kept items in stream order, and n reports the number of
    items consumed.  A stream shorter than k yields all of its items and
    draws nothing; k = 0 reads nothing and draws nothing.
    """
    if operator.index(k) < 0:
        raise ValueError(f"reservoir capacity must be >= 0, got {k}")
    if k == 0:
        return SampleResult([], SampleOrder.SELECTION, 0, DrawStats())
    before = source.stats.copy()
    items = iter(stream)
    res = list(itertools.islice(items, k))
    n = len(res)
    if n == k:
        positions = list(range(1, k + 1))  # route: reservoir Algorithm L
        real, log, log1p, exp = source.next_uniform_real, math.log, math.log1p, math.exp
        w = exp(log(1.0 - real()) / k)
        while True:
            skip = int(log(1.0 - real()) / log1p(-w)) if w < 1.0 else 0
            read, chunk = _read(items, skip + 1)
            n += read
            if read <= skip:
                break
            slot = source.next_uniform_int(k) - 1  # route: reservoir replacement
            res[slot] = chunk[-1]
            positions[slot] = n
            w *= exp(log(1.0 - real()) / k)
        res = [res[i] for i in sorted(range(k), key=positions.__getitem__)]
    return SampleResult(res, SampleOrder.SELECTION, n, source.stats - before)


# items per islice call in _read: a chunk list is counted, and stays small
_CHUNK = 512


def _read(items, count: int) -> tuple[int, list]:
    """Reads up to count items; returns how many it read and its last chunk."""
    read, chunk = 0, []
    while read < count:
        want = min(count - read, _CHUNK)
        chunk = list(itertools.islice(items, want))
        read += len(chunk)
        if len(chunk) < want:
            break
    return read, chunk


def permutation_from_transpositions(source: RandomSource, n: int) -> list[int]:
    """Uniform permutation of [1, n] as a left action of (1 r1)(2 r2)...(n rn).

    Factors apply right to left, so i runs from n down to 1, drawing r_i
    uniform on [1, i] and swapping slots i and r_i: the loop of
    fisher_yates_sample(source, n, n), whose i-th selection is the final
    array's slot n + 1 - i.  Exactly n draws, including the forced r_1 = 1,
    so scripted traces stay aligned.
    """
    if n < 1:
        raise ValueError(f"permutation length must be >= 1, got {n}")
    return fisher_yates_sample(source, n, n).indices[::-1]


def default_samplers() -> dict:
    """Name -> sampler(source, n, k) for every algorithm, in report order.

    Built on each call from this module's globals, so a wrapper installed
    over one of the samplers after import is the one returned.
    """
    return {
        "fy": fisher_yates_sample,
        "sparse": sparse_fisher_yates,
        "member": membership_checking_sample,
        "preinit": lambda src, n, k: preinit_fy_sample_with_undo(
            src, list(range(1, n + 1)), k
        )[0],
        "select": selection_sample,
        "inorder": inorder_sample,
        "reservoir": lambda src, n, k: reservoir_sample(src, range(1, n + 1), k),
    }
