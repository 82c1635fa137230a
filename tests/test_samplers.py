"""Sampler tests: hand-traced draw sequences, equivalences, restoration."""

import math
import sys

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from srswor.rng import DrawStats, RandomSource, ScriptedSource
from srswor.samplers import (
    SampleOrder,
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

int_word, real_word = ScriptedSource.int_word, ScriptedSource.real_word


def _scripted(values, bounds) -> ScriptedSource:
    """A source whose bounded draws at bounds read as values."""
    return ScriptedSource(map(int_word, values, bounds))


ALL_INDEX_SAMPLERS = [
    fisher_yates_sample,
    sparse_fisher_yates,
    membership_checking_sample,
    selection_sample,
    inorder_sample,
]


# --- hand traces ---

def test_fisher_yates_trace():
    # n=5, k=3: swap x[5]<->x[2] picks 2, swap x[4]<->x[1] picks 1,
    # swap x[3]<->x[3] picks 3.
    res = fisher_yates_sample(_scripted([2, 1, 3], [5, 4, 3]), 5, 3)
    assert res.indices == [2, 1, 3]
    assert res.order is SampleOrder.SELECTION
    assert res.draw_stats.uniform_int == 3


def test_fisher_yates_full_self_swaps():
    # every draw hits the current top slot, so the array is read backwards
    n = 5
    res = fisher_yates_sample(_scripted([5, 4, 3, 2, 1], [5, 4, 3, 2, 1]), n, n)
    assert res.indices == [5, 4, 3, 2, 1]


def test_sparse_trace_matches_classical():
    res = sparse_fisher_yates(_scripted([2, 1, 3], [5, 4, 3]), 5, 3)
    assert res.indices == [2, 1, 3]
    assert res.draw_stats.uniform_int == 3


def test_sparse_repeat_goes_through_the_map():
    # the second draw repeats the first, so it picks the item that the
    # first swap moved into slot 2, not 2 again
    res = sparse_fisher_yates(_scripted([2, 2], [3, 2]), 3, 2)
    assert res.indices == [2, 3]
    assert res.draw_stats.uniform_int == 2


def test_sparse_iterator_prefix():
    it = SparseFisherYatesIterator(5, _scripted([2, 1, 3], [5, 4, 3]))
    assert [next(it) for _ in range(3)] == [2, 1, 3]


def test_membership_trace_counts_rejections():
    # second draw repeats the first and is rejected, costing an extra draw
    res = membership_checking_sample(_scripted([2, 2, 1, 3], [3] * 4), 3, 3)
    assert res.indices == [2, 1, 3]
    assert res.draw_stats.uniform_int == 4


def test_preinit_trace_and_restoration():
    x = [10, 20, 30]
    res, swaps = preinit_fy_sample_with_undo(_scripted([3, 1], [3, 2]), x, 2)
    assert res.indices == [30, 10]
    assert x == [10, 20, 30]
    assert swaps == [(3, 3), (2, 1)]


def test_preinit_trace_alternate_script():
    # first draw 2 swaps slots 3 and 2, so the first selection is the
    # value that started in slot 2
    x = [10, 20, 30]
    res, _ = preinit_fy_sample_with_undo(_scripted([2, 1], [3, 2]), x, 2)
    assert res.indices == [20, 10]
    assert x == [10, 20, 30]


def test_permutation_identity_script():
    # all self-swaps leave the array untouched
    src = _scripted([5, 4, 3, 2, 1], [5, 4, 3, 2, 1])
    assert permutation_from_transpositions(src, 5) == [1, 2, 3, 4, 5]


def test_permutation_draw_count():
    src = RandomSource(9)
    permutation_from_transpositions(src, 12)
    assert src.stats.uniform_int == 12


# --- output contracts ---

@pytest.mark.parametrize("sampler", ALL_INDEX_SAMPLERS)
def test_sample_is_valid_subset(sampler):
    src = RandomSource(101)
    for n, k in [(1, 0), (1, 1), (7, 3), (20, 20), (50, 1)]:
        res = sampler(src, n, k)
        assert len(res.indices) == k
        assert len(set(res.indices)) == k
        assert all(1 <= i <= n for i in res.indices)
        assert res.n == n


@pytest.mark.parametrize("sampler", ALL_INDEX_SAMPLERS)
def test_k_zero_is_empty(sampler):
    res = sampler(RandomSource(5), 4, 0)
    assert res.indices == []
    assert res.draw_stats.total() == 0


@pytest.mark.parametrize("sampler", ALL_INDEX_SAMPLERS)
def test_bad_nk_rejected(sampler):
    src = RandomSource(6)
    with pytest.raises(ValueError):
        sampler(src, 0, 0)
    with pytest.raises(ValueError):
        sampler(src, 5, 6)
    with pytest.raises(ValueError):
        sampler(src, 5, -1)
    # a float count is refused by its type, in n or in k, before any draw
    for n, k in ((10.0, 2), (10, 2.0)):
        with pytest.raises(TypeError):
            sampler(src, n, k)
    assert src.words_generated == 0


def test_array_and_stream_samplers_refuse_a_float_k():
    src = RandomSource(6)
    for sampler in (preinit_fy_sample_with_undo, reservoir_sample):
        with pytest.raises(TypeError):
            sampler(src, [1, 2, 3], 2.0)
    assert src.words_generated == 0


@pytest.mark.parametrize("n", [2**53 - 1, 2**53, 2**53 + 1,
                               2**64 - 1, 2**64, 2**64 + 1])
@pytest.mark.parametrize("sampler", [sparse_fisher_yates, membership_checking_sample,
                                     inorder_sample])
def test_o_k_samplers_at_word_boundaries(sampler, n):
    # the float-mantissa and machine-word edges of the bounded-int draws
    res = sampler(RandomSource(21), n, 5)
    assert len(set(res.indices)) == 5
    assert all(1 <= i <= n for i in res.indices)
    assert sampler(RandomSource(21), n, 5).indices == res.indices
    if sampler is inorder_sample:
        assert res.indices == sorted(res.indices)


def test_sorted_order_samplers():
    src = RandomSource(33)
    for _ in range(200):
        for sampler in (selection_sample, inorder_sample):
            res = sampler(src, 15, 6)
            assert res.order is SampleOrder.SORTED
            assert res.indices == sorted(res.indices)


def test_selection_sample_stops_early():
    # k=n forces acceptance of every index with a certain Bernoulli, after
    # which the scan has nothing left to decide
    res = selection_sample(RandomSource(3), 6, 6)
    assert res.indices == [1, 2, 3, 4, 5, 6]
    res = selection_sample(RandomSource(3), 40, 40)
    assert res.indices == list(range(1, 41))


def test_selection_sample_draw_bound():
    src = RandomSource(77)
    for _ in range(300):
        res = selection_sample(src, 25, 8)
        assert res.draw_stats.bernoulli <= 25


# --- draw budgets ---

def test_exact_draw_budgets():
    # one logical draw per selection for the Fisher-Yates family and the
    # in-order sampler, in the result and on the source's own counters
    samplers = default_samplers()
    for n, k in [(10, 3), (100, 37), (1000, 250)]:
        for name in ("fy", "sparse", "preinit"):
            src = RandomSource(1)
            assert samplers[name](src, n, k).draw_stats.uniform_int == k
            assert src.stats == DrawStats(uniform_int=k)
        assert inorder_sample(RandomSource(1), n, k).draw_stats.beta_binomial == k


# --- classical vs sparse equivalence ---

@given(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=0, max_value=2**48),
)
@settings(max_examples=200, deadline=None)
def test_sparse_equals_classical(n, seed):
    k = RandomSource(seed ^ 0xABCD).next_uniform_int(n)
    a = fisher_yates_sample(RandomSource(seed), n, k)
    b = sparse_fisher_yates(RandomSource(seed), n, k)
    assert a.indices == b.indices


def _sparse_map_loop(source, n, k):
    """sparse_fisher_yates without the distinct-draw shortcut: one draw and
    one pass of the map per step, for every step."""
    entries = {}
    out = []
    for top in range(n, n - k, -1):
        r = source.next_uniform_int(top)
        out.append(entries.get(r, r))
        entries[r] = entries.get(top, top)
        entries.pop(top, None)
    return out


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.one_of(st.integers(min_value=1, max_value=8),
                 st.integers(min_value=10**9 - 100, max_value=10**9 + 100),
                 st.integers(min_value=2**64 + 1, max_value=2**72)),
       st.integers(min_value=0, max_value=60))
@settings(max_examples=300, deadline=None)
def test_sparse_shortcut_matches_map_loop(seed, n, k):
    # n <= 8 repeats a draw in most runs, the larger n almost never
    k = min(n, k)
    src, ref = RandomSource(seed), RandomSource(seed)
    res = sparse_fisher_yates(src, n, k)
    assert res.indices == _sparse_map_loop(ref, n, k)
    assert res.draw_stats == ref.stats
    assert src.words_generated == ref.words_generated


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.one_of(st.integers(min_value=1, max_value=8),
                 st.integers(min_value=10**9 - 100, max_value=10**9 + 100),
                 st.integers(min_value=2**64 + 1, max_value=2**72)),
       st.lists(st.one_of(st.none(), st.integers(min_value=0, max_value=12)), max_size=12))
@settings(max_examples=200, deadline=None)
def test_take_in_chunks_equals_single_steps(seed, n, steps):
    # take(j) in chunks, with None for a next(), against one next() per
    # step and against sparse_fisher_yates: the same picks, map size,
    # counters and words
    src, ref = RandomSource(seed), RandomSource(seed)
    chunked, single = SparseFisherYatesIterator(n, src), SparseFisherYatesIterator(n, ref)
    picks = []
    for j in steps:
        if j is None and chunked.i < n:
            got = [next(chunked)]
        else:
            got = chunked.take(min(j or 0, n - chunked.i))
        assert got == [next(single) for _ in got]
        assert chunked.state_size() == single.state_size()
        assert (src.stats, src.words_generated) == (ref.stats, ref.words_generated)
        picks += got
    batch = RandomSource(seed)
    assert sparse_fisher_yates(batch, n, len(picks)).indices == picks
    assert (batch.stats, batch.words_generated) == (src.stats, src.words_generated)


def test_take_zero_and_past_the_end():
    src = RandomSource(3)
    it = SparseFisherYatesIterator(5, src)
    assert it.take(0) == []
    first = it.take(3)
    before = (src.stats.copy(), src.words_generated, it.i, it.state_size())
    for j in (3, -1):  # two are left
        with pytest.raises(ValueError):
            it.take(j)
    assert (src.stats, src.words_generated, it.i, it.state_size()) == before
    assert sorted(first + it.take(2)) == [1, 2, 3, 4, 5]
    assert it.take(0) == [] and it.i == 5


def test_sparse_state_overlay_reconstructs_classical_array():
    # overlaying the sparse entries on the identity must reproduce the
    # classical array restricted to the live prefix, step for step
    n, k, seed = 40, 40, 314
    x = list(range(1, n + 1))
    classical = RandomSource(seed)
    it = SparseFisherYatesIterator(n, RandomSource(seed))
    for i in range(k):
        top = n - i
        r = classical.next_uniform_int(top)
        x[top - 1], x[r - 1] = x[r - 1], x[top - 1]
        next(it)
        assert it.i == i + 1
        live = {pos: it._entries.get(pos, pos) for pos in range(1, top)}
        assert live == {pos: x[pos - 1] for pos in range(1, top)}


def test_sparse_state_size_bound():
    src = RandomSource(271)
    it = SparseFisherYatesIterator(1000, src)
    for i in range(1, 501):
        next(it)
        assert it.state_size() <= i


def test_sparse_iterator_exhausts_at_n():
    it = SparseFisherYatesIterator(4, RandomSource(0))
    out = list(it)
    assert sorted(out) == [1, 2, 3, 4]
    with pytest.raises(StopIteration):
        next(it)


# --- preinit restoration ---

@given(
    st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=200),
    st.integers(min_value=0, max_value=2**48),
)
@settings(max_examples=200, deadline=None)
def test_preinit_restores_arbitrary_arrays(items, seed):
    k = RandomSource(seed ^ 0x5EED).next_uniform_int(len(items))
    x = list(items)
    res, swaps = preinit_fy_sample_with_undo(RandomSource(seed), x, k)
    assert x == items
    assert len(res.indices) == k
    assert len(swaps) == k


def test_preinit_sample_values_come_from_array():
    items = ["a", "b", "c", "d", "e", "f"]
    res, _ = preinit_fy_sample_with_undo(RandomSource(8), list(items), 4)
    assert len(set(res.indices)) == 4
    assert set(res.indices) <= set(items)


def test_preinit_same_subset_as_fisher_yates():
    # same seed, same selected positions, expressed as values
    n, k, seed = 30, 12, 99
    by_index = fisher_yates_sample(RandomSource(seed), n, k)
    by_value, _ = preinit_fy_sample_with_undo(RandomSource(seed), list(range(1, n + 1)), k)
    assert by_value.indices == by_index.indices


# --- in-order sampler ---

def test_inorder_full_sample_is_identity():
    res = inorder_sample(RandomSource(2), 9, 9)
    assert res.indices == list(range(1, 10))


# --- reservoir ---

def test_reservoir_short_stream_returns_everything():
    res = reservoir_sample(RandomSource(4), [7, 8], 5)
    assert res.indices == [7, 8]
    assert res.n == 2
    assert res.draw_stats.total() == 0


def test_reservoir_exact_length_stream():
    res = reservoir_sample(RandomSource(4), [1, 2, 3], 3)
    assert res.indices == [1, 2, 3]


def test_reservoir_draw_budget():
    # Algorithm L: three draws per replacement, about k ln(n/k) replacements
    # (92 here), plus two; a run breaks 4 k (1 + ln(n/k)) with probability
    # 3e-6 at this cell, by the exact law of the replacement count
    n, k = 10**5, 10
    res = reservoir_sample(RandomSource(19), range(1, n + 1), k)
    stats = res.draw_stats
    assert stats.uniform_real == 2 * stats.uniform_int + 2
    assert stats.total() <= 4 * k * (1 + math.log(n / k))
    assert res.n == n


def test_reservoir_skip_beyond_maxsize():
    # w = 2^-53 then 2^-106 leaves a skip of about 0.69 * 2^106, past
    # sys.maxsize, which islice cannot take in one call.  No process reads
    # 2^63 items, so the stream is the last five items of range(1, 2**70):
    # the skip runs off its end, and the one replacement is the sample.
    assert math.log(2.0) * 2**106 > sys.maxsize
    items = iter(range(1, 2**70))
    items.__setstate__(2**70 - 6)
    tail = [2**70 - 5 + i for i in range(5)]
    # reals are 1 - u: w, the skip, the next w, the skip; the int is the slot
    script = [real_word(u) for u in (1.0 - 2.0**-53, 0.0)]
    script += [int_word(1, 1)] + [real_word(u) for u in (1.0 - 2.0**-53, 0.5)]
    res = reservoir_sample(ScriptedSource(script), items, 1)
    assert res.indices == [tail[1]]
    assert res.n == 5
    assert res.draw_stats.uniform_int == 1 and res.draw_stats.uniform_real == 4


def test_reservoir_requires_positive_capacity():
    # k = 0 is an empty sample that reads and draws nothing, as for the
    # index samplers; only a negative capacity is refused
    src = RandomSource(0)
    res = reservoir_sample(src, [1, 2], 0)
    assert res.indices == [] and res.n == 0
    assert src.stats.total() == 0
    with pytest.raises(ValueError):
        reservoir_sample(src, [1, 2], -1)


@given(
    st.integers(min_value=1, max_value=120),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=2**48),
)
@settings(max_examples=200, deadline=None)
def test_reservoir_is_valid_subset(n, k, seed):
    res = reservoir_sample(RandomSource(seed), range(1, n + 1), k)
    expect = min(n, k)
    assert len(res.indices) == expect
    assert len(set(res.indices)) == expect
    assert set(res.indices) <= set(range(1, n + 1))


def test_reservoir_works_on_generators():
    def gen():
        yield from ("x", "y", "z", "w")

    res = reservoir_sample(RandomSource(5), gen(), 2)
    assert len(res.indices) == 2
    assert set(res.indices) <= {"x", "y", "z", "w"}


# --- one-shot determinism across the board ---

def test_same_seed_same_sample():
    for sampler in ALL_INDEX_SAMPLERS:
        a = sampler(RandomSource(12345), 50, 20)
        b = sampler(RandomSource(12345), 50, 20)
        assert a.indices == b.indices


# --- laws: each test asserts its srswor.suite row, at the quick scale and seed 1 ---

def test_inorder_first_position_distribution(quick_law):
    quick_law("first-position-inorder-5-2")


def test_reservoir_max_position_law(quick_law):
    quick_law("reservoir-max-position-60-3")
