"""Split/merge tests: structural guarantees, draw budgets, scripted traces.
Their laws are rows of the verify table (srswor.suite)."""

import copy
import math

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from srswor.distributed import (
    MergeInput,
    downsample,
    merge_all_with_state,
    split_sample_counts,
)
from srswor.distributions import beta
from srswor.rng import DrawStats, RandomSource, ScriptedSource, ScriptExhaustedError
from srswor.samplers import fisher_yates_sample, sparse_fisher_yates


def test_merge_input_validation():
    MergeInput([1, 2], 5)
    MergeInput([], 3)
    with pytest.raises(ValueError):
        MergeInput([1, 2], 1)
    with pytest.raises(ValueError):
        MergeInput([1, 1], 5)
    with pytest.raises(ValueError):
        MergeInput([], 0)


def test_merge_input_is_hashable_and_frozen():
    inp = MergeInput([3, 1], 4)
    assert inp.sample == (3, 1)
    hash(inp)
    with pytest.raises(Exception):
        inp.population_size = 9  # type: ignore[misc]


# --- splitting ---

def test_split_counts_structure():
    src = RandomSource(10)
    for _ in range(300):
        counts = split_sample_counts(src, [4, 7, 2], 6)
        assert sum(counts) == 6
        assert all(0 <= c <= s for c, s in zip(counts, [4, 7, 2]))


def test_split_counts_edges():
    src = RandomSource(11)
    assert split_sample_counts(src, [3, 5], 0) == [0, 0]
    assert split_sample_counts(src, [3, 5], 8) == [3, 5]
    assert split_sample_counts(src, [4], 2) == [2]


def test_split_counts_validation():
    src = RandomSource(12)
    with pytest.raises(ValueError):
        split_sample_counts(src, [], 0)
    with pytest.raises(ValueError):
        split_sample_counts(src, [3, 0], 1)
    with pytest.raises(ValueError):
        split_sample_counts(src, [3, 3], 7)


# --- merging ---

def test_merge_full_shards_returns_union():
    # k = n on both sides leaves no room for thinning: thresholds are both
    # the (n+1)-th of n+... degenerate Beta(k+1, 0) = 1, every item kept
    src = RandomSource(15)
    a = MergeInput([1, 2, 3], 3)
    b = MergeInput([4, 5], 2)
    merged, state = merge_all_with_state(src, (a, b))
    assert sorted(merged) == [1, 2, 3, 4, 5]
    assert state.kappas == (3, 2)
    assert src.stats == DrawStats(beta=2)  # two degenerate betas, no uniform


def test_merge_winner_keeps_all():
    # the shard attaining the minimum threshold is never thinned
    src = RandomSource(16)
    for _ in range(2000):
        a = MergeInput([1, 2, 3], 9)
        b = MergeInput([4, 5, 6, 7], 11)
        merged, state = merge_all_with_state(src, (a, b))
        win = state.thresholds.index(min(state.thresholds))
        assert state.kappas[win] == len((a, b)[win].sample)
        assert len(merged) == sum(state.kappas)


def test_merge_preserves_identity_sets():
    src = RandomSource(17)
    for _ in range(500):
        a = MergeInput(["a1", "a2"], 6)
        b = MergeInput(["b1", "b2", "b3"], 8)
        merged, _ = merge_all_with_state(src, (a, b))
        assert len(set(merged)) == len(merged)
        assert set(merged) <= {"a1", "a2", "b1", "b2", "b3"}


def test_merge_empty_samples_allowed():
    src = RandomSource(18)
    merged, state = merge_all_with_state(src, (MergeInput([], 4), MergeInput([], 6)))
    assert merged == [] and state.kappas == (0, 0)


def test_merge_requires_inputs():
    with pytest.raises(ValueError):
        merge_all_with_state(RandomSource(0), [])


def test_merge_single_input_is_identity_set():
    src = RandomSource(19)
    merged, state = merge_all_with_state(src, [MergeInput([2, 4, 6], 10)])
    assert sorted(merged) == [2, 4, 6]
    assert state.kappas == (3,)


def test_merge_three_shards_structure():
    src = RandomSource(21)
    for _ in range(1000):
        inputs = [
            MergeInput([1, 2], 5),
            MergeInput([11, 12, 13], 7),
            MergeInput([21], 4),
        ]
        merged, state = merge_all_with_state(src, inputs)
        assert len(state.thresholds) == 3
        assert len(merged) == sum(state.kappas)
        win = state.thresholds.index(min(state.thresholds))
        assert state.kappas[win] == len(inputs[win].sample)
        assert len(set(merged)) == len(merged)


# --- downsampling ---

def test_downsample_structure():
    src = RandomSource(23)
    items = list("abcdefgh")
    for target in range(9):
        out = downsample(src, items, target)
        assert len(out) == target
        assert len(set(out)) == target
        assert set(out) <= set(items)


def test_downsample_validation():
    src = RandomSource(24)
    with pytest.raises(ValueError):
        downsample(src, [1, 2], 3)
    with pytest.raises(ValueError):
        downsample(src, [1, 2], -1)


def test_downsample_zero_consumes_nothing():
    src = RandomSource(25)
    assert downsample(src, [1, 2, 3], 0) == []
    assert src.stats.total() == 0


def test_downsample_full_consumes_nothing():
    src = RandomSource(25)
    items = (3, 1, 2)
    assert downsample(src, items, 3) == [3, 1, 2]
    assert src.words_generated == 0 and src.stats == DrawStats()


def test_downsample_keeps_input_order():
    # items run against their natural order, so a sort of the kept items
    # (not of their positions) would show; targets cover both the keep side
    # (2 * target <= n) and the drop side
    src = RandomSource(30)
    items = [f"x{j:02d}" for j in range(17, 0, -1)]
    for _ in range(20):
        for target in range(len(items) + 1):
            kept = downsample(src, items, target)
            assert kept == [x for x in items if x in set(kept)]
            assert len(set(kept)) == target


def _downsample_by_sort(source, sample, target):
    """downsample as a sort of sparse_fisher_yates positions, or a set of
    the dropped ones past half."""
    n = len(sample)
    if 2 * target <= n:
        if target == 0:
            return []
        positions = sparse_fisher_yates(source, n, target).indices
        return [sample[p - 1] for p in sorted(positions)]
    dropped = set(sparse_fisher_yates(source, n, n - target).indices)
    return [item for p, item in enumerate(sample, 1) if p not in dropped]


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=200),
       st.integers(min_value=0, max_value=24), st.booleans())
@settings(max_examples=200, deadline=None)
def test_downsample_mask_matches_sort(seed, n, c, drop):
    # the draws route, taken while min(target, n - target) is below the
    # marks route's cost (_fewest_ints), makes the draws and picks of a
    # partial shuffle, draw for draw
    c = min(c, (n - 1) // 8 + 3, n)
    target = n - c if drop else c
    assume(_fewest_ints(n, target)[1])
    items = [f"x{j}" for j in range(n, 0, -1)]
    src, ref = RandomSource(seed), RandomSource(seed)
    assert downsample(src, items, target) == _downsample_by_sort(ref, items, target)
    assert src.stats == ref.stats and src.words_generated == ref.words_generated


def _word(marks) -> int:
    """The word whose little-endian bytes are marks."""
    return int.from_bytes(bytes(marks), "little")


int_word, real_word = ScriptedSource.int_word, ScriptedSource.real_word


# keep 4 of 8 takes the marks route with level 128: bytes below it mark
@pytest.mark.parametrize("script, kept, ints", [
    # s = 6: clear two marks; 7 and 8 hit unmarked positions and are drawn again
    ([_word([0, 0, 0, 0, 0, 127, 200, 200]), *(int_word(p, 8) for p in (7, 2, 8, 5))], "acdf", 5),
    # s = 3: mark one more; 3 hits a marked position and is drawn again
    ([_word([0, 200, 0, 200, 200, 200, 0, 200]), int_word(3, 8), int_word(6, 8)], "acfg", 3),
    # s = 4: no fix-up; 127 marks and 128 does not
    ([_word([127, 128, 0, 255, 0, 200, 0, 200])], "aceg", 1),
])
def test_downsample_marks_route_fix_up(script, kept, ints):
    src = ScriptedSource(script)
    assert "".join(downsample(src, "abcdefgh", 4)) == kept
    assert src.stats == DrawStats(uniform_int=ints)
    with pytest.raises(ScriptExhaustedError):
        src.next_uniform_int(1)


# an empty shard of population 1 draws its threshold 1 - u (beta(1, 1)), and
# a full shard of 8 has threshold 1 with no draw, so it is thinned with
# q = 1 - u by the bytes of one word; 128 is the tie byte L = floor(256 q)
@pytest.mark.parametrize("script, kept, reals", [
    # 256 q = 128.5: each tie byte draws bernoulli(0.5), kept at 0.25 and
    # 0.4, dropped at 0.75
    ([real_word(0.5 - 2**-9), _word([0, 128, 127, 200, 128, 255, 128, 5]),
      *map(real_word, (0.25, 0.75, 0.4))], "abcgh", 4),
    # 256 q = 128: a tie byte drops its item with no draw
    ([real_word(0.5), _word([0, 128, 127, 200, 128, 255, 128, 5])], "ach", 1),
])
def test_merge_thinning_tie_byte(script, kept, reals):
    src = ScriptedSource(script)
    merged, state = merge_all_with_state(src, [MergeInput([], 1), MergeInput("abcdefgh", 8)])
    assert "".join(merged) == kept
    assert state.kappas == (0, len(kept))
    assert src.stats == DrawStats(uniform_int=1, uniform_real=reals, beta=2,
                                  bernoulli=reals - 1)
    with pytest.raises(ScriptExhaustedError):
        src.next_uniform_real()


def _is_subsequence(part, whole):
    rest = iter(whole)
    return all(item in rest for item in part)


def _fewest_ints(n, m, twin=None) -> tuple[int, bool]:
    """The uniform ints that downsample of m from n items takes at least,
    and whether that count is exact: c = min(m, n - m) on the draws route
    (c below ceil(n / 8) plus the expected flips, sqrt(2 n p (1 - p) / pi)
    with p = L / 256); on the marks route ceil(n / 8) byte words, then at
    least |s - m| fix-up ints when twin, a copy of the source, gives s.
    Target 0 or n takes none."""
    c = min(m, n - m)
    level = (512 * m + n) // (2 * n) if n else 0
    flips = math.sqrt(2 * n * (level / 256) * (1 - level / 256) / math.pi)
    if c == 0 or c < -(-n // 8) + flips:
        return c, True
    fix_ups = 0
    if twin is not None:
        fix_ups = abs(sum(b < level for b in twin.uniform_bytes(n)) - m)
    return -(-n // 8) + fix_ups, False


def _replay_thinning(twin, inputs, state) -> tuple[int, int]:
    """The byte words and tie Bernoullis of merge's thinning, replayed on
    twin, a copy of the source from before the merge, and checked against
    the thresholds and kappas of state."""
    thresholds = tuple(beta(twin, len(inp.sample) + 1, inp.population_size - len(inp.sample))
                       for inp in inputs)
    assert thresholds == state.thresholds
    words = ties = 0
    for inp, t_c, kappa in zip(inputs, thresholds, state.kappas):
        k_c, q = len(inp.sample), min(thresholds) / t_c
        if q == 1.0 or k_c == 0:
            assert kappa == k_c  # kept whole, with no draw
            continue
        words += -(-k_c // 8)
        level = int(256 * q)
        data = twin.uniform_bytes(k_c)
        kept = sum(b < level for b in data)
        if 256 * q > level:
            hits = data.count(level)
            ties += hits
            kept += sum(twin.next_uniform_real() < 256 * q - level for _ in range(hits))
        assert kappa == kept
    return words, ties


@given(
    st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=2**48),
)
@settings(max_examples=150, deadline=None)
def test_keep_draw_budget_and_order(sizes, seed):
    # downsample draws uniform ints and nothing else, as many as its route
    # takes (_fewest_ints); merge draws one beta per shard, then the byte
    # words of each thinned shard and one Bernoulli per tie byte
    src = RandomSource(seed)
    items = [f"i{src.next_uniform_int(10**6)}-{j}" for j in range(sizes[0])]
    m = src.next_uniform_int(len(items) + 1) - 1
    fewest, exact = _fewest_ints(len(items), m, copy.deepcopy(src))
    before = src.stats.copy()
    kept = downsample(src, items, m)
    delta = src.stats - before
    assert delta == DrawStats(uniform_int=delta.uniform_int)
    assert delta.uniform_int == fewest if exact else delta.uniform_int >= fewest
    assert len(kept) == m and _is_subsequence(kept, items)

    inputs = []
    for c, size in enumerate(sizes):
        sample = [(c, i) for i in sparse_fisher_yates(src, size + 9, size).indices]
        inputs.append(MergeInput(sample, size + 9))
    twin = copy.deepcopy(src)
    before = src.stats.copy()
    merged, state = merge_all_with_state(src, inputs)
    delta = src.stats - before
    words, ties = _replay_thinning(twin, inputs, state)
    assert delta.uniform_int == words
    assert delta.beta == len(inputs)
    assert delta.bernoulli == ties
    assert delta.binomial == delta.beta_binomial == delta.hypergeometric == 0
    assert src.words_generated == twin.words_generated
    assert _is_subsequence(merged, [x for inp in inputs for x in inp.sample])


@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=2**48),
)
@settings(max_examples=150, deadline=None)
def test_merge_output_always_valid(na, nb, seed):
    src = RandomSource(seed)
    ka = src.next_uniform_int(na)
    kb = src.next_uniform_int(nb)
    sa = fisher_yates_sample(src, na, ka).indices
    sb = [x + na for x in fisher_yates_sample(src, nb, kb).indices]
    merged, state = merge_all_with_state(src, (MergeInput(sa, na), MergeInput(sb, nb)))
    assert sum(state.kappas) == len(merged)
    assert len(set(merged)) == len(merged)
    assert set(merged) <= set(range(1, na + nb + 1))
    assert len(merged) <= ka + kb


# --- laws: each test asserts its srswor.suite row, at the quick scale and seed 1 ---

def test_split_counts_marginal_law(quick_law):
    quick_law("split-counts-2-2-k2")


def test_split_counts_three_block_marginals(quick_law):
    quick_law("split-counts-3-4-5-k4")


def test_merge_inclusion_probabilities_equalize(quick_law):
    quick_law("merge-item-inclusion-4-4", "merge-item-inclusion-4-4")


def test_merge_conditional_inclusion_is_size_over_union(quick_law):
    quick_law("merge-item-inclusion-4-4", "merge-inclusion-given-size-4-4")


def test_merge_row_winner_keeps_all(quick_law):
    quick_law("merge-item-inclusion-4-4", "merge-winner-keeps-all")


def test_merge_symmetric_in_inputs(quick_law):
    quick_law("merge-symmetric-3-3")


def test_merge_beside_empty_shard_flat_in_n(quick_law):
    quick_law("merge-beside-empty-1e5-1e17")


def test_downsample_uniform_over_items(quick_law):
    quick_law("downsample-items-5-2")


def test_merge_inclusion_drop_side(quick_law):
    quick_law("merge-inclusion-drop-side-8-8")
