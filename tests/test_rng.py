"""Generator-level tests: raw word stream, bounded draws, scripted sources."""

import copy
import math
import pickle

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from srswor import (MergeInput, MergeState, SampleOrder, SampleResult, bernoulli, beta,
                    beta_binomial, binomial, hypergeometric)
from srswor.rng import DrawStats, RandomSource, ScriptedSource, ScriptExhaustedError

int_word, real_word = ScriptedSource.int_word, ScriptedSource.real_word

# First five raw 64-bit words for a handful of seeds, frozen from an
# independent C implementation of the same mixing constants.
WORDS_SEED_0 = [
    16294208416658607535,
    7960286522194355700,
    487617019471545679,
    17909611376780542444,
    1961750202426094747,
]
WORDS_SEED_42 = [
    13679457532755275413,
    2949826092126892291,
    5139283748462763858,
    6349198060258255764,
    701532786141963250,
]
WORDS_SEED_1234567 = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]

# (word >> 11) * 2**-53 applied to WORDS_SEED_42.
REALS_SEED_42 = [
    0.7415648787718233,
    0.1599103928769201,
    0.27860113025513866,
]


def test_word_stream_matches_reference():
    for seed, expected in [
        (0, WORDS_SEED_0),
        (42, WORDS_SEED_42),
        (1234567, WORDS_SEED_1234567),
    ]:
        src = RandomSource(seed)
        got = [src.next_uniform_int(2**64) - 1 for _ in range(5)]
        assert got == expected, f"seed {seed}"


def test_uniform_real_from_words():
    src = RandomSource(42)
    got = [src.next_uniform_real() for _ in range(3)]
    assert got == REALS_SEED_42


def test_uniform_real_range_and_count():
    src = RandomSource(7)
    for _ in range(1000):
        u = src.next_uniform_real()
        assert 0.0 <= u < 1.0
    assert src.stats == DrawStats(uniform_real=1000)


def test_uniform_int_range():
    src = RandomSource(3)
    for m in (1, 2, 3, 7, 100, 2**40):
        for _ in range(200):
            r = src.next_uniform_int(m)
            assert 1 <= r <= m


def test_uniform_int_m1_consumes_a_word():
    # m=1 has only one outcome but still burns a word: draw counts stay
    # in lockstep with the scripted replay used elsewhere.
    src = RandomSource(5)
    before = src.words_generated
    assert src.next_uniform_int(1) == 1
    assert src.words_generated == before + 1
    assert src.stats == DrawStats(1)


def test_uniform_int_rejects_bad_bound():
    src = RandomSource(0)
    with pytest.raises(ValueError):
        src.next_uniform_int(0)
    with pytest.raises(ValueError):
        src.next_uniform_int(-3)


def test_determinism_same_seed():
    a = RandomSource(99)
    b = RandomSource(99)
    seq_a = [a.next_uniform_int(50) for _ in range(500)]
    seq_b = [b.next_uniform_int(50) for _ in range(500)]
    assert seq_a == seq_b


@given(st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=50)
def test_determinism_over_seeds(seed):
    a = RandomSource(seed)
    b = RandomSource(seed)
    assert [a.next_uniform_int(2**64) for _ in range(4)] == [
        b.next_uniform_int(2**64) for _ in range(4)]


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100)
def test_uniform_int_always_in_range(m, seed):
    src = RandomSource(seed)
    r = src.next_uniform_int(m)
    assert 1 <= r <= m


@pytest.mark.parametrize("m", [2**64, 2**64 + 1, 2**80])
def test_uniform_int_beyond_one_word(m):
    # past 2^64 a candidate joins several words; it is still one logical
    # draw, and every word it used is counted (the state advanced by as many)
    a, b = RandomSource(8), RandomSource(8)
    draws = [a.next_uniform_int(m) for _ in range(200)]
    assert draws == [b.next_uniform_int(m) for _ in range(200)]
    assert all(1 <= r <= m for r in draws)
    assert len(set(draws)) == 200
    assert a.stats == DrawStats(200)
    per_candidate = -(-(m - 1).bit_length() // 64)
    assert a.words_generated % per_candidate == 0
    assert a.words_generated >= 200 * per_candidate


def test_draw_count_counts_logical_draws_not_words():
    # top-bits rejection may burn several words per accepted draw; the
    # logical count must tick exactly once per call.
    src = RandomSource(11)
    for i in range(1, 401):
        src.next_uniform_int(3)
        assert src.stats == DrawStats(i)
    assert src.words_generated >= i


def test_scripted_int_replay():
    src = ScriptedSource([int_word(2, 3), int_word(1, 2), int_word(3, 3)])
    assert src.next_uniform_int(3) == 2
    assert src.next_uniform_int(2) == 1
    assert src.next_uniform_int(3) == 3
    with pytest.raises(ScriptExhaustedError):
        src.next_uniform_int(3)


def test_scripted_real_replay():
    src = ScriptedSource([real_word(0.5), real_word(0.25)])
    assert src.next_uniform_real() == 0.5
    assert src.next_uniform_real() == 0.25


def test_scripted_exhaustion():
    src = ScriptedSource([int_word(1, 1)])
    src.next_uniform_int(1)
    with pytest.raises(ScriptExhaustedError):
        src.next_uniform_int(5)


def test_exhausted_draw_counts_nothing():
    # a draw is counted once it returns, so one that runs out of script
    # adds to no counter, whichever method or family makes it
    draws = (lambda s: s.next_uniform_real(), lambda s: s.next_uniform_int(5),
             lambda s: s.next_uniform_int(2**65), lambda s: s.descending_ints(5, 2),
             lambda s: s.uniform_bytes(3))
    for draw in draws:
        src = ScriptedSource([int_word(1, 1)])
        assert src.next_uniform_int(1) == 1
        with pytest.raises(ScriptExhaustedError):
            draw(src)
        assert (src.stats, src.words_generated) == (DrawStats(uniform_int=1), 1)
    # scripts that run out part-way through a block, on every draw path:
    # words_generated still counts every word the draw read
    cases = [([7 << 61], lambda s: s.next_uniform_int(5), 1),
             ([5], lambda s: s.next_uniform_int(2**65), 1),
             ([7 << 61] * 300, lambda s: s.next_uniform_int(5), 300),
             ([7 << 61] * 300, lambda s: s.descending_ints(5, 1), 300),
             ([0] * 300, lambda s: s.uniform_bytes(8 * 301), 300),
             ([0] * 3, lambda s: s.descending_ints(2**80, 2), 3)]
    for case, (script, draw, words) in enumerate(cases):
        src = ScriptedSource(script)
        with pytest.raises(ScriptExhaustedError):
            draw(src)
        assert (src.stats, src.words_generated) == (DrawStats(), words), case
    families = (lambda s: bernoulli(s, 0.3), lambda s: binomial(s, 10, 0.3),
                lambda s: beta(s, 2.0, 3.0), lambda s: beta_binomial(s, 2, 3, 10),
                lambda s: hypergeometric(s, 5, 10, 3))
    for case, draw in enumerate(families):
        src = ScriptedSource([])
        with pytest.raises(ScriptExhaustedError):
            draw(src)
        assert (src.stats, src.words_generated) == (DrawStats(), 0), case


def test_scripted_type_mismatch():
    # a script holds words: array("Q") refuses a value of any other type
    for script in ([0.5], ["2"], [None]):
        with pytest.raises(TypeError):
            ScriptedSource(script)


def test_scripted_out_of_range_draw():
    for script in ([2**64], [-1]):
        with pytest.raises(OverflowError):
            ScriptedSource(script)
    # no word reads as a value outside [1, m] or [0, 1), or past 2^64
    for bad in (lambda: int_word(5, 3), lambda: int_word(1, 2**64 + 1),
                lambda: real_word(math.nan)):
        with pytest.raises(ValueError):
            bad()


def test_scripted_rejects_bool_and_bad_real():
    # a bool is no draw value, and 1.0 lies outside [0, 1)
    with pytest.raises(ValueError):
        int_word(True, 2)
    with pytest.raises(ValueError):
        real_word(1.0)


def test_scripted_source_draws_through_the_random_source_kernels():
    assert RandomSource.__bases__ == (object,) and ScriptedSource.__bases__ == (RandomSource,)
    # it overrides only where words come from, beside its two word helpers
    assert {name for name in vars(ScriptedSource) if not name.startswith("__")} == {
        "_refill", "int_word", "real_word"}
    assert "__init__" in vars(ScriptedSource)
    # at bound 5 a draw reads a word's top 3 bits and rejects 5..7, so the
    # word 7 << 61 is read, rejected, and the next word taken
    src = ScriptedSource([7 << 61, int_word(2, 5)])
    assert src.next_uniform_int(5) == 2
    assert (src.stats, src.words_generated) == (DrawStats(uniform_int=1), 2)
    src = ScriptedSource([7 << 61, int_word(3, 5), int_word(4, 4)])
    assert src.descending_ints(5, 2) == [3, 4]
    assert (src.stats, src.words_generated) == (DrawStats(uniform_int=2), 3)


def test_scripted_blocks_span_the_script():
    # the first 600 % 256 words end the first block, the rest come as two
    # whole blocks, and every path reads them in order up to exhaustion
    script = list(range(3 << 62, (3 << 62) + 600))
    src = ScriptedSource(script)
    data = src.uniform_bytes(8 * 99) + (src.next_uniform_int(2**64) - 1).to_bytes(8, "little")
    assert [int.from_bytes(data[i:i + 8], "little") for i in range(0, 800, 8)] == script[:100]
    assert src.descending_ints(2**64, 500) == [w + 1 for w in script[100:]]
    assert src.words_generated == 600
    with pytest.raises(ScriptExhaustedError):
        src.next_uniform_real()


def test_stats_copy_and_diff():
    src = RandomSource(1)
    src.next_uniform_int(10)
    before = src.stats.copy()
    src.next_uniform_int(10)
    src.next_uniform_real()
    delta = src.stats - before
    assert delta.uniform_int == 1
    assert delta.uniform_real == 1
    assert delta.total() == 2


def test_stats_copy_diff_total_cover_every_field():
    names = list(DrawStats._fields)
    assert names == list(vars(DrawStats()))
    s = DrawStats(**{name: 2 ** j for j, name in enumerate(names)})
    c = s.copy()
    assert c == s and c is not s
    assert s - DrawStats() == s
    assert all(getattr(s - c, name) == 0 for name in names)
    assert s.total() == 2 ** len(names) - 1


def test_stats_total_sums_all_families():
    s = DrawStats(uniform_int=2, uniform_real=3, bernoulli=1, binomial=4,
                  beta=5, beta_binomial=6, hypergeometric=7)
    assert s.total() == 28


def test_real_resolution():
    # 53-bit mantissa: every value must be a multiple of 2**-53
    src = RandomSource(8)
    for _ in range(100):
        u = src.next_uniform_real()
        assert u == math.ldexp(round(math.ldexp(u, 53)), -53)


def test_records_survive_copy_and_pickle():
    for record in (DrawStats(uniform_int=3, beta=1), MergeState((0.25, 1.0), (2, 0)),
                   MergeInput(["a", "b"], 5),
                   SampleResult([4, 2], SampleOrder.SELECTION, 9, DrawStats(2))):
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert clone == record and clone is not record


@pytest.mark.parametrize("words", [0, 100, 256])
def test_random_source_survives_copy_and_pickle(words):
    # cloned before its first word, mid-block and exactly on a block
    # boundary, a source and its clones go on word for word
    src, twin = RandomSource(11), RandomSource(11)
    src.uniform_bytes(8 * words)
    twin.uniform_bytes(8 * words)
    want = [twin.next_uniform_int(2**64) - 1 for _ in range(300)]
    for clone in (copy.deepcopy(src), pickle.loads(pickle.dumps(src)), src):
        assert (clone.words_generated, clone.stats) == (words, DrawStats(uniform_int=words))
        assert [clone.next_uniform_int(2**64) - 1 for _ in range(300)] == want
        assert clone.words_generated == twin.words_generated


# --- the lane kernel against the generator's scalar definition ---

_GOLDEN = 0x9E3779B97F4A7C15


class _ScalarSplitmix64:
    """splitmix64 one word at a time, as its definition reads, with the
    source's bounded-int and real maps on top."""

    def __init__(self, seed: int) -> None:
        self.state = seed % 2**64
        self.words = 0

    def word(self) -> int:
        self.state = (self.state + _GOLDEN) % 2**64
        self.words += 1
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        return z ^ (z >> 31)

    def real(self) -> float:
        return (self.word() >> 11) * 2.0**-53

    def uniform_int(self, m: int) -> int:
        bits = (m - 1).bit_length()
        n_words = max(1, -(-bits // 64))
        while True:
            r = 0
            for _ in range(n_words):
                r = (r << 64) | self.word()
            r >>= 64 * n_words - bits
            if r < m:
                return r + 1


# None stands for a uniform real, an integer for a bounded int of that bound
_MIXED_SCRIPT = (None, 1, 6, 2**64 + 1, None, 2**130, 2**40, 2**64, 2**63 + 1, 3, None, 1)


def _assert_same_stream(seed: int, script, min_words: int) -> None:
    src, ref = RandomSource(seed), _ScalarSplitmix64(seed)
    calls = 0
    while ref.words < min_words:
        for m in script:
            if m is None:
                got, want = src.next_uniform_real(), ref.real()
            else:
                got, want = src.next_uniform_int(m), ref.uniform_int(m)
            calls += 1
            assert got == want, f"seed {seed}, call {calls}"
            assert src.words_generated == ref.words, f"seed {seed}, call {calls}"


@pytest.mark.parametrize("seed", [0, 2**64 - 1, -8 * _GOLDEN % 2**64])
def test_lane_kernel_matches_scalar_reference(seed):
    # blocks of 256 words end at words 256, 512, 768 and 1024; the third
    # seed's 8th state is 0, so its first block wraps mid-batch
    _assert_same_stream(seed, _MIXED_SCRIPT, 1100)


@given(st.integers(min_value=-2**70, max_value=2**70),
       st.lists(st.one_of(st.none(), st.integers(min_value=1, max_value=2**140)),
                min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_lane_kernel_matches_scalar_reference_any_script(seed, script):
    _assert_same_stream(seed, script, 600)


# --- descending_ints, the partial-shuffle kernel ---

def _assert_kernel_matches_scalar(seed: int, calls) -> None:
    """descending_ints(n, k) on one source against next_uniform_int with
    bounds n, n - 1, ..., n - k + 1 on a twin, call after call."""
    src, twin = RandomSource(seed), RandomSource(seed)
    for n, k in calls:
        got = src.descending_ints(n, k)
        assert got == [twin.next_uniform_int(m) for m in range(n, n - k, -1)], (seed, n, k)
        assert src.words_generated == twin.words_generated, (seed, n, k)
        assert src.stats == twin.stats, (seed, n, k)


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_descending_ints_matches_scalar_reference(seed):
    # bounds crossing 2^j (j = 64 crosses from wide to 64-bit bounds too),
    # n = k down to bound 1, k = 0, and a wide run that ends on 2^64
    calls = [(2**j + 3, 8) for j in range(3, 65)]
    calls += [(6, 6), (1, 1), (9, 0), (0, 0), (2**64 + 4, 10), (2**130, 3)]
    _assert_kernel_matches_scalar(seed, calls)


def test_descending_ints_spans_the_first_refill():
    # a fresh source mixes a block of 256 words, so the first call reads past it
    _assert_kernel_matches_scalar(3, [(1000, 300), (2**33 + 1, 30), (17, 17)])


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.lists(st.tuples(st.one_of(st.integers(min_value=0, max_value=12),
                                    st.integers(min_value=2**62, max_value=2**66)),
                          st.integers(min_value=0, max_value=40)),
                min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_descending_ints_matches_scalar_reference_any_calls(seed, calls):
    _assert_kernel_matches_scalar(seed, [(n, min(n, k)) for n, k in calls])


def test_descending_ints_rejects_bad_counts():
    src = RandomSource(5)
    for n, k in ((3, 4), (0, 1), (5, -1)):
        with pytest.raises(ValueError):
            src.descending_ints(n, k)
    assert src.words_generated == 0 and src.stats == DrawStats()


def test_descending_ints_generic_path_on_scripted_source():
    src = ScriptedSource([int_word(2, 5), int_word(1, 4), int_word(3, 3)])
    assert src.descending_ints(5, 3) == [2, 1, 3]
    assert src.stats == DrawStats(uniform_int=3)
    # each word is read against its own, shrinking bound: the word of 5 at
    # bound 5 reads as 3 at bound 4, and the count is checked before any draw
    assert ScriptedSource([int_word(5, 5)] * 2).descending_ints(5, 2) == [5, 3]
    with pytest.raises(ValueError):
        ScriptedSource([int_word(1, 1)]).descending_ints(1, 2)


# --- uniform_bytes, the byte batch ---

def _assert_bytes_match_generic(seed: int, calls) -> None:
    """RandomSource.uniform_bytes on one source against its definition,
    the bytes of next_uniform_int(2**64) - 1 per word, on a twin, with a
    bounded int between calls, call after call."""
    src, twin = RandomSource(seed), RandomSource(seed)
    for n in calls:
        got = src.uniform_bytes(n)
        want = b"".join((twin.next_uniform_int(2**64) - 1).to_bytes(8, "little")
                        for _ in range(-(-n // 8)))
        assert got == want[:n], (seed, n)
        assert len(got) == n
        assert src.next_uniform_int(7) == twin.next_uniform_int(7), (seed, n)
        assert src.words_generated == twin.words_generated, (seed, n)
        assert src.stats == twin.stats, (seed, n)


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_uniform_bytes_matches_generic(seed):
    # blocks hold 256 words: 8 * 256 - 1 and 8 * 256 + 1 bytes cross one
    # block boundary each, 2124 and 5000 bytes span several blocks, and
    # 8 * 15 + 1 bytes use one byte of their last word
    _assert_bytes_match_generic(seed, [0, 1, 8, 8 * 256 - 1, 8 * 256 + 1, 2124, 3, 5000,
                                       8 * 15 + 1])


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.lists(st.integers(min_value=0, max_value=3000), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_uniform_bytes_matches_generic_any_calls(seed, calls):
    _assert_bytes_match_generic(seed, calls)


def test_uniform_bytes_are_little_endian_words():
    # the bytes of RandomSource(0) are those of its first words, low byte first
    data = RandomSource(0).uniform_bytes(8 * len(WORDS_SEED_0))
    assert [int.from_bytes(data[i:i + 8], "little") for i in range(0, len(data), 8)] == WORDS_SEED_0


def test_uniform_bytes_generic_path_on_scripted_source():
    src = ScriptedSource([0x0807060504030201, 2**64 - 1])
    assert src.uniform_bytes(11) == bytes([1, 2, 3, 4, 5, 6, 7, 8, 255, 255, 255])
    assert src.stats == DrawStats(uniform_int=2)
    with pytest.raises(ValueError):
        RandomSource(1).uniform_bytes(-1)
    with pytest.raises(ValueError):
        ScriptedSource([]).uniform_bytes(-1)


# --- laws: each test asserts its srswor.suite row, at the quick scale and seed 1 ---

def test_uniform_int_equidistribution_m6(quick_law):
    quick_law("uniform-int-equidist-m6")


def test_uniform_int_beyond_one_word_equidistribution(quick_law):
    quick_law("uniform-int-thirds-m3x2^64")
