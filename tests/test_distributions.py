"""Distribution sampler tests: exactness properties, edge cases and draw
counts.  Their laws are rows of the verify table (srswor.suite)."""

import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from srswor.distributions import (
    bernoulli,
    beta,
    beta_binomial,
    binomial,
    hypergeometric,
    _fc,
    _log_fact_core,
)
from srswor.rng import DrawStats, RandomSource, ScriptedSource
from srswor.statcheck import hypergeom_law


def _reals(*values):
    """A source whose real draws read as values, each floored to 2^-53."""
    return ScriptedSource([ScriptedSource.real_word(u) for u in values])


# --- argument validation ---

def test_beta_params_validation():
    src = RandomSource(4)
    assert beta(src, 1.0, 0.0) == 1.0
    assert 0.0 < beta(src, 2.5, 3.0) < 1.0
    for alpha, beta_shape in ((0.0, 1.0), (-1.0, 1.0), (1.0, -0.5), (math.nan, 1.0),
                              (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
                              (3.0, math.inf), (1.0, 0.5), (3.0, 0.5), (2.0, 1e-300)):
        with pytest.raises(ValueError):
            beta(src, alpha, beta_shape)


def test_hypergeom_params_validation():
    src = RandomSource(5)
    assert hypergeometric(src, 0, 5, 0) == 0
    assert hypergeometric(src, 5, 5, 5) == 5
    assert hypergeom_law(0, 5, 0) == (0, [1.0])
    assert hypergeom_law(5, 5, 5) == (5, [1.0])
    for v, n, k in ((6, 5, 2), (-1, 5, 2), (2, 5, 6), (2, 5, -1), (0, -1, 0)):
        with pytest.raises(ValueError):
            hypergeometric(src, v, n, k)
        with pytest.raises(ValueError):
            hypergeom_law(v, n, k)


# --- bernoulli ---

def test_bernoulli_edges():
    # returns a bit, not a bool
    src = _reals(0.0, 0.999)
    assert bernoulli(src, 0.7) == 1
    assert bernoulli(src, 0.7) == 0


def test_bernoulli_p_zero_and_one():
    src = RandomSource(1)
    assert all(bernoulli(src, 0.0) == 0 for _ in range(50))
    assert all(bernoulli(src, 1.0) == 1 for _ in range(50))


def test_bernoulli_counts_stats():
    src = RandomSource(2)
    bernoulli(src, 0.5)
    assert src.stats.bernoulli == 1
    assert src.stats.uniform_real == 1


# --- beta ---

def test_beta_closed_form_alpha1():
    # alpha=1: X = 1 - U^(1/beta). U=0.5, beta=2 gives 1 - sqrt(1/2).
    src = _reals(0.5)
    x = beta(src, 1.0, 2.0)
    assert x == 0.2928932188134524


def test_beta_degenerate_beta0_is_exactly_one():
    src = RandomSource(3)
    for a in (1.0, 2.0, 5.0):
        assert beta(src, a, 0.0) == 1.0
    # no uniforms consumed on the degenerate branch
    assert src.stats == DrawStats(beta=3)


def test_beta_alpha_below_one_rejected():
    src = RandomSource(4)
    with pytest.raises(ValueError):
        beta(src, 0.5, 1.0)


def test_beta_in_open_unit_interval():
    src = RandomSource(5)
    for a, b in ((1.0, 4.0), (3.0, 2.0), (6.0, 1.0)):
        for _ in range(500):
            x = beta(src, a, b)
            assert 0.0 < x < 1.0


@pytest.mark.parametrize("alpha, b", [(3.0, 2.0), (201, 10**7 - 200)])
def test_beta_bb_uniforms_per_draw(alpha, b):
    # BB accepts a pair of uniforms about 9 times in 10
    src = RandomSource(79)
    for _ in range(20000):
        beta(src, alpha, b)
    assert src.stats.uniform_real <= 2.5 * 20000


def test_beta_extreme_shapes_stay_in_unit_interval():
    # BB's constant and draw are formed so that no step overflows; the
    # textbook B = sqrt((s - 2)/(2ab - s)) divides by zero at each of these
    src = RandomSource(83)
    for alpha, b in ((2.0, 1e308), (1e154, 1e155), (1e300, 1e300), (5, 2**1023),
                     (2**1023, 5), (1e308, 1e308)):
        for _ in range(200):
            assert 0.0 < beta(src, alpha, b) <= 1.0
    # integer shapes past the float range raise where a draw needs the float
    for alpha, b in ((3, 2**1100), (2**1100, 3), (1, 2**1100), (2**1100, 1)):
        with pytest.raises(OverflowError):
            beta(src, alpha, b)
    assert beta(src, 2**1100, 0) == 1.0


def test_beta_bb_retries_zero_uniforms():
    # u1 = 0, then u2 = 0, would each take log(0); BB draws a fresh pair.
    # At u1 = 1/2 the proposal is the mode, W = a, accepted by the squeeze.
    src = _reals(0.0, 0.3, 0.5, 0.0, 0.5, 0.5)
    x = beta(src, 3.0, 2.0)
    assert 0.0 < x <= 1.0 and math.isclose(x, 0.6)
    assert src.stats.uniform_real == 6


# --- binomial ---

def test_binomial_edge_cases():
    src = RandomSource(6)
    assert binomial(src, 0, 0.5) == 0
    assert binomial(src, 10, 0.0) == 0
    assert binomial(src, 10, 1.0) == 10
    # degenerate branches consume no uniforms
    assert src.stats == DrawStats(binomial=3)


def test_binomial_validation():
    src = RandomSource(7)
    with pytest.raises(ValueError):
        binomial(src, -1, 0.5)
    with pytest.raises(ValueError):
        binomial(src, 5, -0.1)
    with pytest.raises(ValueError):
        binomial(src, 5, 1.5)


def test_binomial_support():
    src = RandomSource(8)
    for n, p in [(1, 0.5), (10, 0.3), (100, 0.4), (1000, 0.01), (500, 0.97)]:
        for _ in range(300):
            c = binomial(src, n, p)
            assert 0 <= c <= n


@given(
    st.integers(min_value=0, max_value=10**12),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=150, deadline=None)
def test_binomial_support_property(n, p, seed):
    c = binomial(RandomSource(seed), n, p)
    assert 0 <= c <= n


def test_log_fact_ratio_accuracy():
    # log(a!/b!) = (a - b) log(b + 1) + core + fc(a) - fc(b), against sums of
    # logs, on both sides of |a - b| = (b + 1) / 10, where the core switches formulas
    for a, b in [(0, 7), (9, 10), (12, 3), (700, 400), (10**6, 10**6 + 13),
                 (10**9, 10**9 - 123), (3 * 10**9, 3 * 10**9 - 5000),
                 (2**53 - 1, 2**53 - 200), (2**64 + 1, 2**64 - 5000),
                 (2**80 + 7, 2**80 - 20000), (10**30, 10**30 - 5000)]:
        lo, hi = min(a, b), max(a, b)
        reference = math.fsum(math.log(i) for i in range(lo + 1, hi + 1))
        if a < b:
            reference = -reference
        got = (a - b) * math.log(b + 1) + _log_fact_core(a, b) + _fc(a) - _fc(b)
        assert got == pytest.approx(reference, rel=1e-13, abs=1e-10)


def test_fc_accuracy():
    # fc(k) = log k! - (k + 1/2) log(k + 1) + (k + 1) - log sqrt(2 pi), in
    # 50-digit decimals, across the switch from the table to the series
    pi = Decimal("3.14159265358979323846264338327950288419716939937510")
    for k in range(61):
        with localcontext() as ctx:
            ctx.prec = 50
            reference = (sum((Decimal(i).ln() for i in range(2, k + 1)), Decimal(0))
                         - (k + Decimal("0.5")) * Decimal(k + 1).ln() + (k + 1)
                         - (2 * pi).ln() / 2)
        assert abs(_fc(k) - float(reference)) <= 1e-13, k


# n*min(p, 1-p) at 29, 30 and 31 around the inversion/BTRD switch; n at
# 2^53 - 1 and 2^53, either side of the largest n whose integers are all floats.
BINOMIAL_BOUNDARY_CASES = [
    (116, 0.25), (120, 0.25), (124, 0.25),
    (116, 0.75), (120, 0.75), (124, 0.75),
    (2**53 - 1, 0.3), (2**53 - 1, 0.7), (2**53 - 1, 2.0**-48),
    (2**53, 0.3), (2**53, 0.7), (2**53, 2.0**-48),
]


@pytest.mark.parametrize("n, p", BINOMIAL_BOUNDARY_CASES)
def test_binomial_branch_boundaries(n, p):
    sd = math.sqrt(n * p * (1 - p))
    for seed in range(20):
        c = binomial(RandomSource(seed), n, p)
        assert 0 <= c <= n
        assert abs(c - n * p) <= 10 * sd + 1
        assert binomial(RandomSource(seed), n, p) == c


# v k at 30 n and 30 n + 1 after the symmetries, around the inversion/HRUA
# switch at mean 30, directly and through both symmetries; min(v, k) at 9
# and 10, means near 5, on the inversion route either side of ten steps;
# n at 2^53 - 1 and 2^53, either side of the largest n whose integers are
# all floats.
HYPERGEOMETRIC_BOUNDARY_CASES = [
    (60, 900, 450), (840, 900, 450), (450, 900, 60), (450, 900, 840),
    (67, 900, 403), (833, 900, 403), (67, 900, 497), (403, 900, 67),
    (9, 1000, 500), (10, 1000, 500), (500, 1000, 9), (500, 1000, 10),
    (991, 1000, 500), (990, 1000, 500), (500, 1000, 991), (500, 1000, 990),
    (9, 20, 10), (10, 20, 10),
    (2**52, 2**53 - 1, 3000), (9, 2**53 - 1, 2**52), (2**53 - 11, 2**53 - 1, 2**52),
    (2**52, 2**53, 3000), (9, 2**53, 2**52), (2**53 - 10, 2**53, 2**52),
]


def test_hypergeometric_switches_at_mean_30():
    # inversion takes one uniform a draw, HRUA at least two
    for i, (v, n, k) in enumerate(HYPERGEOMETRIC_BOUNDARY_CASES[:8]):
        assert min(v, n - v) * min(k, n - k) == 30 * n + (i >= 4)
        src = RandomSource(i)
        hypergeometric(src, v, n, k)
        assert (src.stats.uniform_real > 1) == (i >= 4), (v, n, k)


@pytest.mark.parametrize("v, n, k", HYPERGEOMETRIC_BOUNDARY_CASES)
def test_hypergeometric_branch_boundaries(v, n, k):
    lo, hi = max(0, k - (n - v)), min(v, k)
    for seed in range(20):
        c = hypergeometric(RandomSource(seed), v, n, k)
        assert lo <= c <= hi
        assert hypergeometric(RandomSource(seed), v, n, k) == c


# --- beta-binomial ---

def test_beta_binomial_validation():
    src = RandomSource(9)
    for a, b, n in ((0.5, 1.0, 5), (1.0, 0.5, 5), (1.0, 1.0, -1)):
        with pytest.raises(ValueError):
            beta_binomial(src, a, b, n)


def test_beta_binomial_support():
    src = RandomSource(10)
    for a, b, n in [(1.0, 1.0, 5), (1.0, 3.0, 8), (2.0, 2.0, 6)]:
        for _ in range(500):
            c = beta_binomial(src, a, b, n)
            assert 0 <= c <= n


def test_beta_binomial_shapes_must_be_positive():
    # both shapes are positive integers; the degenerate beta=0 point mass
    # only exists on the continuous Beta side.
    src = RandomSource(11)
    with pytest.raises(ValueError):
        beta_binomial(src, 1.0, 0.0, 7)


def test_beta_binomial_alpha1_stats_families():
    # closed-form route: no beta draw is recorded, one binomial is.
    src = RandomSource(12)
    beta_binomial(src, 1.0, 2.0, 9)
    assert src.stats.beta_binomial == 1
    assert src.stats.beta == 0
    assert src.stats.binomial == 1


# --- hypergeometric ---

def test_hypergeom_pmf_oracle():
    # against exact binomial-coefficient ratios
    for v, n, k in [(2, 4, 2), (5, 12, 7), (3, 10, 4), (1, 6, 3), (5, 6, 4), (0, 9, 4)]:
        lo = max(0, k - (n - v))
        exact = [math.comb(v, c) * math.comb(n - v, k - c) / math.comb(n, k)
                 for c in range(lo, min(v, k) + 1)]
        assert hypergeom_law(v, n, k) == (lo, pytest.approx(exact, rel=1e-12))


def test_hypergeom_pmf_outside_support():
    # the support is max(0, k - (n - v)) .. min(v, k); c cannot exceed draws either
    for (v, n, k), support in [((2, 6, 3), (0, 3)), ((5, 6, 2), (1, 2))]:
        lo, probs = hypergeom_law(v, n, k)
        assert (lo, len(probs)) == support


def test_hypergeom_pmf_sums_to_one():
    for v, n, k in [(2, 4, 2), (5, 12, 7), (7, 20, 11), (0, 9, 4)]:
        total = math.fsum(hypergeom_law(v, n, k)[1])
        assert total == pytest.approx(1.0, abs=1e-12)


def test_hypergeometric_degenerate():
    src = RandomSource(13)
    # no successes in the population
    assert hypergeometric(src, 0, 8, 3) == 0
    # all successes
    assert hypergeometric(src, 8, 8, 3) == 3
    # draw nothing
    assert hypergeometric(src, 4, 8, 0) == 0
    # draw everything
    assert hypergeometric(src, 4, 8, 8) == 4


def test_hypergeometric_support():
    src = RandomSource(14)
    for v, n, k in [(2, 4, 2), (5, 12, 7), (3, 10, 4), (9, 30, 14)]:
        lo = max(0, k - (n - v))
        hi = min(v, k)
        for _ in range(400):
            c = hypergeometric(src, v, n, k)
            assert lo <= c <= hi


@given(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=150, deadline=None)
def test_hypergeometric_support_property(v, n, k, seed):
    v = min(v, n)
    k = min(k, n)
    c = hypergeometric(RandomSource(seed), v, n, k)
    assert max(0, k - (n - v)) <= c <= min(v, k)


def _splitmix_script(seed: int, words: int) -> ScriptedSource:
    """A ScriptedSource holding the first words of RandomSource(seed)'s stream:
    a draw that never accepts ends in ScriptExhaustedError, not a hang."""
    src = RandomSource(seed)
    return ScriptedSource([src.next_uniform_int(2**64) - 1 for _ in range(words)])


def test_hrua_returns_at_n_past_2_to_1023():
    # 2 (a + 1/2) is inf at a >= 2^1023; times a zero series tail it gave
    # nan, and HRUA then accepted no proposal
    assert _log_fact_core(2**1023, 2**1023) == 0.0
    n = int(1.9 * 2.0**1023)
    for v, k in ((2**520, 2**520), (2**511, 2**530)):
        src = _splitmix_script(1, 2000)
        for _ in range(200):
            assert 0 <= hypergeometric(src, v, n, k) <= min(v, k)


def test_hypergeometric_refuses_n_from_2_to_1024():
    # as binomial does: a draw that is not certain raises OverflowError,
    # by HRUA's route and inversion's, and draws nothing
    for v, k in ((2**53, 2**1023), (5, 7)):
        src = _splitmix_script(1, 2000)
        with pytest.raises(OverflowError):
            hypergeometric(src, v, 2**1024, k)
        assert (src.stats, src.words_generated) == (DrawStats(), 0)
    with pytest.raises(OverflowError):
        binomial(RandomSource(1), 2**1024, 0.5)
    assert hypergeometric(RandomSource(1), 0, 2**1024, 5) == 0
    assert hypergeometric(RandomSource(1), 3, 2**1030, 2**1030) == 3


# u = 1 - 2^-53 lies above the float CDF's total at these shapes; the
# inversion draws again, and the second uniform, 0.5, gives the median
@pytest.mark.parametrize("draw, args", [
    (binomial, (1000, 0.01)),
    (binomial, (10**6, 1e-5)),
    (hypergeometric, (9, 20, 10)),
    (hypergeometric, (10**5, 10**12, 3 * 10**8)),
])
def test_inversion_shortfall_draws_again(draw, args):
    src = _reals(1 - 2**-53, 0.5)
    assert draw(src, *args) == draw(_reals(0.5), *args)
    assert src.stats.uniform_real == 2


def test_hypergeometric_counts_stats_once():
    src = RandomSource(15)
    hypergeometric(src, 5, 12, 7)
    assert src.stats.hypergeometric == 1


def test_hypergeometric_draws_no_nested_family():
    # inversion and HRUA draw uniforms only, at every n
    src = RandomSource(16)
    cases = ((5, 12, 7), (500, 2000, 300), (2**52, 2**53, 200), (10**29, 10**30, 4000))
    for v, n, k in cases:
        hypergeometric(src, v, n, k)
    assert src.stats.hypergeometric == len(cases)
    assert src.stats.beta_binomial == src.stats.beta == src.stats.binomial == 0


# --- laws: each test asserts its srswor.suite row, at the quick scale and seed 1 ---

@pytest.mark.parametrize("b", [2.0 ** 60, 1e17])
def test_beta_alpha1_huge_beta_law(quick_law, b):
    quick_law({2.0 ** 60: "beta-ks-a1-b2^60", 1e17: "beta-ks-a1-b1e17"}[b])


@pytest.mark.parametrize("b", [2.0 ** 60, 1e17])
def test_beta_bb_huge_beta_law(quick_law, b):
    quick_law({2.0 ** 60: "beta-ks-a3-b2^60", 1e17: "beta-ks-a3-b1e17"}[b])


@pytest.mark.parametrize("alpha", [2, 6])
def test_beta_b1_route_law(quick_law, alpha):
    quick_law(f"beta-ks-a{alpha}-b1")


@pytest.mark.parametrize("alpha, b", [(5, 40), (40, 5)])
def test_beta_bb_law_both_orientations(quick_law, alpha, b):
    quick_law(f"beta-ks-a{alpha}-b{b}")


def test_binomial_inversion_route_pmf(quick_law):
    quick_law("binomial-pmf-n10-p0.3")


def test_beta_binomial_pmf_uniform_case(quick_law):
    quick_law("beta-binomial-uniform-1-1-5")


def test_beta_binomial_pmf_skewed_case(quick_law):
    quick_law("beta-binomial-pmf-1-3-5")


def test_beta_binomial_two_stage_case(quick_law):
    quick_law("beta-binomial-pmf-2-2-6")


def test_hypergeometric_matches_pmf(quick_law):
    quick_law("hypergeometric-pmf-2-4-2")


def test_beta_alpha1_quantiles(quick_law):
    quick_law("beta-quantile-ks-a1-b4")


def test_beta_bb_route_moments(quick_law):
    quick_law("beta-ks-a3-b2")


def test_binomial_split_route_mean_var(quick_law):
    quick_law("binomial-btrd-n400-p0.4")
