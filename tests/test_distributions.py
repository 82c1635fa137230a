"""Distribution sampler tests: exactness properties, edge cases, laws against
the statcheck oracle."""

import bisect
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
from srswor.statcheck import (
    beta_binomial_law,
    binomial_law,
    chi_square_gof,
    hypergeom_law,
    ks_gof,
)
from srswor.suite import pmf_law


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
    src = ScriptedSource([0.0, 0.999])
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
    src = ScriptedSource([0.5])
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


def test_beta_alpha1_quantiles():
    # For Beta(1, 4) the cdf is 1 - (1-x)^4; compare empirical quartiles.
    src = RandomSource(17)
    n = 40000
    xs = sorted(beta(src, 1.0, 4.0) for _ in range(n))
    for q in (0.25, 0.5, 0.75):
        theoretical = 1.0 - (1.0 - q) ** 0.25
        empirical = xs[int(q * n)]
        assert abs(empirical - theoretical) < 0.01


def _beta_cdf(alpha, b):
    """CDF of Beta(alpha, b) for integer alpha: the chance that at least alpha
    of N = alpha + b - 1 uniforms fall below x, with (1 - x)^m taken as
    exp(m log1p(-x)) so that it holds at huge b."""
    n = alpha + b - 1

    def cdf(x):
        total, coef = 0.0, 1.0
        for j in range(alpha):
            total += coef * x ** j * math.exp((n - j) * math.log1p(-x))
            coef *= (n - j) / (j + 1)
        return 1.0 - total
    return cdf


@pytest.mark.parametrize("b", [2.0 ** 60, 1e17])
def test_beta_alpha1_huge_beta_law(b):
    # past b of about 2^50, 1 - U**(1/b) rounds to 0 for almost every U;
    # the draws must still follow the exact CDF 1 - (1 - x)^b
    src = RandomSource(61)
    xs = [beta(src, 1.0, b) for _ in range(20000)]
    report = ks_gof(xs, _beta_cdf(1, b), alpha=0.001)
    assert report.passed, report


@pytest.mark.parametrize("b", [2.0 ** 60, 1e17])
def test_beta_bb_huge_beta_law(b):
    # Cheng's BB with its shapes 18 orders of magnitude apart
    src = RandomSource(67)
    xs = [beta(src, 3.0, b) for _ in range(20000)]
    report = ks_gof(xs, _beta_cdf(3, b), alpha=0.001)
    assert report.passed, report


@pytest.mark.parametrize("alpha", [2, 6])
def test_beta_b1_route_law(alpha):
    src = RandomSource(71)
    xs = [beta(src, float(alpha), 1.0) for _ in range(20000)]
    report = ks_gof(xs, lambda x: x ** alpha, alpha=0.001)
    assert report.passed, report
    assert src.stats.uniform_real == 20000


@pytest.mark.parametrize("alpha, b", [(5, 40), (40, 5)])
def test_beta_bb_law_both_orientations(alpha, b):
    # Beta(40, 5) is 1 - Beta(5, 40): the same method, the shapes swapped
    lower = _beta_cdf(5, 40)
    cdf = lower if alpha == 5 else lambda x: 1.0 - lower(1.0 - x)
    src = RandomSource(73)
    xs = [beta(src, float(alpha), float(b)) for _ in range(20000)]
    report = ks_gof(xs, cdf, alpha=0.001)
    assert report.passed, report


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
    src = ScriptedSource([0.0, 0.3, 0.5, 0.0, 0.5, 0.5])
    x = beta(src, 3.0, 2.0)
    assert 0.0 < x <= 1.0 and math.isclose(x, 0.6)
    assert src.stats.uniform_real == 6


def test_beta_bb_route_moments():
    # Beta(3, 2): mean 0.6, var 0.04. Loose 4-sigma-ish bounds.
    src = RandomSource(23)
    n = 50000
    xs = [beta(src, 3.0, 2.0) for _ in range(n)]
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / n
    assert abs(mean - 0.6) < 0.004
    assert abs(var - 0.04) < 0.003


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


def test_binomial_inversion_route_pmf():
    # n*min(p,1-p) small: the CDF inversion path
    report = pmf_law(lambda s: binomial(s, 10, 0.3), binomial_law(10, 0.3),
                     RandomSource(31), 60000, 0.001)
    assert report.passed, report


def test_binomial_split_route_mean_var():
    # n*p large enough to force the BTRD path.
    src = RandomSource(37)
    n, p, reps = 400, 0.4, 30000
    xs = [binomial(src, n, p) for _ in range(reps)]
    mean = sum(xs) / reps
    var = sum((x - mean) ** 2 for x in xs) / reps
    assert abs(mean - n * p) < 0.25
    assert abs(var - n * p * (1 - p)) < 4.0


@given(
    st.integers(min_value=0, max_value=10**12),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=150, deadline=None)
def test_binomial_support_property(n, p, seed):
    c = binomial(RandomSource(seed), n, p)
    assert 0 <= c <= n


def _law_report(draws, law):
    """Chi-square of draws against law = (lo, probs), the statcheck oracle's
    exact pmf of lo, lo + 1, ...

    Cells of equal width cover the law's mean +- 4 sd; the two tails beyond
    are pooled into one cell each.  Both are taken over offsets from lo, so
    a float keeps them exact to a fraction of a cell however large lo is.
    """
    lo, probs = law
    mean = sum(i * q for i, q in enumerate(probs))
    sd = math.sqrt(sum((i - mean) ** 2 * q for i, q in enumerate(probs)))
    left, right = math.floor(mean - 4 * sd), math.ceil(mean + 4 * sd)
    width = max(1, math.ceil((right - left + 1) / 60))
    edges = [0, *range(left, right + 1, width), right + 1, len(probs)]
    edges = sorted({min(max(e, 0), len(probs)) for e in edges})
    observed = [0] * (len(edges) - 1)
    for c in draws:
        assert 0 <= c - lo < len(probs), c
        observed[bisect.bisect_right(edges, c - lo) - 1] += 1
    return chi_square_gof(observed, [math.fsum(probs[a:b]) for a, b in zip(edges, edges[1:])],
                          alpha=0.001)


@pytest.mark.parametrize("n, p, seed", [
    (1000, 0.3, 61),
    (5000, 0.9, 67),
    (10**9, 0.4, 71),
    (2**53 + 1, 2.0**-45, 83),
    (2**64 + 1, 1 - 2.0**-50, 89),
    (10**30, 1e-27, 97),
])
def test_binomial_btrd_law(n, p, seed):
    # n*min(p, 1-p) > 30: the BTRD route, including the p > 0.5 reflection
    src = RandomSource(seed)
    reps = 40000
    draws = [binomial(src, n, p) for _ in range(reps)]
    report = _law_report(draws, binomial_law(n, p))
    assert report.passed, report
    # one binomial is 1.4-1.8 uniforms on this route, not O(log n) gamma pairs
    assert src.stats.uniform_real < 2 * reps


@pytest.mark.parametrize("v, n, k, seed", [
    (500, 2000, 300, 73),
    (10**9, 3 * 10**9, 1500, 79),
    (2**62, 2**64 + 1, 1500, 101),
    (10**29, 10**30, 4000, 103),
])
def test_hypergeometric_hrua_law(v, n, k, seed):
    src = RandomSource(seed)
    reps = 40000
    draws = [hypergeometric(src, v, n, k) for _ in range(reps)]
    report = _law_report(draws, hypergeom_law(v, n, k))
    assert report.passed, report
    assert src.stats.uniform_real < 4 * reps


@pytest.mark.parametrize("family, args, seed", [
    ("binomial", (10**300, 1e-290), 107),
    ("binomial", (2**1023, 0.5), 109),
    ("binomial", (2**1023 + 2**1000, 0.3), 113),
    ("hypergeometric", (10**40, 3 * 10**40, 10**39), 127),
    ("hypergeometric", (10**200, 3 * 10**200, 10**150), 131),
    ("hypergeometric", (10**300, 10**307, 10**306), 137),
])
def test_large_sd_law_is_normal(family, args, seed):
    # sd from 1e5 to 3e149: too wide for _law_report's walk, and normal to
    # within O(1/sd).  z = (c - mean) / sd with c - mean formed exactly.
    src = RandomSource(seed)
    reps = 20000
    if family == "binomial":
        n, p = args
        num, den = p.as_integer_ratio()
        num *= n
        sd = math.sqrt(n * p * (1 - p))
        draws = [binomial(src, n, p) for _ in range(reps)]
    else:
        v, n, k = args
        num, den = k * v, n
        sd = math.sqrt(k * (v / n) * (1 - v / n) * ((n - k) / (n - 1)))
        draws = [hypergeometric(src, v, n, k) for _ in range(reps)]
    zs = [(c * den - num) / den / sd for c in draws]
    report = ks_gof(zs, lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0)), alpha=0.001)
    assert report.passed, report


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
    with pytest.raises(ValueError):
        beta_binomial(src, 0.5, 1.0, 5)
    with pytest.raises(ValueError):
        beta_binomial(src, 1.0, 0.5, 5)
    with pytest.raises(ValueError):
        beta_binomial(src, 1.0, 1.0, -1)


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


def _assert_beta_binomial_law(a, b, m, seed):
    report = pmf_law(lambda s: beta_binomial(s, a, b, m), beta_binomial_law(a, b, m),
                     RandomSource(seed), 60000, 0.001)
    assert report.passed, report


def test_beta_binomial_pmf_uniform_case():
    _assert_beta_binomial_law(1, 1, 5, 41)  # uniform on {0..5}


def test_beta_binomial_pmf_skewed_case():
    _assert_beta_binomial_law(1, 3, 5, 43)  # closed-form beta quantile


def test_beta_binomial_two_stage_case():
    # alpha > 1 exercises the explicit beta draw, then the binomial stage
    _assert_beta_binomial_law(2, 2, 6, 47)


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


def test_hypergeometric_matches_pmf():
    report = pmf_law(lambda s: hypergeometric(s, 2, 4, 2), hypergeom_law(2, 4, 2),
                     RandomSource(53), 60000, 0.001)
    assert report.passed, report


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


@pytest.mark.parametrize("v, n, k, seed", [(40, 1000, 300, 59), (300, 1000, 960, 61)])
def test_hypergeometric_inversion_law_past_ten(v, n, k, seed):
    # min(v, k) = 40 after the symmetries, mean 12: the inversion route
    # with a support of 41 points, directly and through k -> n - k
    report = pmf_law(lambda s: hypergeometric(s, v, n, k), hypergeom_law(v, n, k),
                     RandomSource(seed), 60000, 0.001)
    assert report.passed, report


# u = 1 - 2^-53 lies above the float CDF's total at these shapes; the
# inversion draws again, and the second uniform, 0.5, gives the median
@pytest.mark.parametrize("draw, args", [
    (binomial, (1000, 0.01)),
    (binomial, (10**6, 1e-5)),
    (hypergeometric, (9, 20, 10)),
    (hypergeometric, (10**5, 10**12, 3 * 10**8)),
])
def test_inversion_shortfall_draws_again(draw, args):
    src = ScriptedSource([1 - 2**-53, 0.5])
    assert draw(src, *args) == draw(ScriptedSource([0.5]), *args)
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
