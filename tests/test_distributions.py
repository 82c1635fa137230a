"""Distribution sampler tests: exactness properties, edge cases, pmf oracles."""

import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from srswor.distributions import (
    BetaParams,
    HypergeomParams,
    bernoulli,
    beta,
    beta_binomial,
    binomial,
    hypergeometric,
    _fc,
    _log_fact_core,
)
from srswor.rng import RandomSource, ScriptedSource
from srswor.statcheck import chi_square_gof, hypergeom_pmf, ks_gof

# pmf reference values computed once with scipy and frozen. Parameter
# order for the hypergeometric is (successes, population, draws).
HYPERGEOM_PMF_CASES = {
    (2, 4, 2): [0.16666666666666666, 0.6666666666666666, 0.16666666666666666],
    (5, 12, 7): [
        0.0012626262626262627,
        0.04419191919191919,
        0.26515151515151514,
        0.4419191919191919,
        0.22095959595959594,
        0.026515151515151512,
    ],
    (3, 10, 4): [0.16666666666666666, 0.5, 0.3, 0.03333333333333333],
    (1, 6, 3): [0.5, 0.5],
}


# --- parameter containers ---

def test_beta_params_validation():
    BetaParams(1.0, 0.0)
    BetaParams(2.5, 3.0)
    with pytest.raises(ValueError):
        BetaParams(0.0, 1.0)
    with pytest.raises(ValueError):
        BetaParams(-1.0, 1.0)
    with pytest.raises(ValueError):
        BetaParams(1.0, -0.5)


def test_hypergeom_params_validation():
    HypergeomParams(0, 5, 0)
    HypergeomParams(5, 5, 5)
    with pytest.raises(ValueError):
        HypergeomParams(6, 5, 2)
    with pytest.raises(ValueError):
        HypergeomParams(-1, 5, 2)
    with pytest.raises(ValueError):
        HypergeomParams(2, 5, 6)


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
    x = beta(src, BetaParams(1.0, 2.0))
    assert x == 0.2928932188134524


def test_beta_degenerate_beta0_is_exactly_one():
    src = RandomSource(3)
    for a in (1.0, 2.0, 5.0):
        assert beta(src, BetaParams(a, 0.0)) == 1.0
    # no uniforms consumed on the degenerate branch
    assert src.draw_count == 0


def test_beta_alpha_below_one_rejected():
    src = RandomSource(4)
    with pytest.raises(ValueError):
        beta(src, BetaParams(0.5, 1.0))


def test_beta_in_open_unit_interval():
    src = RandomSource(5)
    for params in (BetaParams(1.0, 4.0), BetaParams(3.0, 2.0), BetaParams(6.0, 1.0)):
        for _ in range(500):
            x = beta(src, params)
            assert 0.0 < x < 1.0


def test_beta_alpha1_quantiles():
    # For Beta(1, 4) the cdf is 1 - (1-x)^4; compare empirical quartiles.
    src = RandomSource(17)
    n = 40000
    xs = sorted(beta(src, BetaParams(1.0, 4.0)) for _ in range(n))
    for q in (0.25, 0.5, 0.75):
        theoretical = 1.0 - (1.0 - q) ** 0.25
        empirical = xs[int(q * n)]
        assert abs(empirical - theoretical) < 0.01


def test_beta_gamma_route_moments():
    # Beta(3, 2): mean 0.6, var 0.04. Loose 4-sigma-ish bounds.
    src = RandomSource(23)
    n = 50000
    xs = [beta(src, BetaParams(3.0, 2.0)) for _ in range(n)]
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / n
    assert abs(mean - 0.6) < 0.004
    assert abs(var - 0.04) < 0.003


# --- binomial ---

def test_binomial_edge_cases():
    src = RandomSource(6)
    before = src.draw_count
    assert binomial(src, 0, 0.5) == 0
    assert binomial(src, 10, 0.0) == 0
    assert binomial(src, 10, 1.0) == 10
    # degenerate branches consume no uniforms
    assert src.draw_count == before


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
    # n*min(p,1-p) small: CDF inversion path. chi-square against the
    # frozen Binomial(10, 0.3) pmf, bound at the 0.999 quantile of chi2(10).
    pmf = [
        0.0282475249, 0.12106082099999989, 0.2334744405000001,
        0.26682793199999977, 0.2001209489999999, 0.10291934519999989,
        0.036756908999999956, 0.009001691999999992, 0.0014467004999999982,
        0.00013778099999999988, 5.9048999999999975e-06,
    ]
    src = RandomSource(31)
    reps = 60000
    counts = [0] * 11
    for _ in range(reps):
        counts[binomial(src, 10, 0.3)] += 1
    # pool the sparse upper tail into one cell
    obs = counts[:7] + [sum(counts[7:])]
    exp = [reps * q for q in pmf[:7]] + [reps * sum(pmf[7:])]
    stat = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
    assert stat < 24.322


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


def _law_report(draws, mode, ratio, lo, hi, mean, sd):
    """Chi-square of draws against the pmf with f(c+1)/f(c) = ratio(c) on [lo, hi].

    The pmf is built by walking out from the mode until the mass is below
    1e-20 of the mode's, independently of the generators' log-factorial
    arithmetic.  Cells of equal width cover mean +- 4 sd; the two tails
    beyond are pooled into one cell each.
    """
    left, right = math.floor(mean - 4 * sd), math.ceil(mean + 4 * sd)
    width = max(1, math.ceil((right - left + 1) / 60))
    cells = (right - left) // width + 3

    def cell(c):
        if c < left:
            return 0
        if c > right:
            return cells - 1
        return 1 + (c - left) // width

    mass = [0.0] * cells
    mass[cell(mode)] += 1.0
    for step in (1, -1):
        f, c = 1.0, mode
        while f > 1e-20 and lo <= c + step <= hi:
            f = f * ratio(c) if step == 1 else f / ratio(c - 1)
            c += step
            mass[cell(c)] += f
    assert lo <= min(draws) and max(draws) <= hi
    observed = [0] * cells
    for c in draws:
        observed[cell(c)] += 1
    keep = [i for i, m in enumerate(mass) if m > 0.0]
    total = math.fsum(mass)
    return chi_square_gof([observed[i] for i in keep], [mass[i] / total for i in keep],
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
    report = _law_report(draws, math.floor((n + 1) * p),
                         lambda c: (n - c) / (c + 1) * p / (1 - p),
                         0, n, n * p, math.sqrt(n * p * (1 - p)))
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
    params = HypergeomParams(v, n, k)
    src = RandomSource(seed)
    reps = 40000
    draws = [hypergeometric(src, params) for _ in range(reps)]
    p = v / n
    report = _law_report(draws, (k + 1) * (v + 1) // (n + 2),
                         lambda c: (v - c) * (k - c) / ((c + 1) * (n - v - k + c + 1)),
                         max(0, k - (n - v)), min(v, k),
                         k * p, math.sqrt(k * p * (1 - p) * (n - k) / (n - 1)))
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
        draws = [hypergeometric(src, HypergeomParams(v, n, k)) for _ in range(reps)]
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


# min(v, k) at 9 and 10 around the inversion/HRUA switch, directly and
# through both symmetries; n at 2^53 - 1 and 2^53, either side of the
# largest n whose integers are all floats.
HYPERGEOMETRIC_BOUNDARY_CASES = [
    (9, 1000, 500), (10, 1000, 500), (500, 1000, 9), (500, 1000, 10),
    (991, 1000, 500), (990, 1000, 500), (500, 1000, 991), (500, 1000, 990),
    (9, 20, 10), (10, 20, 10),
    (2**52, 2**53 - 1, 3000), (9, 2**53 - 1, 2**52), (2**53 - 11, 2**53 - 1, 2**52),
    (2**52, 2**53, 3000), (9, 2**53, 2**52), (2**53 - 10, 2**53, 2**52),
]


@pytest.mark.parametrize("v, n, k", HYPERGEOMETRIC_BOUNDARY_CASES)
def test_hypergeometric_branch_boundaries(v, n, k):
    params = HypergeomParams(v, n, k)
    lo, hi = max(0, k - (n - v)), min(v, k)
    for seed in range(20):
        c = hypergeometric(RandomSource(seed), params)
        assert lo <= c <= hi
        assert hypergeometric(RandomSource(seed), params) == c


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


def test_beta_binomial_pmf_uniform_case():
    # BetaBinomial(1, 1, n) is uniform on {0..n}.
    src = RandomSource(41)
    n, reps = 5, 60000
    counts = [0] * (n + 1)
    for _ in range(reps):
        counts[beta_binomial(src, 1.0, 1.0, n)] += 1
    expected = reps / (n + 1)
    stat = sum((c - expected) ** 2 / expected for c in counts)
    assert stat < 20.515  # chi2(5) 0.999 quantile


def test_beta_binomial_pmf_skewed_case():
    # frozen BetaBinomial(1, 3, 5) pmf
    pmf = [
        0.3750000000000001, 0.2678571428571428, 0.17857142857142858,
        0.10714285714285714, 0.05357142857142861, 0.017857142857142867,
    ]
    src = RandomSource(43)
    reps = 60000
    counts = [0] * 6
    for _ in range(reps):
        counts[beta_binomial(src, 1.0, 3.0, 5)] += 1
    stat = sum((c - reps * q) ** 2 / (reps * q) for c, q in zip(counts, pmf))
    assert stat < 20.515


def test_beta_binomial_two_stage_case():
    # alpha>1 exercises the explicit beta draw then binomial stage.
    pmf = [
        0.08333333333333333, 0.1428571428571429, 0.17857142857142846,
        0.19047619047619033, 0.17857142857142846, 0.1428571428571429,
        0.08333333333333333,
    ]
    src = RandomSource(47)
    reps = 60000
    counts = [0] * 7
    for _ in range(reps):
        counts[beta_binomial(src, 2.0, 2.0, 6)] += 1
    stat = sum((c - reps * q) ** 2 / (reps * q) for c, q in zip(counts, pmf))
    assert stat < 22.458  # chi2(6) 0.999 quantile


def test_beta_binomial_alpha1_stats_families():
    # closed-form route: no beta draw is recorded, one binomial is.
    src = RandomSource(12)
    beta_binomial(src, 1.0, 2.0, 9)
    assert src.stats.beta_binomial == 1
    assert src.stats.beta == 0
    assert src.stats.binomial == 1


# --- hypergeometric ---

def test_hypergeom_pmf_oracle():
    for (v, n, k), expected in HYPERGEOM_PMF_CASES.items():
        params = HypergeomParams(v, n, k)
        for c, q in enumerate(expected):
            assert hypergeom_pmf(params, c) == pytest.approx(q, rel=1e-12)


def test_hypergeom_pmf_outside_support():
    params = HypergeomParams(2, 6, 3)
    assert hypergeom_pmf(params, -1) == 0.0
    assert hypergeom_pmf(params, 3) == 0.0
    # c cannot exceed draws either
    assert hypergeom_pmf(HypergeomParams(5, 6, 2), 3) == 0.0


def test_hypergeom_pmf_sums_to_one():
    for v, n, k in [(2, 4, 2), (5, 12, 7), (7, 20, 11), (0, 9, 4)]:
        params = HypergeomParams(v, n, k)
        total = math.fsum(hypergeom_pmf(params, c) for c in range(k + 1))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_hypergeometric_degenerate():
    src = RandomSource(13)
    # no successes in the population
    assert hypergeometric(src, HypergeomParams(0, 8, 3)) == 0
    # all successes
    assert hypergeometric(src, HypergeomParams(8, 8, 3)) == 3
    # draw nothing
    assert hypergeometric(src, HypergeomParams(4, 8, 0)) == 0
    # draw everything
    assert hypergeometric(src, HypergeomParams(4, 8, 8)) == 4


def test_hypergeometric_support():
    src = RandomSource(14)
    for v, n, k in [(2, 4, 2), (5, 12, 7), (3, 10, 4), (9, 30, 14)]:
        lo = max(0, k - (n - v))
        hi = min(v, k)
        for _ in range(400):
            c = hypergeometric(src, HypergeomParams(v, n, k))
            assert lo <= c <= hi


def test_hypergeometric_matches_pmf():
    # empirical law against the frozen (2,4,2) pmf
    pmf = HYPERGEOM_PMF_CASES[(2, 4, 2)]
    src = RandomSource(53)
    reps = 60000
    counts = [0, 0, 0]
    for _ in range(reps):
        counts[hypergeometric(src, HypergeomParams(2, 4, 2))] += 1
    stat = sum((c - reps * q) ** 2 / (reps * q) for c, q in zip(counts, pmf))
    assert stat < 13.816  # chi2(2) 0.999 quantile


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
    c = hypergeometric(RandomSource(seed), HypergeomParams(v, n, k))
    assert max(0, k - (n - v)) <= c <= min(v, k)


def test_hypergeometric_counts_stats_once():
    src = RandomSource(15)
    hypergeometric(src, HypergeomParams(5, 12, 7))
    assert src.stats.hypergeometric == 1


def test_hypergeometric_draws_no_nested_family():
    # inversion and HRUA draw uniforms only, at every n
    src = RandomSource(16)
    cases = (HypergeomParams(5, 12, 7), HypergeomParams(500, 2000, 300),
             HypergeomParams(2**52, 2**53, 200), HypergeomParams(10**29, 10**30, 4000))
    for params in cases:
        hypergeometric(src, params)
    assert src.stats.hypergeometric == len(cases)
    assert src.stats.beta_binomial == src.stats.beta == src.stats.binomial == 0
