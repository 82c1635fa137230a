"""Statistical machinery tests: tail probabilities, pooling, pmfs, calibration."""

import ast
import math
import pathlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from srswor import statcheck
from srswor.rng import RandomSource
from srswor.samplers import fisher_yates_sample
from srswor.statcheck import (
    POOL_THRESHOLD,
    _pool_cells,
    beta_binomial_law,
    binomial_law,
    chi2_sf,
    chi_square_gof,
    chi_square_two_sample,
    expected_hash_occupancy,
    expected_membership_draws,
    hypergeom_law,
    kolmogorov_sf,
    ks_gof,
    normal_sf_two_sided,
)
from srswor.suite import pmf_law, subset_law

# chi-square upper tails frozen from an independent implementation
CHI2_SF_CASES = [
    (3.841, 1, 0.050013683763956804),
    (16.0, 1, 6.334248366623988e-05),
    (25.0, 10, 0.005345505487134069),
    (123.4, 99, 0.048902311511807336),
    (0.5, 3, 0.9188914116546758),
    (7.779, 4, 0.10001751571024528),
]

# Kolmogorov distribution upper tails, same provenance
KOLMOGOROV_SF_CASES = [
    (0.5, 0.9639452436648751),
    (0.8, 0.5441424115741981),
    (1.0, 0.26999967167735456),
    (1.5, 0.022217962616525127),
    (2.0, 0.0006709252557796953),
]


def test_chi2_sf_reference_values():
    for stat, dof, expected in CHI2_SF_CASES:
        assert chi2_sf(stat, dof) == pytest.approx(expected, rel=1e-12)


def test_chi2_sf_edges():
    assert chi2_sf(0.0, 5) == pytest.approx(1.0, abs=1e-12)
    assert chi2_sf(1e4, 2) < 1e-100


def test_kolmogorov_sf_reference_values():
    for lam, expected in KOLMOGOROV_SF_CASES:
        assert kolmogorov_sf(lam) == pytest.approx(expected, rel=1e-10)


def test_kolmogorov_sf_small_lambda_saturates():
    assert kolmogorov_sf(0.1) == 1.0
    assert kolmogorov_sf(0.0) == 1.0


# --- goodness of fit ---

def test_gof_hand_computed_statistic():
    # (30, 70) against (1/2, 1/2): chi2 = 2 * 20^2/50 = 16 on 1 dof
    statistic, p = chi_square_gof([30, 70], [0.5, 0.5])
    assert statistic == pytest.approx(16.0)
    assert len(_pool_cells([30, 70], [50.0, 50.0], POOL_THRESHOLD)[1]) == 2  # dof 1
    assert p == pytest.approx(6.334248366623988e-05, rel=1e-9)


def test_gof_passes_on_exact_fit():
    assert chi_square_gof([50, 50], [0.5, 0.5]) == (0.0, 1.0)


def test_gof_pooling_merges_sparse_cells():
    # two tiny trailing cells get pooled: 4 cells at p=(0.6,0.3,0.05,0.05)
    # with 60 observations leaves expected (36, 18, 3, 3) -> pool last two
    assert len(_pool_cells([36, 18, 3, 3], [36.0, 18.0, 3.0, 3.0], POOL_THRESHOLD)[1]) == 3
    assert chi_square_gof([36, 18, 3, 3], [0.6, 0.3, 0.05, 0.05])[0] == pytest.approx(0.0)


def test_gof_trailing_remainder_joins_last_cell():
    # expected (95, 5): both cells meet the threshold; a remainder below it
    # at the end folds into the previous pool
    assert len(_pool_cells([95, 5], [95.0, 5.0], POOL_THRESHOLD)[1]) == 2
    assert _pool_cells([90, 6, 4], [90.0, 6.0, 4.0], POOL_THRESHOLD) == ([90, 10], [90, 10])


def test_gof_errors():
    with pytest.raises(ValueError):
        chi_square_gof([1, 2, 3], [0.5, 0.5])
    with pytest.raises(ValueError):
        chi_square_gof([1, 2], [0.7, 0.0])
    with pytest.raises(ValueError):
        chi_square_gof([1, 2], [0.7, 0.2])
    with pytest.raises(ValueError):
        chi_square_gof([0, 0], [0.5, 0.5])
    with pytest.raises(ValueError):
        # everything pools into one cell
        chi_square_gof([3, 2], [0.5, 0.5])


def test_two_sample_identical_counts_pass():
    assert chi_square_two_sample([100, 200, 300], [100, 200, 300]) == (0.0, 1.0)


def test_two_sample_detects_difference():
    assert chi_square_two_sample([900, 100], [100, 900])[1] < 1e-50


def test_two_sample_drops_empty_cells():
    # the empty middle cell is dropped, not pooled: two cells, dof 1
    assert len(_pool_cells([50, 50], [55.0, 45.0], POOL_THRESHOLD)[1]) == 2
    statistic, p = chi_square_two_sample([50, 0, 50], [60, 0, 40])
    assert p == chi2_sf(statistic, 1)


def test_two_sample_errors():
    with pytest.raises(ValueError):
        chi_square_two_sample([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        chi_square_two_sample([0, 0], [1, 2])


def test_gof_calibration_under_null():
    # p-values should be roughly uniform when the null holds: run many
    # small gof tests on truly uniform draws and check the rejection rate
    # at alpha=0.05 lands near 0.05
    src = RandomSource(404)
    rejected = 0
    trials = 400
    for _ in range(trials):
        counts = [0] * 8
        for _ in range(400):
            counts[src.next_uniform_int(8) - 1] += 1
        rejected += chi_square_gof(counts, [0.125] * 8)[1] < 0.05
    # Binomial(400, 0.05): mean 20, sd ~4.36; allow 4.5 sigma
    assert 1 <= rejected <= 40


# --- KS ---

def test_ks_detects_uniform_and_nonuniform():
    src = RandomSource(7)
    vals = [src.next_uniform_real() for _ in range(5000)]
    assert ks_gof(vals, lambda x: x)[1] >= 0.001
    assert ks_gof([v ** 3 for v in vals], lambda x: x)[1] < 0.001


def test_ks_requires_ten_values():
    with pytest.raises(ValueError):
        ks_gof([0.5] * 9, lambda x: x)


def test_ks_statistic_hand_case():
    # 10 evenly spread points: D = 0.05 against the uniform cdf
    vals = [(i + 0.5) / 10 for i in range(10)]
    assert ks_gof(vals, lambda x: x)[0] == pytest.approx(0.05)


# --- exact laws and cost formulas ---

def test_binomial_pmf_matches_reference():
    # Binomial(10, 0.3) frozen from an independent implementation
    assert binomial_law(10, 0.3) == (0, pytest.approx([
        0.0282475249, 0.12106082099999989, 0.2334744405000001,
        0.26682793199999977, 0.2001209489999999, 0.10291934519999989,
        0.036756908999999956, 0.009001691999999992, 0.0014467004999999982,
        0.00013778099999999988, 5.9048999999999975e-06,
    ], rel=1e-12))
    assert binomial_law(10, 0.0) == (0, [1.0])
    assert binomial_law(10, 1.0) == (10, [1.0])


def test_binomial_pmf_normalizes():
    assert abs(math.fsum(binomial_law(40, 0.37)[1]) - 1.0) <= 1e-12


def test_beta_binomial_pmf_uniform_special_case():
    # alpha = beta = 1 gives the discrete uniform on {0..n}
    assert beta_binomial_law(1, 1, 7) == (0, pytest.approx([0.125] * 8, rel=1e-12))


def test_beta_binomial_pmf_matches_reference():
    # BetaBinomial(1, 3, 5) and (2, 2, 6) frozen from an independent implementation
    assert beta_binomial_law(1, 3, 5) == (0, pytest.approx([
        0.3750000000000001, 0.2678571428571428, 0.17857142857142858,
        0.10714285714285714, 0.05357142857142861, 0.017857142857142867,
    ], rel=1e-12))
    assert beta_binomial_law(2, 2, 6) == (0, pytest.approx([
        0.08333333333333333, 0.1428571428571429, 0.17857142857142846,
        0.19047619047619033, 0.17857142857142846, 0.1428571428571429,
        0.08333333333333333,
    ], rel=1e-12))


def test_beta_binomial_pmf_errors_and_support():
    for bad in ((0, 1, 5), (1, 0, 5), (1, 1, -1)):
        with pytest.raises(ValueError):
            beta_binomial_law(*bad)
    lo, probs = beta_binomial_law(2, 2, 5)
    assert (lo, len(probs)) == (0, 6)


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60),
       st.integers(min_value=0, max_value=60))
@example(n=5, k=2, v=0)
@example(n=6, k=6, v=0)
@settings(max_examples=100, deadline=None)
def test_laws_match_exact_values(n, k, v):
    n, k, v = max(n, k), min(n, k), min(v, max(n, k))
    # P(smallest index of a uniform k-subset of [1, n] = x) = C(n-x, k-1) / C(n, k)
    exact = [math.comb(n - x, k - 1) / math.comb(n, k) for x in range(1, n - k + 2)]
    assert beta_binomial_law(1, k, n - k) == (0, pytest.approx(exact, rel=1e-13))
    lo = max(0, k - (n - v))
    exact = [math.comb(v, c) * math.comb(n - v, k - c) / math.comb(n, k)
             for c in range(lo, min(v, k) + 1)]
    assert hypergeom_law(v, n, k) == (lo, pytest.approx(exact, rel=1e-13))
    p = k / (n + 1)
    q = Fraction(p)
    exact = [float(math.comb(n, c) * q ** c * (1 - q) ** (n - c)) for c in range(n + 1)]
    assert binomial_law(n, p) == (0, pytest.approx(exact, rel=1e-13))


def test_exact_pmfs_at_large_n():
    # a value next to the mode is its exact rational value, correctly
    # rounded, even where the arguments pass 2^53
    lo, probs = hypergeom_law(2**52, 2**53, 2)
    assert probs[1 - lo] == float(Fraction(2**52 * 2**52, math.comb(2**53, 2)))
    assert probs[1 - lo] == pytest.approx(0.5, rel=1e-15)
    v, n, k = 10**9, 3 * 10**9, 5
    exact = Fraction(math.comb(v, 2) * math.comb(n - v, 3), math.comb(n, k))
    lo, probs = hypergeom_law(v, n, k)
    assert probs[2 - lo] == float(exact)


@pytest.mark.parametrize("law, args, mean, var", [
    (binomial_law, (10**6, 0.3), 10**6 * 0.3, 10**6 * 0.3 * 0.7),
    # k = 10^5, walked out until the pmf falls below 2^-1022
    (hypergeom_law, (5 * 10**8, 10**9, 10**5), 5 * 10**4,
     10**5 * 0.25 * (10**9 - 10**5) / (10**9 - 1)),
])
def test_wide_laws_hold_their_moments(law, args, mean, var):
    lo, probs = law(*args)
    got = math.fsum(i * q for i, q in enumerate(probs))
    assert lo + got == pytest.approx(mean, rel=1e-12)
    assert math.fsum((i - got) ** 2 * q for i, q in enumerate(probs)) == pytest.approx(
        var, rel=1e-9)
    assert min(probs) > 0.0


def test_binomial_law_edges_and_errors():
    assert binomial_law(0, 0.5) == (0, [1.0])
    for bad in ((-1, 0.5), (5, -0.1), (5, 1.5)):
        with pytest.raises(ValueError):
            binomial_law(*bad)


def test_pmf_law_refuses_values_outside_the_support():
    # one below the support must not wrap around to the last cell
    uniform6 = (1, [1 / 6] * 6)
    for shift, value in ((-1, 0), (1, 7)):
        with pytest.raises(ValueError, match=f"value {value} outside"):
            pmf_law(lambda s: s.next_uniform_int(6) + shift, uniform6, RandomSource(3), 60000)


def test_expected_membership_draws_value():
    # n=100, k=50: sum of 100/(100-t) for t in [0, 50)
    assert expected_membership_draws(100, 50) == pytest.approx(
        68.8172179310195, rel=1e-12
    )
    assert expected_membership_draws(10, 0) == 0.0
    assert expected_membership_draws(10, 1) == 1.0


def test_expected_membership_draws_k_equals_n():
    # collecting all n items is the coupon collector sum n * H_n
    h5 = math.fsum(1 / j for j in range(1, 6))
    assert expected_membership_draws(5, 5) == pytest.approx(5 * h5, rel=1e-12)


def test_expected_hash_occupancy():
    assert expected_hash_occupancy(1000, 500) == 250.0
    assert expected_hash_occupancy(1000, 0) == 0.0
    assert expected_hash_occupancy(1000, 1000) == 0.0
    # peak at i = n/2 is n/4
    assert max(expected_hash_occupancy(100, i) for i in range(101)) == 25.0


def test_normal_sf_two_sided():
    assert normal_sf_two_sided(0.0) == pytest.approx(1.0)
    assert normal_sf_two_sided(1.959963984540054) == pytest.approx(0.05, rel=1e-9)
    assert normal_sf_two_sided(-1.959963984540054) == pytest.approx(0.05, rel=1e-9)


# --- exhaustive subset check ---

def _fy_draw(source):
    return fisher_yates_sample(source, 5, 2).indices


def test_subset_law_accepts_uniform_sampler():
    assert pmf_law(*subset_law(_fy_draw, 5, 2), RandomSource(999), 4000)[1] >= 0.001


def test_subset_law_rejects_biased_sampler():
    # always the same subset
    assert pmf_law(*subset_law(lambda s: [1, 2], 5, 2), RandomSource(1000), 4000)[1] < 1e-100


def test_subset_law_rejects_invalid_output():
    # repeats, the wrong size, and items outside [1, 5]
    for items in ([1, 1], [1, 2, 2], [1, 2, 3], [1], [0, 1], [5, 6]):
        with pytest.raises(ValueError, match="value -1 outside"):
            pmf_law(*subset_law(lambda s: items, 5, 2), RandomSource(1), 1000)


def test_statcheck_imports_nothing_of_the_package():
    # the oracle stays free of the sampling layers it judges
    tree = ast.parse(pathlib.Path(statcheck.__file__).read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert not [m for m in modules if m.startswith((".", "srswor"))]


@given(st.floats(min_value=0.01, max_value=100.0), st.integers(min_value=1, max_value=200))
@settings(max_examples=200, deadline=None)
def test_chi2_sf_is_a_tail_probability(stat, dof):
    p = chi2_sf(stat, dof)
    assert 0.0 <= p <= 1.0
