"""Statistical oracles: exact laws, goodness-of-fit machinery, cost formulas.

This layer is what the test suite and the `verify` command trust, so it is
kept independent of the sampling code paths: each discrete law (binomial,
beta-binomial, hypergeometric) is one walk of its exact pmf ratio out from
its integer mode, in O(support) and correctly rounded steps for any n;
chi-square p-values come from the tail's finite closed-form sum, and
expectations from closed-form sums.  No third-party statistics dependency.
Its functions take counts, values and law parameters, never a source: the
draws are made by their callers.  Each test returns its (statistic,
p-value) and leaves the verdict to its caller, which holds the alpha.
"""

from __future__ import annotations

import bisect
import math
import sys

# Minimum expected count per cell after pooling, the usual chi-square rule.
POOL_THRESHOLD = 5.0


def chi2_sf(statistic: float, dof: int) -> float:
    """Upper tail of the chi-square distribution with dof degrees of freedom.

    With x = statistic / 2, this is Q(dof / 2, x), a finite sum at every
    integer or half-integer order (Abramowitz and Stegun 26.4.4-26.4.5):
    the terms x^t e^-x / Gamma(t + 1) over t = dof/2 - 1, dof/2 - 2, ... >= 0, plus
    erfc(sqrt(x)) when dof is odd.  O(dof) terms, with no iteration cap.
    """
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    if not 0 <= statistic < math.inf:  # a nan would otherwise read as p = 1
        raise ValueError(f"chi-square statistic must be finite and >= 0, got {statistic}")
    if statistic == 0.0:
        return 1.0
    x = statistic / 2.0
    log_x = math.log(x)
    terms = [math.exp(t * log_x - x - math.lgamma(t + 1.0))
             for t in (dof / 2.0 - j for j in range(1, dof // 2 + 1))]
    if dof % 2:
        terms.append(math.erfc(math.sqrt(x)))
    return min(1.0, math.fsum(terms))


def _pool_cells(observed, expected, threshold):
    # Greedy left-to-right pooling driven by expected counts only, so the
    # cell layout never depends on the data being tested.
    pooled_o: list[float] = []
    pooled_e: list[float] = []
    acc_o = 0.0
    acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= threshold:
            pooled_o.append(acc_o)
            pooled_e.append(acc_e)
            acc_o = 0.0
            acc_e = 0.0
    if acc_e > 0.0:
        if pooled_e:
            pooled_o[-1] += acc_o
            pooled_e[-1] += acc_e
        else:
            pooled_o.append(acc_o)
            pooled_e.append(acc_e)
    return pooled_o, pooled_e


def chi_square_gof(observed, expected_probs) -> tuple[float, float]:
    """Pearson chi-square of observed counts against a fixed probability
    vector, as (statistic, p-value).

    Cells whose expected count falls below 5 are pooled with their neighbors
    before the statistic is formed.  The probability vector must be strictly
    positive and sum to 1 within 1e-9.
    """
    observed = list(observed)
    probs = list(expected_probs)
    if len(observed) != len(probs):
        raise ValueError(
            f"length mismatch: {len(observed)} observed vs {len(probs)} expected"
        )
    if any(p <= 0.0 for p in probs):
        raise ValueError("expected probabilities must all be positive")
    if abs(math.fsum(probs) - 1.0) > 1e-9:
        raise ValueError(f"expected probabilities sum to {math.fsum(probs)}, not 1")
    total = sum(observed)
    if total <= 0:
        raise ValueError("observed counts sum to zero")
    expected = [total * p for p in probs]
    pooled_o, pooled_e = _pool_cells(observed, expected, POOL_THRESHOLD)
    if len(pooled_e) < 2:
        raise ValueError("fewer than two cells remain after pooling")
    statistic = math.fsum((o - e) ** 2 / e for o, e in zip(pooled_o, pooled_e))
    return statistic, chi2_sf(statistic, len(pooled_e) - 1)


def chi_square_two_sample(counts_a, counts_b) -> tuple[float, float]:
    """Homogeneity chi-square for two count vectors over the same cells, as
    (statistic, p-value)."""
    a = list(counts_a)
    b = list(counts_b)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    combined = [x + y for x, y in zip(a, b)]
    keep = [i for i, c in enumerate(combined) if c > 0]
    a = [a[i] for i in keep]
    b = [b[i] for i in keep]
    combined = [combined[i] for i in keep]
    total_a = sum(a)
    total_b = sum(b)
    if total_a <= 0 or total_b <= 0:
        raise ValueError("both samples need positive totals")
    grand = total_a + total_b
    # pool a and b alike, on the smaller margin's expected counts
    frac = min(total_a, total_b) / grand
    expected_small = [c * frac for c in combined]
    pooled_a, _ = _pool_cells(a, expected_small, POOL_THRESHOLD)
    pooled_b, _ = _pool_cells(b, expected_small, POOL_THRESHOLD)
    if len(pooled_a) < 2:
        raise ValueError("fewer than two cells remain after pooling")
    statistic = 0.0
    for ca, cb in zip(pooled_a, pooled_b):
        cc = ca + cb
        ea = cc * total_a / grand
        eb = cc * total_b / grand
        statistic += (ca - ea) ** 2 / ea + (cb - eb) ** 2 / eb
    return statistic, chi2_sf(statistic, len(pooled_a) - 1)


def kolmogorov_sf(lam: float) -> float:
    """Upper tail of the Kolmogorov distribution, alternating series."""
    if lam <= 0.2:
        return 1.0
    total = 0.0
    sign = 1.0
    for j in range(1, 200):
        term = sign * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-16:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def ks_gof(values, cdf) -> tuple[float, float]:
    """One-sample KS test of values against a continuous CDF callable, as
    (D, p-value)."""
    xs = sorted(values)
    n = len(xs)
    if n < 10:
        raise ValueError(f"KS test needs at least 10 values, got {n}")
    d = 0.0
    for i, x in enumerate(xs):
        f = cdf(x)
        d = max(d, f - i / n, (i + 1) / n - f)
    sqrt_n = math.sqrt(n)
    lam = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d
    return d, kolmogorov_sf(lam)


# --- exact laws and cost formulas --------------------------------------------


def _walk(lo: int, hi: int, ratio) -> tuple[int, list[float]]:
    """The law on [lo, hi] whose pmf ratio f(c+1)/f(c) is num/den, where
    (num, den) = ratio(c) are exact integers.

    The law must be log-concave, so its integer mode is the first c with
    num <= den; bisection finds it.  From f = 1 there, each step outward
    multiplies by one correctly rounded int/int quotient, until the
    support's end or until f would drop below the smallest normal float.
    Returns (start, probs), probs[i] being the probability of start + i.
    """
    a, b = lo, hi
    while a < b:
        mid = (a + b) // 2
        num, den = ratio(mid)
        if num > den:
            a = mid + 1
        else:
            b = mid
    up, f = [], 1.0
    for c in range(a, hi):
        num, den = ratio(c)
        f *= num / den
        if f < sys.float_info.min:
            break
        up.append(f)
    down, f = [], 1.0
    for c in range(a - 1, lo - 1, -1):
        num, den = ratio(c)
        f *= den / num
        if f < sys.float_info.min:
            break
        down.append(f)
    probs = down[::-1] + [1.0] + up
    # fsum is slow over a wide dynamic range, so the two monotone tails
    # below 2^-60 are summed plainly, each from its smallest value
    i = bisect.bisect_left(probs, 2.0 ** -60, hi=len(down))
    j = len(probs) - bisect.bisect_left(up[::-1], 2.0 ** -60)
    total = math.fsum(probs[i:j]) + (sum(probs[:i]) + sum(probs[:j - 1:-1]))
    return a - len(down), [f / total for f in probs]


def binomial_law(n: int, p: float) -> tuple[int, list[float]]:
    """Binomial(n, p) as (lo, probs), for any n; p is taken exactly."""
    if n < 0 or not 0.0 <= p <= 1.0:
        raise ValueError(f"invalid parameters n={n}, p={p}")
    a, b = p.as_integer_ratio()
    return _walk(0, n, lambda c: ((n - c) * a, (c + 1) * (b - a)))


def beta_binomial_law(alpha: int, beta: int, m: int) -> tuple[int, list[float]]:
    """BetaBinomial(alpha, beta, m) as (lo, probs), integer shapes >= 1.

    The smallest index of a uniform k-subset of [1, n] is
    1 + BetaBinomial(1, k, n - k).
    """
    if alpha < 1 or beta < 1 or m < 0:
        raise ValueError(f"invalid parameters alpha={alpha}, beta={beta}, m={m}")
    return _walk(0, m, lambda c: ((m - c) * (c + alpha), (c + 1) * (m - c - 1 + beta)))


def hypergeom_law(v: int, n: int, k: int) -> tuple[int, list[float]]:
    """How many of k sampled items fall in the first v of n positions, as
    (lo, probs) over [max(0, k - (n - v)), min(k, v)]."""
    if n < 0:
        raise ValueError(f"population size must be >= 0, got {n}")
    if not 0 <= v <= n:
        raise ValueError(f"prefix size {v} outside [0, {n}]")
    if not 0 <= k <= n:
        raise ValueError(f"sample size {k} outside [0, {n}]")
    return _walk(max(0, k - (n - v)), min(k, v),
                 lambda c: ((v - c) * (k - c), (c + 1) * (n - v - k + c + 1)))


def expected_membership_draws(n: int, k: int) -> float:
    """Expected with-replacement draws to collect k distinct of n items.

    Sum over t < k of n/(n-t); exact compensated summation via fsum.
    """
    if n < 1 or not 0 <= k <= n:
        raise ValueError(f"invalid parameters n={n}, k={k}")
    return math.fsum(n / (n - t) for t in range(k))


def expected_hash_occupancy(n: int, i: int) -> float:
    """Expected live hash entries of the sparse iterator after i selections."""
    if n < 1 or not 0 <= i <= n:
        raise ValueError(f"invalid parameters n={n}, i={i}")
    return i * (n - i) / n


def normal_sf_two_sided(z: float) -> float:
    """Two-sided tail probability of a standard normal z-score."""
    return math.erfc(abs(z) / math.sqrt(2.0))
