"""Exact discrete and continuous variate generators driven by a RandomSource.

Everything here reduces to the two uniform primitives of the source, so a
whole pipeline is reproducible from one seed.  No approximate method is
used anywhere; every generator is exact up to float rounding:

  binomial        CDF inversion for n*min(p, 1-p) <= 30 (one uniform);
                  Hoermann's BTRD transformed rejection with decomposition
                  above that (1.4-1.8 uniforms in expectation, O(1)).
  hypergeometric  CDF inversion from 0 for a mean of at most 30 (one uniform,
                  P(0) in O(1), about mean + 1 steps); Stadlober's HRUA
                  ratio of uniforms above that (about 3 uniforms, O(1)).
  beta            closed forms when a shape is 1 (one uniform); Cheng's BB
                  rejection when both exceed 1 (about 2.2 uniforms).

Both discrete families switch at mean 30.  An inversion draws its uniform
again in the rare case (about 1e-15 a draw) that it lies above the float
sum of the pmf, rather than walk to the top of the support.

These hold at every n below 2^1024 (above it, OverflowError).  BTRD and
HRUA form each proposal as an exact integer mode plus a small float offset
and accept it on a log pmf ratio: a sum of log(a!/b!) terms, a - b = +-d,
each about d log(b + 1), far larger than the sum once the sd is large.
Those d log(b + 1) parts are joined into d times the log of one exact
integer quotient; the rests come from Stirling's series with its
correction fc (a table below 30, the series above), summed to keep
relative accuracy.  Differences of lgamma values would not do: near
n = 1e10, lgamma(n + 1) is about 2.2e11 and its ulp is about 3e-5.
"""

from __future__ import annotations

import math

from .rng import RandomSource

# Up to this mean (n*min(p, 1-p), or the hypergeometric mean after its
# symmetries), plain CDF inversion is both exact and fast; above it, BTRD
# (valid from n*p >= 10) or HRUA takes over.
_INVERSION_LIMIT = 30

# Below this value a Beta(1, b) draw leaves 1 - U**(1/b), which is off by
# up to 2^-53 absolute, for -expm1(log(U)/b), which keeps its relative
# precision.
_BETA_EXPM1_BELOW = 2.0 ** -10

# Cheng's BB: log 4, and 1 + log 5 for the squeeze log z <= 5z - 1 - log 5
# (the paper's 2.609438 is rounded up, which would accept a little too much).
_LOG4 = math.log(4.0)
_BB_SQUEEZE = 1.0 + math.log(5.0)

# Stadlober's constants: 2 sqrt(2/e) and 3 - 2 sqrt(3/e).
_HRUA_D1 = 2.0 * math.sqrt(2.0 / math.e)
_HRUA_D2 = 3.0 - 2.0 * math.sqrt(3.0 / math.e)

# fc(k) = log k! - (k + 1/2) log(k + 1) + (k + 1) - log sqrt(2 pi), the
# remainder of Stirling's series.  Tabulated below 30; from 30 on, three
# series terms leave an error below 1/(1680 (k + 1)^7) < 3e-14.
_FC_TABLE = tuple(
    math.lgamma(k + 1.0) - (k + 0.5) * math.log(k + 1.0) + (k + 1.0)
    - 0.5 * math.log(2.0 * math.pi)
    for k in range(30)
)


def bernoulli(source: RandomSource, p: float) -> int:
    """One Bernoulli(p) trial via a single uniform-real comparison."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"bernoulli p={p} outside [0, 1]")
    source.stats.bernoulli += 1
    return 1 if source.next_uniform_real() < p else 0  # route: bernoulli


def binomial(source: RandomSource, n: int, p: float) -> int:
    """Exact Binomial(n, p) draw.

    p > 0.5 is drawn as n minus a Binomial(n, 1 - p).  With the smaller
    probability p, n*p <= 30 uses CDF inversion, one uniform; above that,
    BTRD (Hoermann 1993), O(1) expected time and 1.4-1.8 uniforms, at every
    n whose float is finite.  Counts as one logical binomial draw regardless
    of how many uniforms the method consumes.  Degenerate parameters (n = 0,
    p in {0, 1}) return deterministically without touching the source.
    """
    if n < 0:
        raise ValueError(f"binomial trial count must be >= 0, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binomial p={p} outside [0, 1]")
    source.stats.binomial += 1
    if n == 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    flip = p > 0.5
    if flip:
        p = 1.0 - p  # route: binomial p > 1/2 reflection
    if n * p <= _INVERSION_LIMIT:
        c = _binomial_inversion(source, n, p)  # route: binomial inversion
    else:
        c = _binomial_btrd(source, n, p)  # route: binomial BTRD
    return n - c if flip else c


def _binomial_inversion(source: RandomSource, n: int, p: float) -> int:
    # Requires p <= 0.5 and n*p bounded so (1-p)^n stays far above underflow.
    f0 = math.exp(n * math.log1p(-p))
    ratio = p / (1.0 - p)
    uniform = source.next_uniform_real
    while True:
        u = uniform()
        c, f, cdf = 0, f0, f0
        while u > cdf:
            if c == n or f == 0.0:
                break  # u lies above the float CDF's total: draw it again
            c += 1
            f *= ratio * (n - c + 1) / c
            cdf += f
        else:
            return c


def _binomial_btrd(source: RandomSource, n: int, p: float) -> int:
    # BTRD (Hoermann 1993, "The generation of binomial random variates"),
    # steps 1-3.4, for p <= 0.5 and n*p > 30.  A proposal is
    # m + floor((2a/us + b) u + c - m): it is formed relative to the mode m,
    # so floor() sees a small float whatever the size of n*p.
    num, den = p.as_integer_ratio()
    m = (n + 1) * num // den  # the mode floor((n + 1) p), exact
    c = (n * num - m * den) / den + 0.5  # n*p + 0.5 - m
    q = 1.0 - p
    r = p / q
    nr = (n + 1) * r
    npq = n * p * q
    spq = math.sqrt(npq)
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    alpha = (2.83 + 5.1 / b) * spq
    v_r = 0.92 - 4.2 / b
    u_rv_r = 0.86 * v_r
    uniform = source.next_uniform_real
    while True:
        # step 1: the box under the hat, accepted outright with one uniform
        v = uniform()
        if v <= u_rv_r:
            u = v / v_r - 0.43
            return m + math.floor((2.0 * a / (0.5 - abs(u)) + b) * u + c)
        # step 2: the rest of the (u, v) rectangle
        if v >= v_r:
            u = uniform() - 0.5
        else:
            u = v / v_r - 0.93
            u = math.copysign(0.5, u) - u
            v = uniform() * v_r
        us = 0.5 - abs(u)
        if us == 0.0:
            continue  # the rectangle's edge maps to k = +-infinity
        # step 3
        k = m + math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v *= alpha / (a / (us * us) + b)
        km = abs(k - m)
        if km <= 15:
            # step 3.1: f(k)/f(m) as the product of successive pmf ratios
            f = 1.0
            if m < k:
                for i in range(m + 1, k + 1):
                    f *= nr / i - r
            else:
                for i in range(k + 1, m + 1):
                    v *= nr / i - r
            if v <= f:
                return k
            continue
        # step 3.2: squeeze on log f(k)/f(m) around its normal approximation;
        # km enters through z = km / npq, so km * km never leaves float range
        v = math.log(v)
        z = km / npq
        rho = z * ((km / 3.0 + 0.625) * z + 1.0 / (6.0 * npq) + 0.5)
        t = -0.5 * km * z
        if v < t - rho:
            return k
        if v > t + rho:
            continue
        # steps 3.3-3.4: log f(k)/f(m) = log(m!/k!) + log((n-m)!/(n-k)!) + d log(p/q),
        # d = k - m, with the d log(b + 1) parts and d log(p/q) in one exact quotient
        d = k - m
        if v <= (d * _log_quotient((n - k + 1) * num, (k + 1) * (den - num))
                 + _log_fact_core(m, k) + _log_fact_core(n - m, n - k)
                 + _fc(m) + _fc(n - m) - _fc(k) - _fc(n - k)):
            return k


def _fc(k: int) -> float:
    if k < 30:
        return _FC_TABLE[k]
    r = 1.0 / (k + 1)
    rr = r * r
    return (1.0 / 12.0 - (1.0 / 360.0 - rr / 1260.0) * rr) * r


def _log_fact_core(a: int, b: int) -> float:
    """log(a!/b!) - d log(b + 1) - fc(a) + fc(b), d = a - b, for ints a, b >= 0.

    By Stirling's formula this is (a + 1/2) log1p(x) - d, x = d / (b + 1).
    For |x| < 1/10, where those two terms nearly cancel, the same value is
    x (d - 1) / (2 + x) + 2 (a + 1/2) (atanh(y) - y), y = x / (2 + x), with
    atanh(y) - y summed as a series to y^11: relative accuracy at every x.
    """
    d = a - b
    x = d / (b + 1)
    if not -0.1 < x < 0.1:
        return (a + 0.5) * math.log1p(x) - d
    y = x / (2.0 + x)
    yy = y * y
    tail = y * yy * (1 / 3 + yy * (1 / 5 + yy * (1 / 7 + yy * (1 / 9 + yy / 11))))
    return x * (d - 1) / (2.0 + x) + (a + 0.5) * (2.0 * tail)  # 2 (a + 1/2) is inf at a >= 2^1023


def _log_quotient(p: int, q: int) -> float:
    """log(p / q) for positive integers, to relative accuracy near p = q."""
    if q < 2 * p and p < 2 * q:
        return math.log1p((p - q) / q)
    return math.log(p) - math.log(q)


def _beta1_quantile(source: RandomSource, b: float) -> float:
    """A Beta(1, b) draw from one uniform U: 1 - U**(1/b), or
    -expm1(log(U)/b) below _BETA_EXPM1_BELOW."""
    u = source.next_uniform_real()
    x = 1.0 - u ** (1.0 / b)
    return x if x >= _BETA_EXPM1_BELOW else -math.expm1(math.log(u) / b)


def beta(source: RandomSource, alpha: float, beta_shape: float) -> float:
    """Beta(alpha, b) draw in (0, 1], b = beta_shape.

    b == 0 returns exactly 1.0 (the sample-everything threshold case).
    alpha == 1 uses the quantile map 1 - U**(1/b), one uniform draw.
    Its subtraction is exact, so the map is off by at most 2^-53, and a
    draw below 2^-10 is computed as -expm1(log(U)/b) instead, which keeps
    its relative precision: at b past about 2^50 the plain map rounds
    almost every draw to 0.  b == 1 uses (1 - U)**(1/alpha), one uniform.
    Otherwise Cheng's BB rejection takes two uniforms per try, about 2.2 a
    draw; its log-scale test rounds to about 2^-53 sqrt(min(alpha, b)).
    alpha < 1, 0 < b < 1, and infinite or NaN shapes raise ValueError.
    The bounds are compared, not converted, so an integer shape past the
    float range raises OverflowError only where a draw needs its float.
    """
    if not 1.0 <= alpha < math.inf:
        raise ValueError(f"beta sampling requires finite alpha >= 1, got {alpha}")
    if not (beta_shape == 0.0 or 1.0 <= beta_shape < math.inf):
        raise ValueError(f"beta shape must be 0 or finite and >= 1, got {beta_shape}")
    source.stats.beta += 1
    if beta_shape == 0.0:
        return 1.0
    if alpha == 1.0:
        return _beta1_quantile(source, beta_shape)  # route: beta(1, b) quantile
    if beta_shape == 1.0:
        return (1.0 - source.next_uniform_real()) ** (1.0 / alpha)  # route: beta(a, 1) quantile
    # BB (Cheng 1978, "Generating beta variates with nonintegral shape
    # parameters"), exact for min(alpha, b) > 1, its hat driven by the
    # smaller shape a.  lam = 1/B = sqrt((2ab - s)/(s - 2)), s = a + b, is
    # formed as sqrt(1 + 2p/(1 + p/q)), p = a - 1 <= q = b - 1, and the draw
    # W/(b + W) from the odds W/b, so that neither overflows.
    swap = alpha > beta_shape  # route: beta by Cheng's BB
    a, b = float(min(alpha, beta_shape)), float(max(alpha, beta_shape))
    p = a - 1.0
    lam = math.sqrt(1.0 + p * (2.0 / (1.0 + p / (b - 1.0))))
    uniform = source.next_uniform_real
    while True:
        u1 = uniform()
        z = u1 * u1 * uniform()
        if z == 0.0:
            continue  # the logs below need u1 > 0 and z > 0
        v = math.log(u1 / (1.0 - u1)) / lam
        d = -a * math.expm1(v)  # a - W, W = a e^v, to relative accuracy
        w = a - d
        r = (a + lam) * v - _LOG4
        t = r + d
        if t + _BB_SQUEEZE >= 5.0 * z:
            break
        log_z = math.log(z)
        if t > log_z or r + (a + b) * math.log1p(d / (b + w)) >= log_z:
            break
    y = w / b  # below e^37
    return 1.0 / (1.0 + y) if swap else y / (1.0 + y)


def beta_binomial(source: RandomSource, alpha: int, beta_shape: int, n: int) -> int:
    """Beta-Binomial(alpha, beta, n): p ~ Beta then Binomial(n, p).

    alpha == 1 takes the Beta(1, b) quantile that beta takes, without
    counting a beta draw, so the draw costs one uniform real plus one
    binomial, which is the budget the in-order sampler is accounted at.
    """
    if alpha < 1 or beta_shape < 1:
        raise ValueError(f"beta-binomial shapes must be >= 1, got ({alpha}, {beta_shape})")
    if n < 0:
        raise ValueError(f"beta-binomial trial count must be >= 0, got {n}")
    source.stats.beta_binomial += 1
    if alpha == 1:
        p = _beta1_quantile(source, beta_shape)  # route: beta-binomial alpha 1
    else:
        p = beta(source, alpha, beta_shape)  # route: beta-binomial through beta
    return binomial(source, n, p)


def hypergeometric(source: RandomSource, v: int, n: int, k: int) -> int:
    """Exact hypergeometric draw: how many of k sampled items fall in the first v of n.

    The law is unchanged by v -> n - v (the count becomes k - c) and by
    k -> n - k (it becomes v - c), so both are reduced to at most n/2 and
    the support becomes [0, min(v, k)].  The route goes by the mean v k / n,
    compared in integers.  Up to 30, CDF inversion from 0 (Kachitvichyanukul
    and Schmeiser 1985) takes one uniform and about mean + 1 steps, with
    P(0) in O(1) from Stirling's series; above 30, HRUA (Stadlober 1989)
    takes about three uniforms in O(1) expected time, its proposals bounded
    only by the true support.  Both hold at every n below 2^1024, and above
    it any draw but a certain one (v or k in {0, n}) raises OverflowError.
    Counts as one logical hypergeometric draw and draws no other family.
    """
    if n < 0:
        raise ValueError(f"population size must be >= 0, got {n}")
    if not 0 <= v <= n:
        raise ValueError(f"prefix size {v} outside [0, {n}]")
    if not 0 <= k <= n:
        raise ValueError(f"sample size {k} outside [0, {n}]")
    vs, ks = min(v, n - v), min(k, n - k)
    if n >> 1024 and vs and ks:
        raise OverflowError("hypergeometric population size must be below 2^1024")
    source.stats.hypergeometric += 1
    if vs * ks <= _INVERSION_LIMIT * n:
        c = _hypergeometric_inversion(source, vs, n, ks)  # route: hypergeometric inversion
    else:
        c = _hypergeometric_hrua(source, vs, n, ks)  # route: hypergeometric HRUA
    if ks != k:
        c = vs - c  # route: hypergeometric k -> n - k
    if vs != v:
        c = k - c  # route: hypergeometric v -> n - v
    return c


def _hypergeometric_inversion(source: RandomSource, v: int, n: int, k: int) -> int:
    # v, k <= n/2 and v k <= 30 n: the support is [0, s], s = min(v, k), and
    # P(0) = (n - s)! (n - t)! / (n! rest!), at least 1/C(120, 60) > e^-81.
    # Its log takes the module's Stirling terms, the s log(b + 1) parts
    # joined in one exact quotient as in HRUA.
    s, t = min(v, k), max(v, k)
    if s == 0:
        return 0
    rest = n - s - t
    f0 = math.exp(s * _log_quotient(rest + 1, n + 1)
                  + _log_fact_core(n - s, n) + _log_fact_core(n - t, rest)
                  + _fc(n - s) - _fc(n) + _fc(n - t) - _fc(rest))
    # the steps f(c + 1)/f(c) = (s - c)(t - c) / ((c + 1)(rest + c + 1)) in floats
    s_f, t_f, r_f = float(s), float(t), float(rest) + 1.0
    uniform = source.next_uniform_real
    while True:
        u = uniform()
        c, f, cdf = 0, f0, f0
        while u > cdf:
            if c == s or f == 0.0:
                break  # u lies above the float CDF's total: draw it again
            f *= (s_f - c) * (t_f - c) / ((c + 1) * (r_f + c))
            c += 1
            cdf += f
        else:
            return c


def _hypergeometric_hrua(source: RandomSource, v: int, n: int, k: int) -> int:
    # HRUA (Stadlober 1989), for 10 <= v, k <= n/2.  A proposal
    # is m + floor(a + h (w - 1/2) / u) with a = mean + 1/2 - m, so floor()
    # sees a small float whatever the size of the mean.  Unlike numpy there
    # is no cut at mean + 16 sd: only the support bounds proposals.
    p = v / n
    var = k * p * (1.0 - p) * ((n - k) / (n - 1))  # (n - k) * k may pass 2^1024
    h = _HRUA_D1 * math.sqrt(var + 0.5) + _HRUA_D2
    m = (k + 1) * (v + 1) // (n + 2)  # the mode, exact
    a = (k * v - m * n) / n + 0.5
    top = min(v, k)
    rest = n - v - k
    fc_m = _fc(m) + _fc(v - m) + _fc(k - m) + _fc(rest + m)
    uniform = source.next_uniform_real
    while True:
        u = 1.0 - uniform()  # in (0, 1]
        c = m + math.floor(a + h * (uniform() - 0.5) / u)
        if c < 0 or c > top:
            continue
        # log f(c)/f(m), f(c) = 1 / (c! (v-c)! (k-c)! (rest+c)!), its four
        # d log(b + 1) parts joined in one exact quotient
        d = c - m
        t = (d * _log_quotient((v - c + 1) * (k - c + 1), (c + 1) * (rest + c + 1))
             + _log_fact_core(m, c) + _log_fact_core(v - m, v - c)
             + _log_fact_core(k - m, k - c) + _log_fact_core(rest + m, rest + c)
             + fc_m - _fc(c) - _fc(v - c) - _fc(k - c) - _fc(rest + c))
        # accept when u^2 <= f(c)/f(m); 2 log u lies in [u - 1/u, u(4 - u) - 3]
        if u * (4.0 - u) - 3.0 <= t:
            return c
        if u * (u - t) >= 1.0:
            continue
        if 2.0 * math.log(u) <= t:
            return c
