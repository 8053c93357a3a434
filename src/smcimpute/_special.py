"""The four special functions the package needs, from numpy and the standard
library: the logistic function and its logarithm, and the standard normal
and Student t quantiles.

`t_quantile` takes real degrees of freedom, as the pooled intervals of
Rubin's rules need.  It starts from the Cornish-Fisher expansion of the t
quantile about the normal one (Abramowitz & Stegun 26.7.5, terms to df^-4).
Where that expansion is accurate to rounding it is the answer; elsewhere
Newton's method refines it on u = log t.  Each Newton step evaluates one
continued fraction of the regularized incomplete beta function (Numerical
Recipes, 2nd ed., 6.4): the upper tail P(T > t) = I_x(df/2, 1/2) / 2 with
x = df / (df + t^2), or the central mass P(0 < T < t) = I_{1-x}(1/2, df/2) / 2,
whichever side the fraction converges on quickly.  Both are evaluated in log
space, with log B(df/2, 1/2) from its asymptotic series at large df, so
neither tiny tails nor huge quantiles overflow.
"""

from __future__ import annotations

import math
import sys
from statistics import NormalDist

import numpy as np

__all__ = ["expit", "log_expit", "normal_quantile", "t_quantile"]

_STANDARD_NORMAL = NormalDist()
_LOG_PI = math.log(math.pi)
_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# the Cornish-Fisher quantile is within about 5e-16 of the exact one when
# df >= 1000 and z^2 <= 0.004 df, z the normal quantile
_DIRECT_MIN_DF = 1000.0
_DIRECT_MAX_Z2_PER_DF = 0.004
_NEWTON_TOL = 1e-9  # |step| in log t; the next step would be below 1e-16
_TINY = 1e-300
_LOG_MAX = math.log(sys.float_info.max)


def expit(x):
    """The logistic function 1 / (1 + exp(-x)), elementwise."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def log_expit(x):
    """log(expit(x)) without cancellation or overflow, elementwise."""
    with np.errstate(invalid="ignore"):  # a NaN input gives NaN quietly
        return -np.logaddexp(0.0, -x)


def normal_quantile(p: float) -> float:
    """Standard normal quantile; -inf at p = 0, inf at p = 1, NaN outside [0, 1].

    statistics' algorithm (Wichura's AS 241) is a few ulps off; one Newton
    step on erf or erfc, whichever leaves p's rounding out of the residual,
    brings it to within about 2 ulps of the exact quantile.
    """
    if not 0.0 < p < 1.0:
        return {0.0: -math.inf, 1.0: math.inf}.get(p, math.nan)
    x = _STANDARD_NORMAL.inv_cdf(p)
    if abs(x) > 37.0:  # the density is near underflow
        return x
    if 0.25 <= p <= 0.75:
        excess = 0.5 * math.erf(x / _SQRT2) - (p - 0.5)
    elif p > 0.5:
        excess = (1.0 - p) - 0.5 * math.erfc(x / _SQRT2)
    else:
        excess = 0.5 * math.erfc(-x / _SQRT2) - p
    return x - excess / math.exp(-0.5 * x * x - _LOG_SQRT_2PI)


def t_quantile(df: float, p: float) -> float:
    """Student t quantile at probability p for real df > 0 (inf gives the normal).

    Odd about p = 1/2: t_quantile(df, 1 - p) == -t_quantile(df, p) whenever
    1 - p is exact.  A quantile beyond the float range (df below 1, or p
    near the smallest float) is returned as the largest float, with its
    sign.  NaN outside the domain.
    """
    df, p = float(df), float(p)
    if not (df > 0.0 and 0.0 <= p <= 1.0):
        return math.nan
    if p < 0.5:
        return -_t_upper(df, p, 0.5 - p)
    return _t_upper(df, 1.0 - p, p - 0.5) if p > 0.5 else 0.0


def _cornish_fisher(z: float, df: float) -> float:
    z2 = z * z
    g1 = (z2 + 1.0) * z / 4.0
    g2 = ((5.0 * z2 + 16.0) * z2 + 3.0) * z / 96.0
    g3 = (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) * z / 384.0
    g4 = ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) * z / 92160.0
    return z + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df


def _log_beta_half(a: float) -> float:
    """log B(a, 1/2).

    lgamma(a) - lgamma(a + 1/2) cancels to a few units of lgamma(a)'s last
    place, so from a = 20 on the difference comes from its asymptotic series
    in 1/a (Bernoulli-number coefficients), whose next term is below 1e-17.
    """
    if a < 20.0:
        return math.lgamma(a) + 0.5 * _LOG_PI - math.lgamma(a + 0.5)
    r = 1.0 / (a * a)
    # log Gamma(a + 1/2) - log Gamma(a) - log(a) / 2
    series = (-1 / 8 + r * (1 / 192 + r * (-1 / 640 + r * (17 / 14336 - r * 31 / 18432)))) / a
    return 0.5 * (_LOG_PI - math.log(a)) - series


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) = x^a (1-x)^b / (a B(a, b)) * fraction.

    Modified Lentz evaluation; it converges quickly for x < (a+1)/(a+b+2).
    """
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / max(1.0 - qab * x / qap, _TINY)
    h = d
    for m in range(1, 10_000):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return h


def _log_expit(s: float) -> float:
    return -math.log1p(math.exp(-s)) if s >= 0.0 else s - math.log1p(math.exp(s))


def _t_upper(df: float, tail: float, central: float) -> float:
    """The t >= 0 with P(T > t) = tail and P(0 < T < t) = central (they sum to 1/2)."""
    if tail == 0.0:
        return math.inf
    z = -normal_quantile(tail)
    if df == math.inf:
        return z
    start = _cornish_fisher(z, df)
    if df >= _DIRECT_MIN_DF and z * z <= _DIRECT_MAX_Z2_PER_DF * df:
        return start
    a = 0.5 * df
    log_df = math.log(df)
    # log of the density's constant, 1 / (sqrt(df) B(a, 1/2))
    log_norm = -0.5 * log_df - _log_beta_half(a)
    log_tail, log_central = math.log(tail), math.log(central)
    if df >= 2.0 and start > 0.0:
        u = math.log(start)
    else:
        # the larger of the large-t power law and the small-t linear limit
        u = max(((a - 0.5) * log_df + log_norm - log_tail) / df, log_central - log_norm)
    lo, hi = -math.inf, math.inf  # bracket of the root in u
    for _ in range(100):
        # x = df / (df + t^2) and 1 - x, in logs: exact for any t
        s = 2.0 * u - log_df
        log_x, log_y = _log_expit(-s), _log_expit(s)
        log_t_density = u + (a + 0.5) * log_x + log_norm  # log(t * pdf(t))
        x = math.exp(log_x)
        if x < (a + 1.0) / (a + 2.5):
            # tail = t pdf(t) / df * fraction; d log(tail) / du = -df / fraction
            fraction = _beta_fraction(a, 0.5, x)
            excess = log_t_density - log_df + math.log(fraction) - log_tail
            step = excess * fraction / df
            too_small = excess > 0.0
        else:
            # central = t pdf(t) * fraction; d log(central) / du = 1 / fraction
            fraction = _beta_fraction(0.5, a, math.exp(log_y))
            excess = log_t_density + math.log(fraction) - log_central
            step = -excess * fraction
            too_small = excess < 0.0
        if too_small:
            lo = u
            if lo > _LOG_MAX:  # the quantile is beyond the float range
                break
        else:
            hi = u
        if not lo <= u + step <= hi:
            # outside the bracket: bisect it, or take a bounded step out of it
            step = (0.5 * (lo + hi) - u if math.isfinite(lo + hi)
                    else math.copysign(min(abs(step), 1.0 + abs(u)), step))
        u += step
        if abs(step) <= _NEWTON_TOL:
            break
    return math.exp(u) if u < _LOG_MAX else sys.float_info.max
