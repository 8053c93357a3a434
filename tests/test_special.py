import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.stats import norm, t

from smcimpute._special import expit, log_expit, normal_quantile, t_quantile

DF_ANY = st.one_of(st.floats(1e-3, 1e300), st.just(math.inf))


def _ulps(got, want):
    return abs(got - want) / np.spacing(abs(want))


@pytest.mark.parametrize("fn", [expit, log_expit])
def test_logistic_functions_raise_no_warning_at_extremes_or_nan(fn):
    x = np.array([-1000.0, 1000.0, np.nan, -np.inf, np.inf, -0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fn(x)
    want = getattr(special, fn.__name__)(x)
    np.testing.assert_array_equal(got, want)


def test_log_expit_matches_scipy_and_expit_within_a_few_ulps():
    x = np.concatenate([np.random.default_rng(0).normal(scale=s, size=20_000)
                        for s in (1.0, 30.0, 800.0)])
    np.testing.assert_allclose(log_expit(x), special.log_expit(x), rtol=2e-16, atol=0)
    # numpy's vectorized exp may differ from libm's in the last bit
    np.testing.assert_allclose(expit(x), special.expit(x), rtol=1e-15, atol=0)


def test_normal_quantile_within_four_ulps_of_scipy():
    # each is within about 2 ulps of the exact quantile, on either side
    p = np.concatenate([np.random.default_rng(1).random(2000),
                        10.0 ** -np.arange(1, 300, 7), 1 - 10.0 ** -np.arange(1, 16)])
    for pi in p.tolist():
        assert _ulps(normal_quantile(pi), norm.ppf(pi)) <= 4, pi
    assert normal_quantile(0.5) == 0.0
    assert normal_quantile(0.0) == -math.inf and normal_quantile(1.0) == math.inf
    assert math.isnan(normal_quantile(1.5)) and math.isnan(normal_quantile(math.nan))


@given(df=DF_ANY, p=st.floats(0.5, 1.0, exclude_max=True))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_t_quantile_is_odd_about_one_half(df, p):
    # 1 - p is exact for p in [1/2, 1]
    assert t_quantile(df, 1.0 - p) == -t_quantile(df, p)


@given(df=DF_ANY, p=st.floats(1e-300, 1.0, exclude_max=True), gap=st.floats(1e-6, 0.5))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_t_quantile_is_finite_and_monotone_in_p(df, p, gap):
    q = t_quantile(df, p)
    assert math.isfinite(q)
    if p + gap < 1.0:
        assert t_quantile(df, p + gap) >= q


@given(p=st.floats(0.0, 1.0))
@example(p=0.0)
@example(p=5e-324)
@example(p=0.5)
@example(p=0.975)
@example(p=1.0)
@settings(max_examples=500, deadline=None, derandomize=True)
def test_t_quantile_at_infinite_df_is_the_normal_quantile_bit_for_bit(p):
    # every interval takes t_quantile(df, alpha), and a Newton fit's df is inf
    assert t_quantile(math.inf, p) == normal_quantile(p)


@given(df=st.floats(1.0, 1e18), p=st.floats(0.6, 0.9995))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_t_quantile_matches_scipy_stats(df, p):
    assert t_quantile(df, p) == pytest.approx(t.ppf(p, df), rel=1e-12)


def test_t_quantile_limits_and_domain():
    assert t_quantile(math.inf, 0.975) == normal_quantile(0.975)
    assert t_quantile(1.0, 0.75) == pytest.approx(1.0, rel=1e-15)  # Cauchy: tan(pi/4)
    assert t_quantile(7.0, 0.5) == 0.0
    assert t_quantile(3.0, 1.0) == math.inf and t_quantile(3.0, 0.0) == -math.inf
    for df, p in ((0.0, 0.9), (-1.0, 0.9), (3.0, 1.5), (math.nan, 0.9), (3.0, math.nan)):
        assert math.isnan(t_quantile(df, p))
    # far beyond the float range at df = 1e-3: the largest float
    assert t_quantile(1e-3, 0.975) == np.finfo(float).max
