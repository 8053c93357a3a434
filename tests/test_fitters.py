import os
import subprocess
import sys
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from smcimpute import fitters
from smcimpute.fitters import (
    NON_FINITE,
    FitError,
    StepCumHazard,
    _spd_solve,
    breslow_baseline,
    cox_layout,
    cox_loglik,
    draw_linear_posterior,
    fit_cox,
    fit_linear,
    fit_logistic,
    logistic_loglik,
    multivariate_normal_draw,
    nelson_aalen,
)
from smcimpute.substantive import FAMILIES

rng0 = np.random.default_rng  # shorthand

LOGISTIC, COX = FAMILIES["logistic"], FAMILIES["cox"]


# ---------------------------------------------------------------------------
# linear regression

def test_linear_perfect_fit():
    X = np.column_stack([np.ones(3), [0.0, 1.0, 2.0]])
    fit = fit_linear(X, np.array([0.0, 1.0, 2.0]))
    np.testing.assert_allclose(fit.beta, [0.0, 1.0], atol=1e-12)
    assert fit.sigma2 == pytest.approx(0.0, abs=1e-24)


def test_linear_intercept_only_constant():
    fit = fit_linear(np.ones((4, 1)), np.full(4, 3.7))
    assert fit.beta[0] == pytest.approx(3.7)


def test_linear_hand_computed_normal_equations():
    # points (0,1), (1,3), (2,4): closed form gives (7/6, 3/2)
    X = np.column_stack([np.ones(3), [0.0, 1.0, 2.0]])
    fit = fit_linear(X, np.array([1.0, 3.0, 4.0]))
    np.testing.assert_allclose(fit.beta, [7.0 / 6.0, 1.5], atol=1e-12)


def test_linear_rank_deficient():
    X = np.column_stack([np.ones(5), np.ones(5)])
    with pytest.raises(FitError):
        fit_linear(X, np.zeros(5))


def test_linear_needs_more_rows_than_columns():
    with pytest.raises(FitError):
        fit_linear(np.ones((2, 2)), np.zeros(2))


def test_linear_residuals_orthogonal_to_design():
    rng = rng0(1)
    X = np.column_stack([np.ones(200), rng.normal(size=(200, 3))])
    y = rng.normal(size=200)
    fit = fit_linear(X, y)
    resid = y - X @ fit.beta
    assert np.all(np.abs(X.T @ resid) < 1e-8 * 200)


def test_draw_linear_posterior_degenerate():
    X = np.column_stack([np.ones(3), [0.0, 1.0, 2.0]])
    fit = fit_linear(X, np.array([0.0, 1.0, 2.0]))
    beta, sigma2 = draw_linear_posterior(fit, rng0(0))
    assert sigma2 == 0.0
    np.testing.assert_array_equal(beta, fit.beta)


def test_draw_linear_posterior_moments():
    rng = rng0(2)
    n, k = 50, 2
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = X @ np.array([1.0, 2.0]) + rng.normal(size=n)
    fit = fit_linear(X, y)
    draws = rng0(3)
    betas = np.empty((10_000, k))
    sig = np.empty(10_000)
    for i in range(10_000):
        betas[i], sig[i] = draw_linear_posterior(fit, draws)
    # mean of beta draws recovers the MLE
    se = np.sqrt(np.var(betas, axis=0, ddof=1) / 10_000)
    assert np.all(np.abs(betas.mean(axis=0) - fit.beta) < 3 * se)
    # inverse-chi-square mean: E sigma2* = SSE / (n - k - 2)
    expected = fit.sse / (n - k - 2)
    assert sig.mean() == pytest.approx(expected, rel=0.05)


# ---------------------------------------------------------------------------
# logistic regression

def test_logistic_intercept_only_half():
    fit = fit_logistic(np.ones((2, 1)), np.array([0.0, 1.0]))
    assert fit.beta[0] == pytest.approx(0.0, abs=1e-8)


def test_logistic_separation_flagged():
    with pytest.raises(FitError, match="separation"):
        fit_logistic(np.ones((6, 1)), np.zeros(6))


@pytest.mark.parametrize("X, y", [
    # x separates y: the slope runs off past the divergence threshold
    (np.column_stack([np.ones(6), np.arange(6.0)]), np.array([0.0, 0, 0, 1, 1, 1])),
    # the score vanishes while every response is predicted perfectly
    (np.ones((6, 1)), np.ones(6)),
])
def test_logistic_divergence_and_vanishing_score_raise_separation(X, y):
    with pytest.raises(FitError, match=r"^logistic fit did not converge \(separation\?\)$"):
        fit_logistic(X, y)


def test_logistic_matches_grid_search_oracle():
    # single-coefficient model on x (no intercept); the likelihood has a
    # proper interior maximum here
    x = np.array([0.0, 1.0, 1.0, 2.0])
    X = x[:, None]
    y = np.array([0.0, 0.0, 1.0, 1.0])

    def ll(b):
        p = expit(b * x)
        return float(np.sum(y * np.log(p) + (1 - y) * np.log1p(-p)))

    lo, hi = -10.0, 10.0
    for _ in range(60):
        grid = np.linspace(lo, hi, 41)
        values = np.array([ll(b) for b in grid])
        best = grid[values.argmax()]
        span = (hi - lo) / 15
        lo, hi = best - span, best + span

    fit = fit_logistic(X, y)
    assert abs(fit.beta[0] - best) < 1e-5


def test_logistic_rejects_nonbinary_response():
    with pytest.raises(FitError):
        fit_logistic(np.ones((3, 1)), np.array([0.0, 0.5, 1.0]))


@pytest.mark.parametrize("mean, slope", [(40.0, 1.0), (130.0, 0.3)])
def test_logistic_fits_a_covariate_far_from_zero(mean, slope):
    # the intercept, -slope * mean, lies beyond the divergence threshold of
    # 30, but the linear predictor's spread is only slope * 3
    rng = rng0(42)
    x = rng.normal(mean, 3.0, 5000)
    y = (rng.random(5000) < expit(slope * (x - mean))).astype(float)
    fit = fit_logistic(np.column_stack([np.ones(5000), x]), y)
    se = np.sqrt(fit.coef_variances())
    assert np.all(np.abs(fit.beta - [-slope * mean, slope]) < 4.0 * se)


def _location_data(n=400):
    rng = rng0(41)
    x, z = rng.normal(size=n), rng.normal(size=n)
    y = (rng.random(n) < expit(0.5 + x - 0.5 * z)).astype(float)
    t = rng.exponential(1.0, n) / np.exp(0.5 * x - 0.5 * z)
    censor = rng.exponential(2.0, n)
    return x, z, y, np.minimum(t, censor), (t <= censor).astype(float)


LOCATION_DATA = _location_data()


def _fit_at_shift(family, c):
    """(linear predictor, log-likelihood) with x shifted by c."""
    x, z, y, time, event = LOCATION_DATA
    if family == "logistic":
        X = np.column_stack([np.ones(x.size), x + c, z])
        fit = fit_logistic(X, y)
        return X @ fit.beta, logistic_loglik(X, y, fit.beta)[0]
    X = np.column_stack([x + c, z])
    fit = fit_cox(X, time, event)
    eta = X @ fit.beta
    # a Cox model has no intercept: the shift moves eta by a constant
    return eta - eta.mean(), cox_loglik(X, time, event, fit.beta)[0]


@pytest.mark.parametrize("family", ["logistic", "cox"])
@settings(derandomize=True, max_examples=20, deadline=None)
@given(c=st.floats(-1000.0, 1000.0))
def test_shifting_a_covariate_leaves_the_fit_unchanged(family, c):
    eta0, ll0 = _fit_at_shift(family, 0.0)
    eta, ll = _fit_at_shift(family, c)
    assert np.max(np.abs(eta - eta0)) < 1e-9
    assert abs(ll - ll0) < 1e-9


def test_cox_monotone_likelihood_raises_divergence():
    # a larger x always fails first: the partial likelihood rises without
    # bound in its coefficient
    x = np.arange(8.0)
    message = r"^monotone partial likelihood \(diverging linear predictor\)$"
    with pytest.raises(FitError, match=message):
        fit_cox(x[:, None], 10.0 - x, np.ones(8))


def test_cox_monotone_likelihood_far_from_zero_raises_divergence():
    # the steps drive the linear predictor to its clip of 700, where w x x'
    # would pass the largest double; the kernel weights x x' by w times the
    # cumulative hazard, which stays moderate
    x = np.arange(8.0)
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(FitError, match="^monotone partial likelihood"):
            fit_cox(x[:, None] + 1000.0, 10.0 - x, np.ones(8))


def test_glm_posterior_draw_requires_convergence():
    # a non-converged fit cannot be made, so there is nothing to draw from
    with pytest.raises(FitError):
        fit_logistic(np.ones((6, 1)), np.zeros(6))


def test_glm_posterior_covariance_matches_fit():
    rng = rng0(4)
    n = 400
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = (rng.random(n) < expit(X @ np.array([0.3, 0.8]))).astype(float)
    fit = fit_logistic(X, y)
    gen = rng0(5)
    draws = np.array([LOGISTIC.draw(fit, X, y, gen).beta for _ in range(10_000)])
    emp = np.cov(draws.T)
    np.testing.assert_allclose(emp, fit.covariance, rtol=0.10)


def test_glm_posterior_seed_reproducible():
    X = np.column_stack([np.ones(4), [0.0, 1.0, 1.0, 2.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    fit = fit_logistic(X, y)
    a = LOGISTIC.draw(fit, X, y, rng0(42)).beta
    b = LOGISTIC.draw(fit, X, y, rng0(42)).beta
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# gradients against finite differences

def _finite_diff(fun, beta, step=1e-5):
    grad = np.empty_like(beta)
    for j in range(beta.size):
        up, dn = beta.copy(), beta.copy()
        up[j] += step
        dn[j] -= step
        grad[j] = (fun(up) - fun(dn)) / (2 * step)
    return grad


def test_logistic_gradient_matches_finite_differences():
    rng = rng0(6)
    X = np.column_stack([np.ones(50), rng.normal(size=(50, 2))])
    y = (rng.random(50) < 0.5).astype(float)
    for _ in range(5):
        beta = rng.normal(scale=0.7, size=3)
        _, score, _ = logistic_loglik(X, y, beta)
        fd = _finite_diff(lambda b: logistic_loglik(X, y, b)[0], beta)
        assert np.all(np.abs(score - fd) <= 1e-4 * np.maximum(np.abs(fd), 1.0))


def test_cox_gradient_matches_finite_differences():
    rng = rng0(7)
    n = 60
    X = rng.normal(size=(n, 2))
    time = rng.exponential(1.0, n) + 0.01
    event = (rng.random(n) < 0.6).astype(float)
    for _ in range(5):
        beta = rng.normal(scale=0.5, size=2)
        _, score, _ = cox_loglik(X, time, event, beta)
        fd = _finite_diff(lambda b: cox_loglik(X, time, event, b)[0], beta)
        assert np.all(np.abs(score - fd) <= 1e-4 * np.maximum(np.abs(fd), 1.0))


# ---------------------------------------------------------------------------
# Cox model

def test_cox_score_hand_computed():
    # times (1,2,3) all events, x = (1,0,1): risk-set means 2/3, 1/2, 1
    X = np.array([[1.0], [0.0], [1.0]])
    _, score, _ = cox_loglik(X, np.array([1.0, 2.0, 3.0]), np.ones(3), np.zeros(1))
    assert score[0] == pytest.approx(-1.0 / 6.0, abs=1e-12)


def test_cox_constant_covariate_rejected():
    X = np.ones((5, 1))
    with pytest.raises(FitError):
        fit_cox(X, np.arange(1.0, 6.0), np.ones(5))


@pytest.mark.parametrize("value", [0.1, 1 / 3, 1e-3])
def test_cox_constant_covariate_whose_mean_rounds_is_rejected(value):
    # 1000 copies of 0.1 have a computed std of 1.4e-17, not 0
    from smcimpute.simlab import gen_cox

    d = gen_cox(1000, rng0(5))
    X = np.column_stack([d.column("x1").values, np.full(d.n, value)])
    assert X[:, 1].std() != 0.0
    with pytest.raises(FitError, match="^constant covariate column in Cox design$"):
        fit_cox(X, d.column("w").values, d.column("d").values)


def test_cox_matches_grid_search_oracle():
    rng = rng0(8)
    n = 20
    x = rng.normal(size=(n, 1))
    time = rng.exponential(1.0, n) * np.exp(-0.8 * x[:, 0]) + 1e-3
    event = (rng.random(n) < 0.7).astype(float)
    if not event.any():
        event[0] = 1.0

    def partial_ll(b):
        # independent implementation: direct risk-set sums per event
        total = 0.0
        for i in range(n):
            if event[i] == 1.0:
                risk = time >= time[i]
                total += b * x[i, 0] - np.log(np.sum(np.exp(b * x[risk, 0])))
        return total

    lo, hi = -5.0, 5.0
    for _ in range(60):
        grid = np.linspace(lo, hi, 31)
        values = np.array([partial_ll(b) for b in grid])
        best = grid[values.argmax()]
        span = (hi - lo) / 10
        lo, hi = best - span, best + span

    fit = fit_cox(x, time, event)
    assert abs(fit.beta[0] - best) < 1e-4


def test_breslow_hand_computed_equals_nelson_aalen():
    X = np.array([[1.0], [0.0], [1.0]])
    time = np.array([1.0, 2.0, 3.0])
    event = np.ones(3)
    base = breslow_baseline(X, time, event, np.zeros(1))
    np.testing.assert_allclose(base.cumvals, [1 / 3, 5 / 6, 11 / 6])
    na = nelson_aalen(time, event)
    np.testing.assert_allclose(na.cumvals, base.cumvals)
    np.testing.assert_array_equal(na.knots, base.knots)


def test_breslow_no_events_zero_everywhere():
    base = breslow_baseline(np.zeros((4, 0)), np.arange(1.0, 5.0), np.zeros(4), np.zeros(0))
    assert base.knots.size == 0
    assert float(base(100.0)) == 0.0


def test_breslow_jumps_track_riskset_denominators():
    rng = rng0(9)
    n = 30
    X = rng.normal(size=(n, 1))
    time = rng.exponential(1.0, n) + 0.01
    event = (rng.random(n) < 0.5).astype(float)
    event[:2] = 1.0
    beta = np.array([0.7])
    base = breslow_baseline(X, time, event, beta)
    jumps = np.diff(np.concatenate(([0.0], base.cumvals)))
    for knot, jump in zip(base.knots, jumps):
        risk = time >= knot
        d_t = np.sum((time == knot) & (event == 1.0))
        denom = np.sum(np.exp(X[risk, 0] * beta[0]))
        assert jump == pytest.approx(d_t / denom, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_cox_layout_rejects_a_time_that_is_not_positive(bad):
    time, event = np.array([1.0, bad, 2.0]), np.array([1.0, 0.0, 1.0])
    message = "^survival times must be strictly positive$"
    with pytest.raises(FitError, match=message):
        cox_layout(time, event)
    # the fit and the hazard estimators build their layout through it
    with pytest.raises(FitError, match=message):
        fit_cox(np.array([[0.1], [0.2], [0.4]]), time, event)
    with pytest.raises(FitError, match=message):
        nelson_aalen(time, event)
    with pytest.raises(FitError, match=message):
        breslow_baseline(np.zeros((3, 0)), time, event, np.zeros(0))


@pytest.mark.parametrize("bad", [2.0, -1.0, 0.5, np.nan])
def test_cox_layout_rejects_an_event_that_is_not_0_or_1(bad):
    time, event = np.array([1.0, 3.0, 2.0]), np.array([1.0, bad, 0.0])
    message = "^event indicators must be 0 or 1$"
    with pytest.raises(FitError, match=message):
        cox_layout(time, event)
    with pytest.raises(FitError, match=message):
        fit_cox(np.array([[0.1], [0.2], [0.4]]), time, event)
    with pytest.raises(FitError, match=message):
        nelson_aalen(time, event)


def _cox_layout_reference(time, event):
    """Distinct event times, risk-set starts and tie counts as np.unique,
    searchsorted and bincount build them, the form the run lengths replaced."""
    order = np.argsort(time, kind="stable")
    ts = time[order]
    ds = event[order].astype(bool)
    ev_times = np.unique(ts[ds])
    risk_start = np.searchsorted(ts, ev_times, side="left")
    d_count = np.bincount(
        np.searchsorted(ev_times, ts[ds]), minlength=ev_times.size
    ).astype(float)
    return ev_times, risk_start, d_count


def _cox_layout_cases():
    rng = rng0(23)
    for n in (1, 2, 3, 1000):
        untied = rng.exponential(1.0, n) + 0.01
        tied = np.round(rng.exponential(1.0, n), 1) + 0.1
        for time in (untied, tied, np.full(n, 2.5)):
            yield time, (rng.random(n) < 0.6).astype(float)  # some events
            yield time, np.zeros(n)  # no events
            yield time, np.ones(n)  # all events
            one = np.zeros(n)
            one[rng.integers(n)] = 1.0
            yield time, one  # one event
    yield np.empty(0), np.empty(0)


def test_cox_layout_matches_the_unique_reference_bit_for_bit():
    for time, event in _cox_layout_cases():
        layout = cox_layout(time, event)
        got = (layout.ev_times, layout.risk_start, layout.d_count)
        for a, b in zip(got, _cox_layout_reference(time, event)):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


def test_nelson_aalen_all_censored():
    na = nelson_aalen(np.arange(1.0, 6.0), np.zeros(5))
    assert na.knots.size == 0
    assert float(na(3.0)) == 0.0


def test_draw_cox_posterior_tiny_covariance_reproduces_fit():
    rng = rng0(10)
    n = 120
    X = rng.normal(size=(n, 1))
    time = rng.exponential(1.0, n) * np.exp(-X[:, 0]) + 1e-3
    event = np.ones(n)
    layout = cox_layout(time, event)
    fit = fit_cox(X, time, event, layout=layout)
    shrunk = replace(fit, covariance=fit.covariance * 1e-20)
    psi = COX.draw(shrunk, X, layout, rng0(11))
    np.testing.assert_allclose(psi.beta, fit.beta, atol=1e-8)
    at_mle = breslow_baseline(X, time, event, fit.beta, layout=layout)
    np.testing.assert_allclose(psi.baseline.cumvals, at_mle.cumvals, rtol=1e-6)


def test_draw_cox_posterior_baseline_tracks_drawn_beta():
    rng = rng0(12)
    n = 80
    X = rng.normal(size=(n, 1))
    time = rng.exponential(1.0, n) + 1e-3
    event = np.ones(n)
    fit = fit_cox(X, time, event)
    layout = cox_layout(time, event)
    psi = COX.draw(fit, X, layout, rng0(13))
    assert psi.beta[0] != fit.beta[0]
    for recomputed in (breslow_baseline(X, time, event, psi.beta),
                       breslow_baseline(X, time, event, psi.beta, layout=layout)):
        assert psi.baseline.knots.tobytes() == recomputed.knots.tobytes()
        assert psi.baseline.cumvals.tobytes() == recomputed.cumvals.tobytes()


def test_draw_cox_posterior_seed_reproducible():
    rng = rng0(14)
    n = 60
    X = rng.normal(size=(n, 1))
    time = rng.exponential(1.0, n) + 1e-3
    event = np.ones(n)
    fit = fit_cox(X, time, event)
    layout = cox_layout(time, event)
    a = COX.draw(fit, X, layout, rng0(15))
    b = COX.draw(fit, X, layout, rng0(15))
    np.testing.assert_array_equal(a.beta, b.beta)
    np.testing.assert_array_equal(a.baseline.cumvals, b.baseline.cumvals)


def test_cox_prepared_layout_gives_bit_identical_results():
    rng = rng0(16)
    n = 150
    X = rng.normal(size=(n, 2))
    time = np.round(rng.exponential(1.0, n) * np.exp(-X[:, 0]), 1) + 0.1  # many ties
    event = (rng.random(n) < 0.7).astype(float)
    layout = cox_layout(time, event)

    def same(a, b):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    for beta0 in (None, np.array([0.8, -0.1])):
        cold = fit_cox(X, time, event, beta0=beta0)
        prepared = fit_cox(X, time, event, beta0=beta0, layout=layout)
        cold_base = breslow_baseline(X, time, event, cold.beta)
        prepared_base = breslow_baseline(X, time, event, prepared.beta, layout=layout)
        for a, b in ((cold.beta, prepared.beta), (cold.covariance, prepared.covariance),
                     (cold_base.knots, prepared_base.knots),
                     (cold_base.cumvals, prepared_base.cumvals)):
            same(a, b)
    beta = np.array([0.9, 0.2])
    for a, b in zip(cox_loglik(X, time, event, beta),
                    fitters._cox_terms(X[layout.order], layout, beta)):
        same(a, b)
    same(breslow_baseline(X, time, event, beta).cumvals,
         breslow_baseline(X, time, event, beta, layout=layout).cumvals)
    # the posterior draw re-estimates the baseline on the layout it is given
    psi = COX.draw(prepared, X, layout, rng0(17))
    beta_star = multivariate_normal_draw(prepared.beta, prepared.covariance, rng0(17))
    same(psi.beta, beta_star)
    same(psi.baseline.cumvals, breslow_baseline(X, time, event, beta_star).cumvals)


def _cox_terms_reference(xs, layout, beta):
    """The kernel's information as a sum over event times of per-row (k, k)
    risk-set sums, the form the weighted Gram matrix replaced."""
    ds, risk_start, d_count = layout.ds, layout.risk_start, layout.d_count
    eta, w, s0 = fitters._risk_set_sums(xs, beta)
    s1 = np.cumsum((w[:, None] * xs)[::-1], axis=0)[::-1]
    s2 = np.cumsum((w[:, None, None] * (xs[:, :, None] * xs[:, None, :]))[::-1], axis=0)[::-1]

    s0_t = s0[risk_start]
    s1_t = s1[risk_start]
    s2_t = s2[risk_start]
    mean_t = s1_t / s0_t[:, None]

    ll = float(eta[ds].sum() - (d_count * np.log(s0_t)).sum())
    score = xs[ds].sum(axis=0) - (d_count[:, None] * mean_t).sum(axis=0)
    info = (
        (d_count[:, None, None] * (s2_t / s0_t[:, None, None])).sum(axis=0)
        - (d_count[:, None, None] * (mean_t[:, :, None] * mean_t[:, None, :])).sum(axis=0)
    )
    return ll, score, info


@pytest.mark.parametrize("n", [3, 4, 11, 60, 1000, 10_000])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cox_kernel_matches_the_risk_set_reference(n, k):
    rng = rng0(1000 * n + k)
    for _ in range(5):
        X = rng.normal(size=(n, k)) * rng.uniform(0.2, 3.0, size=k)
        time = np.round(rng.exponential(1.0, n), 1) + 0.1  # many tied times
        event = (rng.random(n) < 0.7).astype(float)
        event[rng.integers(n)] = 1.0
        layout = cox_layout(time, event)
        xs = X[layout.order]
        beta = rng.normal(0.0, 0.5, size=k)
        ll, score, info = fitters._cox_terms(xs, layout, beta)
        ref_ll, ref_score, ref_info = _cox_terms_reference(xs, layout, beta)
        assert ll == ref_ll
        assert score.tobytes() == ref_score.tobytes()
        # each S2_t / S0_t is a weighted mean of x x', so the information is a
        # difference of terms of size up to (events) * max x^2; that bounds the
        # rounding of the difference, where the information itself may be 0
        scale = layout.d_count.sum() * np.abs(xs).max() ** 2
        np.testing.assert_allclose(info, ref_info, rtol=1e-10, atol=1e-10 * scale)


def _blas_is_openblas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return False
    return "openblas" in blas.lower()


# the fit, and the kernel at its MLE and at two other points: the
# log-likelihood only decides step halving, so a thread-dependent ll need not
# move the fit's own bytes, and one point may round alike by chance
BLAS_THREADS_FIT = """
import sys
import numpy as np
from smcimpute.fitters import cox_loglik, fit_cox
from smcimpute.simlab import gen_cox

d = gen_cox(100_000, np.random.default_rng(3))
X = np.column_stack([d.column("x1").values, d.column("x2").values])
time, event = d.column("w").values, d.column("d").values
fit = fit_cox(X, time, event)
sys.stdout.write(fit.beta.tobytes().hex() + " " + fit.covariance.tobytes().hex())
for beta in (fit.beta, np.array([0.9, 1.1]), np.array([0.5, -0.5])):
    ll, score, info = cox_loglik(X, time, event, beta)
    sys.stdout.write(" " + np.float64(ll).tobytes().hex() + score.tobytes().hex()
                     + info.tobytes().hex())
"""


@pytest.mark.skipif(not _blas_is_openblas(), reason="numpy's BLAS is not OpenBLAS")
def test_cox_fit_bytes_do_not_depend_on_the_blas_thread_count():
    src = os.path.dirname(os.path.dirname(fitters.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        outputs.append(subprocess.run([sys.executable, "-c", BLAS_THREADS_FIT], env=env,
                                      capture_output=True, text=True, check=True).stdout)
    assert outputs[0] and outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# step cumulative hazard and covariance structure

def test_step_cumhazard_evaluation_rules():
    h = StepCumHazard(knots=np.array([1.0, 2.0]), cumvals=np.array([0.5, 1.25]))
    assert float(h(0.999)) == 0.0  # exactly zero before the first knot
    assert float(h(1.0)) == 0.5  # right-continuous: knot carries its jump
    assert float(h(1.5)) == 0.5
    assert float(h(2.0)) == 1.25
    assert float(h(99.0)) == 1.25  # flat extension


def test_step_cumhazard_rejects_decreasing():
    with pytest.raises(ValueError):
        StepCumHazard(knots=np.array([1.0, 2.0]), cumvals=np.array([1.0, 0.5]))


@pytest.mark.parametrize("knots, cumvals, message", [
    ([1.0, np.nan], [0.1, 0.2], "knots must be strictly ascending"),
    ([np.nan], [0.1], "knots must be strictly ascending"),
    ([1.0, 2.0], [0.1, np.nan], "cumulative hazard must be nonnegative"),
    ([1.0, 2.0], [np.nan, 0.2], "cumulative hazard must be nonnegative"),
])
def test_step_cumhazard_rejects_nan(knots, cumvals, message):
    # NaN compares false with everything, so an ordering check alone lets it through
    with pytest.raises(ValueError, match=message):
        StepCumHazard(knots=np.array(knots), cumvals=np.array(cumvals))


def test_step_cumhazard_accepts_an_infinite_last_knot():
    # cox_layout accepts an infinite time, so a Breslow step can sit there
    h = StepCumHazard(knots=np.array([1.0, np.inf]), cumvals=np.array([0.5, 1.0]))
    assert float(h(5.0)) == 0.5 and float(h(np.inf)) == 1.0


def test_covariances_pass_cholesky():
    rng = rng0(16)
    n = 300
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = (rng.random(n) < expit(X @ np.array([0.2, 0.5]))).astype(float)
    glm = fit_logistic(X, y)
    np.linalg.cholesky(glm.covariance)
    Xc = rng.normal(size=(n, 2))
    time = rng.exponential(1.0, n) + 1e-3
    cox = fit_cox(Xc, time, np.ones(n))
    np.linalg.cholesky(cox.covariance)
    assert np.array_equal(glm.covariance, glm.covariance.T)
    assert np.array_equal(cox.covariance, cox.covariance.T)


# ---------------------------------------------------------------------------
# Newton step halving at large n, where |ll| ~ 1e5 and rounding noise in ll
# exceeds any fixed absolute tolerance

@pytest.mark.parametrize("seed", [0, 2])
def test_cox_converges_at_n_1e5(seed):
    from smcimpute.simlab import gen_cox

    d = gen_cox(100_000, rng0(seed))
    X = np.column_stack([d.column("x1").values, d.column("x2").values])
    fit = fit_cox(X, d.column("w").values, d.column("d").values)
    _, score, _ = cox_loglik(X, d.column("w").values, d.column("d").values, fit.beta)
    assert np.linalg.norm(score) < 1e-8
    np.testing.assert_allclose(fit.beta, [1.0, 1.0], atol=0.03)


def test_logistic_converges_at_n_1e5():
    # the covariate model of a binary x1 given a continuous x2 ~ N(x1, 1)
    rng = rng0(8)
    n = 100_000
    y = (rng.random(n) < 0.5).astype(float)
    X = np.column_stack([np.ones(n), rng.normal(y, 1.0)])
    fit = fit_logistic(X, y)
    assert fit.iterations < 10
    _, score, _ = logistic_loglik(X, y, fit.beta)
    assert np.linalg.norm(score) < 1e-8


# ---------------------------------------------------------------------------
# symmetric positive-definite solves

def _random_spd(rng, k, cond):
    q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    eig = np.exp(rng.uniform(0.0, np.log(cond), k))
    eig[0], eig[-1] = 1.0, cond
    a = (q * eig) @ q.T * 10.0 ** rng.uniform(-3, 3)
    return 0.5 * (a + a.T)


def test_spd_solve_matches_scipy_cho_solve():
    from scipy.linalg import cho_factor, cho_solve

    rng = rng0(30)
    eps = np.finfo(float).eps
    for _ in range(400):
        k = int(rng.integers(1, 9))
        a = _random_spd(rng, k, 10.0 ** rng.uniform(0, 8))
        # two backward-stable solvers can differ by up to about cond * eps
        tol = max(1e-12, np.linalg.cond(a) * eps)
        for b in (rng.normal(size=k), np.eye(k)):
            ref = cho_solve(cho_factor(a, lower=True), b)
            x = _spd_solve(a, b, "not positive definite")
            assert np.linalg.norm(x - ref) <= tol * np.linalg.norm(ref)


@pytest.mark.parametrize("a, b", [
    ([[1.0, 2.0], [2.0, 1.0]], [1.0, 1.0]),
    ([[1.0, 0.0], [0.0, -1e-300]], [1.0, 1.0]),
    ([[1.0, 0.0], [0.0, np.nan]], [1.0, 1.0]),
    ([[np.inf, 0.0], [0.0, 1.0]], [1.0, 1.0]),
    ([[1.0, 0.0], [0.0, 1.0]], [1.0, np.nan]),
])
def test_spd_solve_rejects_indefinite_and_non_finite(a, b):
    # a non-finite input is named as such, not by the caller's message
    finite = np.all(np.isfinite(a)) and np.all(np.isfinite(b))
    message = "call site message" if finite else NON_FINITE
    with pytest.raises(FitError, match=f"^{message}$"):
        _spd_solve(np.array(a), np.array(b), "call site message")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_multivariate_normal_draw_rejects_non_finite_covariance(bad):
    cov = np.array([[1.0, 0.0], [0.0, bad]])
    with pytest.raises(FitError, match=f"^{NON_FINITE}$"):
        multivariate_normal_draw(np.zeros(2), cov, rng0(0))


def _fit(family, X):
    rng = rng0(31)
    n = X.shape[0]
    if family == "linear":
        return fit_linear(X, rng.normal(size=n))
    if family == "logistic":
        return fit_logistic(X, (rng.random(n) < 0.5).astype(float))
    return fit_cox(X, rng.exponential(1.0, n) + 1e-3, np.ones(n))


@pytest.mark.parametrize("family", ["linear", "logistic", "cox"])
def test_fits_reject_a_nan_design_cell(family):
    X = rng0(32).normal(size=(60, 2))
    X[7, 1] = np.nan
    with pytest.raises(FitError):
        _fit(family, X)


def test_linear_rejects_a_nan_response():
    X = np.column_stack([np.ones(5), np.arange(5.0)])
    with pytest.raises(FitError):
        fit_linear(X, np.array([0.0, 1.0, np.nan, 3.0, 4.0]))


@pytest.mark.parametrize("big", [1e200, -1e160])
def test_linear_fit_whose_sum_of_squares_overflows_is_a_fit_error(big):
    # an overflowing SSE must not pass for a perfect fit (SSE 0, sigma2 0),
    # and the overflow is refused without a RuntimeWarning
    X = np.column_stack([np.ones(5), np.arange(5.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FitError, match="residual sum of squares overflows"):
            fit_linear(X, np.array([0.0, 1.0, big, 3.0, 4.0]))


def test_linear_rejects_collinear_design_whose_cross_product_rounds_indefinite():
    x = np.array([0.1, 0.2, 0.3, 0.7, 1.1])
    X = np.column_stack([np.ones(5), x, 3.0 * x])
    with pytest.raises(FitError, match="rank deficient"):
        fit_linear(X, x)


@pytest.mark.parametrize("family, loglik, message", [
    ("logistic", "logistic_loglik", "observed information is singular"),
    ("cox", "_cox_terms", "Cox information matrix is singular"),
])
def test_newton_fits_reject_indefinite_information(monkeypatch, family, loglik, message):
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    monkeypatch.setattr(fitters, loglik, lambda *a, **kw: (0.0, np.ones(2), indefinite))
    with pytest.raises(FitError, match=f"^{message}$"):
        _fit(family, rng0(32).normal(size=(60, 2)))


@pytest.mark.parametrize("family, message", [
    ("logistic", r"logistic fit did not converge \(separation\?\)"),
    ("cox", "Cox fit did not converge"),
], ids=["logistic", "cox"])
def test_newton_fits_raise_after_max_iter(monkeypatch, family, message):
    monkeypatch.setattr(fitters, "MAX_ITER", 1)
    X = rng0(33).normal(size=(200, 2))
    with pytest.raises(FitError, match=f"^{message}$"):
        _fit(family, X)


def test_cox_fit_makes_one_risk_set_pass_per_loglik_call(monkeypatch):
    from smcimpute.simlab import gen_cox

    d = gen_cox(300, rng0(34))
    X = np.column_stack([d.column("x1").values, d.column("x2").values])
    loglik = mock.Mock(wraps=fitters._cox_terms)
    passes = mock.Mock(wraps=fitters._risk_set_sums)
    monkeypatch.setattr(fitters, "_cox_terms", loglik)
    monkeypatch.setattr(fitters, "_risk_set_sums", passes)
    time, event = d.column("w").values, d.column("d").values
    fit_cox(X, time, event)
    assert loglik.call_count > 1
    # the fit computes no Breslow baseline at the solution
    assert passes.call_count == loglik.call_count
    # the fit sorts its design by time once, and every kernel call gets that array
    designs = [call.args[0] for call in loglik.call_args_list]
    assert all(xs is designs[0] for xs in designs)
    assert designs[0].tobytes() == X[cox_layout(time, event).order].tobytes()


def test_cox_fit_records_its_newton_iterations():
    rng = rng0(36)
    n = 200
    X = rng.normal(size=(n, 2))
    time = rng.exponential(1.0, n) * np.exp(-X[:, 0]) + 1e-3
    event = (rng.random(n) < 0.8).astype(float)
    fit = fit_cox(X, time, event)
    assert 1 < fit.iterations < 10
    # a warm start at the MLE takes the one step that confirms it
    assert fit_cox(X, time, event, beta0=fit.beta).iterations == 1


def test_cox_fit_without_events_is_a_fit_error():
    X = rng0(37).normal(size=(10, 1))
    with pytest.raises(FitError, match="^no events observed$"):
        fit_cox(X, np.arange(1.0, 11.0), np.zeros(10))


def test_breslow_risk_set_overflow_is_a_fit_error():
    # 2e4 rows at the eta clip of 700 sum past the largest double
    rng = rng0(35)
    n = 20_000
    X = rng.normal(10.0, 1.0, size=(n, 1))
    time = rng.exponential(1.0, n) + 1e-3
    with np.errstate(over="ignore"), pytest.raises(FitError, match="overflows"):
        breslow_baseline(X, time, np.ones(n), np.array([100.0]))
