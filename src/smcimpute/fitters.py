"""Maximum-likelihood fitters, posterior draws, and hazard estimators.

The logistic and Cox fits run one Newton-Raphson loop, `_newton`.  It
evaluates the log-likelihood, score and information once per candidate step,
halves a step whenever it would decrease the log-likelihood by more than a
relative 1e-12, and stops when the score norm drops below 1e-8.  Divergence
(separation in logistic regression, monotone partial likelihood in Cox
regression) is declared when the standard deviation of the linear predictor
X beta across the rows exceeds 30, which does not depend on where a covariate
sits or on the intercept.  Every fit failure, divergence and 50 iterations
without convergence included, raises FitError with the fit's own message.
Both return a NewtonFit.  A Cox risk-set layout sorts the times once; the
distinct event times and their tie counts are run lengths of the event times
in that order, so no second sort runs.  A Cox fit orders its design by the
layout once, and each step runs the kernel that cox_loglik also calls.  The
kernel forms the information from one weighted Gram matrix, X' diag(w L) X
with L the Breslow cumulative hazard at each row, in O(nk) memory rather
than O(nk^2).

Every symmetric positive-definite solve (normal equations, Newton step,
inverse information) goes through one numpy Cholesky factorization, as does
the multivariate normal draw.  A matrix with a non-finite entry, or one that
is not positive definite, raises FitError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._special import expit, log_expit

__all__ = [
    "FitError",
    "LinearFit",
    "NewtonFit",
    "CoxLayout",
    "StepCumHazard",
    "fit_linear",
    "draw_linear_posterior",
    "fit_logistic",
    "run_lengths",
    "cox_layout",
    "fit_cox",
    "breslow_baseline",
    "nelson_aalen",
    "logistic_loglik",
    "cox_loglik",
    "multivariate_normal_draw",
]

SCORE_TOL = 1e-8
MAX_ITER = 50
# a step is halved only if it lowers the log-likelihood by more than this
# share of |ll|; an absolute bound would sit below one ulp of ll at large n
HALVING_TOL = 1e-12
DIVERGENCE_THRESHOLD = 30.0
NON_FINITE = "a matrix of the fit has a NaN or infinite entry; an input may overflow"


class FitError(RuntimeError):
    """Fit cannot be completed (rank deficiency, divergence, bad inputs)."""


def _cholesky(a, message: str) -> np.ndarray:
    """Lower Cholesky factor L (a = L L') of a symmetric positive-definite matrix.

    Raises FitError(message) when a is not positive definite, and FitError
    naming a non-finite matrix (an overflow, say) when a has a NaN or inf
    entry: np.linalg.cholesky passes those through silently.
    """
    if not np.all(np.isfinite(a)):
        raise FitError(NON_FINITE)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise FitError(message) from exc


def _spd_solve(a, b, message: str) -> np.ndarray:
    """x with a x = b for symmetric positive-definite a, by its Cholesky factor.

    b may be a vector or a matrix; b = I gives the inverse of a.  A non-finite
    b is refused as _cholesky refuses a non-finite a.  numpy has no
    triangular solve, so the small factor is inverted once and applied twice.
    """
    lower_inv = np.linalg.inv(_cholesky(a, message))
    if not np.all(np.isfinite(b)):
        raise FitError(NON_FINITE)
    return lower_inv.T @ (lower_inv @ b)


def _inverse_information(info, message: str) -> np.ndarray:
    """Covariance of a Newton fit: the inverse information, symmetrized."""
    cov = _spd_solve(info, np.eye(info.shape[0]), message)
    return 0.5 * (cov + cov.T)


def _newton(loglik, X, beta0, *, singular: str, diverged: str, stalled: str):
    """Newton-Raphson maximization of `loglik(beta) -> (ll, score, info)`.

    Starts at beta0 (zeros when None).  Each candidate step costs one loglik
    call, and the accepted candidate's score and information drive the next
    step.  Returns (beta, info, iterations) once the score norm is below
    SCORE_TOL.  Raises FitError(singular) on an information matrix that is
    not positive definite, FitError(diverged) when the spread of the linear
    predictor, np.std(X @ beta), exceeds DIVERGENCE_THRESHOLD, and
    FitError(stalled) after MAX_ITER iterations.
    """
    beta = np.zeros(X.shape[1]) if beta0 is None else np.asarray(beta0, dtype=float)
    ll, score, info = loglik(beta)
    for iterations in range(1, MAX_ITER + 1):
        step = _spd_solve(info, score, singular)
        scale = 1.0
        for _ in range(30):
            candidate = beta + scale * step
            ll_new, score_new, info_new = loglik(candidate)
            if ll_new >= ll - HALVING_TOL * max(1.0, abs(ll)):
                break
            scale *= 0.5
        beta, ll, score, info = candidate, ll_new, score_new, info_new
        if np.std(X @ beta) > DIVERGENCE_THRESHOLD:
            raise FitError(diverged)
        if np.linalg.norm(score) < SCORE_TOL:
            return beta, info, iterations
    raise FitError(stalled)


@dataclass(frozen=True, eq=False)
class NewtonFit:
    """A logistic or Cox MLE from `_newton`."""

    beta: np.ndarray
    covariance: np.ndarray  # inverse observed information at the MLE
    iterations: int
    df = np.inf  # an interval takes the normal quantile, t_quantile(inf, p)

    def coef_variances(self) -> np.ndarray:
        return np.diag(self.covariance)


def multivariate_normal_draw(mean, cov, rng) -> np.ndarray:
    """One draw from N(mean, cov) via the Cholesky factor of cov."""
    mean = np.asarray(mean, dtype=float)
    lower = _cholesky(cov, "covariance matrix is not positive definite")
    return mean + lower @ rng.standard_normal(mean.shape[0])


# ---------------------------------------------------------------------------
# normal linear regression

@dataclass(frozen=True, eq=False)
class LinearFit:
    beta: np.ndarray
    sigma2: float  # SSE / (n - k)
    xtx_inverse: np.ndarray
    n: int
    k: int

    @property
    def df(self) -> int:
        """Residual degrees of freedom, n - k: of sigma2, and of an interval's t quantile."""
        return self.n - self.k

    @property
    def sse(self) -> float:
        return self.sigma2 * self.df

    def coef_variances(self) -> np.ndarray:
        return self.sigma2 * np.diag(self.xtx_inverse)


def fit_linear(X: np.ndarray, y: np.ndarray) -> LinearFit:
    """Least squares via the normal equations; requires n > k, full column rank."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, k = X.shape
    if n <= k:
        raise FitError(f"need more rows than columns (n={n}, k={k})")
    # one factorization solves for beta and for (X'X)^-1 together
    solved = _spd_solve(X.T @ X, np.column_stack((X.T @ y, np.eye(k))),
                        "design matrix is rank deficient")
    beta, xtx_inv = solved[:, 0], solved[:, 1:]
    resid = y - X @ beta
    with np.errstate(over="ignore"):  # an overflow is refused here, not warned of
        sse, yy = float(resid @ resid), float(y @ y)
    if not (np.isfinite(sse) and np.isfinite(yy)):
        raise FitError("residual sum of squares overflows")
    # a perfect fit leaves rounding dust; snap it to an exact zero
    if sse <= 1e-24 * max(yy, 1.0):
        sse = 0.0
    xtx_inv = 0.5 * (xtx_inv + xtx_inv.T)
    return LinearFit(beta=beta, sigma2=sse / (n - k), xtx_inverse=xtx_inv, n=n, k=k)


def draw_linear_posterior(fit: LinearFit, rng) -> tuple[np.ndarray, float]:
    """Posterior draw under the flat prior on (beta, log sigma2).

    sigma2* = SSE / chi-square(n-k) draw, then beta* ~ N(beta, sigma2* (X'X)^-1).
    A perfect fit (SSE = 0) degenerates to (beta, 0).
    """
    if fit.df <= 0:
        raise FitError("posterior draw needs n > k")
    if fit.sse == 0.0:
        return fit.beta.copy(), 0.0
    sigma2 = fit.sse / rng.chisquare(fit.df)
    beta = multivariate_normal_draw(fit.beta, sigma2 * fit.xtx_inverse, rng)
    return beta, float(sigma2)


# ---------------------------------------------------------------------------
# logistic regression

def logistic_loglik(X: np.ndarray, y: np.ndarray, beta: np.ndarray):
    """Log-likelihood, score, and observed information for logistic regression."""
    eta = X @ beta
    # log p(y) = y*log(expit(eta)) + (1-y)*log(expit(-eta)), and
    # log(expit(eta)) = eta + log(expit(-eta)), so one log_expit pass suffices
    ll = float(np.sum(y * eta + log_expit(-eta)))
    p = expit(eta)
    score = X.T @ (y - p)
    w = p * (1.0 - p)
    info = (X * w[:, None]).T @ X
    return ll, score, info


def fit_logistic(X: np.ndarray, y: np.ndarray, beta0: np.ndarray | None = None) -> NewtonFit:
    """Newton-Raphson MLE; FitError on separation or non-convergence."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise FitError("logistic response must be 0/1")
    failed = "logistic fit did not converge (separation?)"
    beta, info, iterations = _newton(
        lambda b: logistic_loglik(X, y, b), X, beta0,
        singular="observed information is singular", diverged=failed, stalled=failed)
    # the score also vanishes under separation, where every response is
    # predicted perfectly and the information matrix degenerates
    if np.max(np.abs(y - expit(X @ beta))) < 1e-6:
        raise FitError(failed)
    cov = _inverse_information(info, "observed information is singular at the MLE")
    return NewtonFit(beta=beta, covariance=cov, iterations=iterations)


# ---------------------------------------------------------------------------
# step cumulative hazard

@dataclass(frozen=True, eq=False)
class StepCumHazard:
    """Right-continuous step function; zero before the first knot, flat after the last."""

    knots: np.ndarray  # ascending event times
    cumvals: np.ndarray  # nondecreasing cumulative hazard at each knot

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        cumvals = np.asarray(self.cumvals, dtype=float)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "cumvals", cumvals)
        if knots.shape != cumvals.shape or knots.ndim != 1:
            raise ValueError("knots and cumvals must be 1-d arrays of equal length")
        if knots.size:
            # NaN compares false, so it is rejected on its own; an inf knot is kept
            if np.any(np.isnan(knots)) or np.any(np.diff(knots) <= 0):
                raise ValueError("knots must be strictly ascending")
            if np.any(np.isnan(cumvals)) or np.any(np.diff(cumvals) < 0) or cumvals[0] < 0:
                raise ValueError("cumulative hazard must be nonnegative and nondecreasing")

    def __call__(self, t) -> np.ndarray:
        idx = np.searchsorted(self.knots, np.asarray(t, dtype=float), side="right")
        padded = np.concatenate(([0.0], self.cumvals))
        return padded[idx]


# ---------------------------------------------------------------------------
# Cox proportional hazards (Breslow ties)

@dataclass(frozen=True, eq=False)
class CoxLayout:
    """Risk-set layout of one (time, event) response, sorted by time once.

    It depends only on time and event, so an imputation run builds it once
    and every refit of the outcome model reuses it.
    """

    time: np.ndarray
    event: np.ndarray
    order: np.ndarray  # argsort of time
    ds: np.ndarray  # event indicator in time order, as bool
    ev_times: np.ndarray  # distinct event times, ascending
    risk_start: np.ndarray  # first at-risk row (time order) per distinct event time
    d_count: np.ndarray  # events per distinct event time


def run_lengths(values):
    """Start index and length of each run of equal values in a sorted 1-d array."""
    first = np.empty(values.size, dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return starts, np.diff(np.append(starts, values.size))


def cox_layout(time, event) -> CoxLayout:
    """Sort the response by time and index the risk set of each event time.

    The times are sorted once: the distinct event times and their tie counts
    are the runs of equal values among the event times in time order.
    FitError for a time that is not > 0 (NaN included) and for an event that
    is not 0 or 1.  This is the only check of the survival response: every
    Cox fit, Breslow baseline and Nelson-Aalen estimate runs on a layout.
    """
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=float)
    if not np.all(time > 0):
        raise FitError("survival times must be strictly positive")
    if not np.all((event == 0) | (event == 1)):
        raise FitError("event indicators must be 0 or 1")
    order = np.argsort(time, kind="stable")
    ts = time[order]
    ds = event[order].astype(bool)
    events = ts[ds]
    starts, ties = run_lengths(events)
    ev_times = events[starts]
    risk_start = np.searchsorted(ts, ev_times, side="left")
    return CoxLayout(time, event, order, ds, ev_times, risk_start, ties.astype(float))


def _risk_set_sums(xs, beta):
    """Linear predictor, weights exp(eta) and the reverse cumulative sum s0 of
    the weights, for rows in time order."""
    eta = np.clip(xs @ beta, -700, 700)  # keeps exp finite for wild trial steps
    w = np.exp(eta)
    return eta, w, np.cumsum(w[::-1])[::-1]


def _cox_terms(xs, layout: CoxLayout, beta):
    """cox_loglik of the design rows in time order, xs = X[layout.order].

    The information sum_t d_t (S2_t / S0_t - m_t m_t'), with S2_t the
    weighted sum of x x' over the risk set of event time t and m_t its mean
    x, is formed as one weighted Gram matrix: sum_t d_t S2_t / S0_t equals
    X' diag(w L) X, where L_i = sum of d_t / S0_t over the event times whose
    risk set holds row i (the Breslow cumulative hazard at row i).  So the
    kernel needs O(nk) memory, not O(nk^2).
    """
    ds, risk_start, d_count = layout.ds, layout.risk_start, layout.d_count
    eta, w, s0 = _risk_set_sums(xs, beta)
    s1 = np.cumsum((w[:, None] * xs)[::-1], axis=0)[::-1]

    s0_t = s0[risk_start]
    mean_t = s1[risk_start] / s0_t[:, None]
    hazard = np.cumsum(np.bincount(risk_start, d_count / s0_t, xs.shape[0]))

    ll = float(eta[ds].sum() - (d_count * np.log(s0_t)).sum())
    score = xs[ds].sum(axis=0) - (d_count[:, None] * mean_t).sum(axis=0)
    info = (xs * (w * hazard)[:, None]).T @ xs - (mean_t * d_count[:, None]).T @ mean_t
    return ll, score, info


def cox_loglik(X: np.ndarray, time: np.ndarray, event: np.ndarray, beta: np.ndarray):
    """Breslow-tie partial log-likelihood, score, and observed information."""
    layout = cox_layout(time, event)
    return _cox_terms(np.asarray(X, dtype=float)[layout.order], layout, beta)


def fit_cox(
    X: np.ndarray,
    time: np.ndarray,
    event: np.ndarray,
    beta0: np.ndarray | None = None,
    layout: CoxLayout | None = None,
) -> NewtonFit:
    """Cox partial-likelihood MLE.

    `layout` is cox_layout(time, event), built here when not given.
    """
    X = np.asarray(X, dtype=float)
    if layout is None:
        layout = cox_layout(time, event)
    if not np.any(layout.event == 1.0):
        raise FitError("no events observed")
    if np.any(np.all(X == X[:1], axis=0)):  # the std of 1000 copies of 0.1 is 1.4e-17
        raise FitError("constant covariate column in Cox design")
    xs = X[layout.order]
    beta, info, iterations = _newton(
        lambda b: _cox_terms(xs, layout, b), X, beta0,
        singular="Cox information matrix is singular",
        diverged="monotone partial likelihood (diverging linear predictor)",
        stalled="Cox fit did not converge")
    cov = _inverse_information(info, "Cox information matrix is singular at the MLE")
    return NewtonFit(beta=beta, covariance=cov, iterations=iterations)


def breslow_baseline(X, time, event, beta, layout: CoxLayout | None = None) -> StepCumHazard:
    """Baseline cumulative hazard: jump d_t / sum_{risk set} exp(x'beta) at each event time."""
    if layout is None:
        layout = cox_layout(time, event)
    if layout.ev_times.size == 0:
        return StepCumHazard(knots=np.empty(0), cumvals=np.empty(0))
    xs = np.asarray(X, dtype=float)[layout.order]
    _, _, s0 = _risk_set_sums(xs, np.asarray(beta, dtype=float))
    denom = s0[layout.risk_start]
    if np.any(denom <= 0):
        raise FitError("empty risk set at an event time")
    if not np.all(np.isfinite(denom)):
        raise FitError("risk-set sum overflows at an event time")
    jumps = layout.d_count / denom
    return StepCumHazard(knots=layout.ev_times, cumvals=np.cumsum(jumps))


def nelson_aalen(time, event) -> StepCumHazard:
    """Marginal cumulative hazard: jump d_t / n_t at each event time."""
    return breslow_baseline(np.zeros((np.size(time), 0)), time, event, np.zeros(0))

