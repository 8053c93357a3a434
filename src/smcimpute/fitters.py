"""Maximum-likelihood fitters, posterior draws, and hazard estimators.

Newton-Raphson fits (logistic, Cox) iterate until the score norm drops below
1e-8 or 50 iterations, with step halving whenever a step would decrease the
log-likelihood by more than a relative 1e-12.  Divergence (separation in
logistic regression, monotone partial likelihood in Cox regression) is
declared when any coefficient exceeds 30 on the scale of its standardized
predictor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit, log_expit

__all__ = [
    "FitError",
    "LinearFit",
    "GlmFit",
    "CoxFit",
    "StepCumHazard",
    "fit_linear",
    "draw_linear_posterior",
    "fit_logistic",
    "draw_glm_posterior",
    "fit_cox",
    "breslow_baseline",
    "nelson_aalen",
    "draw_cox_posterior",
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


class FitError(RuntimeError):
    """Fit cannot be completed (rank deficiency, divergence, bad inputs)."""


def _coef_scales(X: np.ndarray) -> np.ndarray:
    """Per-column predictor SDs, with 1.0 substituted for constant columns."""
    sd = X.std(axis=0)
    return np.where(sd > 0, sd, 1.0)


def _diverged(beta: np.ndarray, scales: np.ndarray) -> bool:
    return bool(np.any(np.abs(beta) * scales > DIVERGENCE_THRESHOLD))


def multivariate_normal_draw(mean, cov, rng) -> np.ndarray:
    """One draw from N(mean, cov) via the Cholesky factor of cov."""
    mean = np.asarray(mean, dtype=float)
    try:
        lower = np.linalg.cholesky(np.asarray(cov, dtype=float))
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise FitError("covariance matrix is not positive definite") from exc
    return mean + lower @ rng.standard_normal(mean.shape[0])


# ---------------------------------------------------------------------------
# normal linear regression

@dataclass(frozen=True)
class LinearFit:
    beta: np.ndarray
    sigma2: float  # SSE / (n - k)
    xtx_inverse: np.ndarray
    n: int
    k: int

    @property
    def sse(self) -> float:
        return self.sigma2 * (self.n - self.k)

    def coef_variances(self) -> np.ndarray:
        return self.sigma2 * np.diag(self.xtx_inverse)


def fit_linear(X: np.ndarray, y: np.ndarray) -> LinearFit:
    """Least squares via the normal equations; requires n > k, full column rank."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, k = X.shape
    if n <= k:
        raise FitError(f"need more rows than columns (n={n}, k={k})")
    xtx = X.T @ X
    try:
        factor = cho_factor(xtx, lower=True)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise FitError("design matrix is rank deficient") from exc
    beta = cho_solve(factor, X.T @ y)
    resid = y - X @ beta
    sse = float(resid @ resid)
    # a perfect fit leaves rounding dust; snap it to an exact zero
    if sse <= 1e-24 * max(float(y @ y), 1.0):
        sse = 0.0
    xtx_inv = cho_solve(factor, np.eye(k))
    xtx_inv = 0.5 * (xtx_inv + xtx_inv.T)
    return LinearFit(beta=beta, sigma2=sse / (n - k), xtx_inverse=xtx_inv, n=n, k=k)


def draw_linear_posterior(fit: LinearFit, rng) -> tuple[np.ndarray, float]:
    """Posterior draw under the flat prior on (beta, log sigma2).

    sigma2* = SSE / chi-square(n-k) draw, then beta* ~ N(beta, sigma2* (X'X)^-1).
    A perfect fit (SSE = 0) degenerates to (beta, 0).
    """
    nu = fit.n - fit.k
    if nu <= 0:
        raise FitError("posterior draw needs n > k")
    if fit.sse == 0.0:
        return fit.beta.copy(), 0.0
    sigma2 = fit.sse / rng.chisquare(nu)
    beta = multivariate_normal_draw(fit.beta, sigma2 * fit.xtx_inverse, rng)
    return beta, float(sigma2)


# ---------------------------------------------------------------------------
# logistic regression

@dataclass(frozen=True)
class GlmFit:
    beta: np.ndarray
    covariance: np.ndarray  # inverse observed information at the MLE
    converged: bool
    iterations: int

    def coef_variances(self) -> np.ndarray:
        return np.diag(self.covariance)


def logistic_loglik(X: np.ndarray, y: np.ndarray, beta: np.ndarray):
    """Log-likelihood, score, and observed information for logistic regression."""
    eta = X @ beta
    # log p(y) = y*log(expit(eta)) + (1-y)*log(expit(-eta))
    ll = float(np.sum(y * log_expit(eta) + (1.0 - y) * log_expit(-eta)))
    p = expit(eta)
    score = X.T @ (y - p)
    w = p * (1.0 - p)
    info = (X * w[:, None]).T @ X
    return ll, score, info


def fit_logistic(X: np.ndarray, y: np.ndarray, beta0: np.ndarray | None = None) -> GlmFit:
    """Newton-Raphson MLE; separation is reported via converged=False."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise FitError("logistic response must be 0/1")
    n, k = X.shape
    scales = _coef_scales(X)
    beta = np.zeros(k) if beta0 is None else np.asarray(beta0, dtype=float).copy()
    ll, score, info = logistic_loglik(X, y, beta)
    iterations = 0
    converged = False
    for iterations in range(1, MAX_ITER + 1):
        try:
            step = cho_solve(cho_factor(info, lower=True), score)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise FitError("observed information is singular") from exc
        scale = 1.0
        for _ in range(30):
            candidate = beta + scale * step
            ll_new, score_new, info_new = logistic_loglik(X, y, candidate)
            if ll_new >= ll - HALVING_TOL * max(1.0, abs(ll)):
                break
            scale *= 0.5
        beta, ll, score, info = candidate, ll_new, score_new, info_new
        if _diverged(beta, scales):
            return GlmFit(beta=beta, covariance=np.full((k, k), np.nan), converged=False,
                          iterations=iterations)
        if np.linalg.norm(score) < SCORE_TOL:
            # the score also vanishes under separation, where every response is
            # predicted perfectly and the information matrix degenerates
            p_hat = expit(X @ beta)
            if np.max(np.abs(y - p_hat)) < 1e-6:
                return GlmFit(beta=beta, covariance=np.full((k, k), np.nan),
                              converged=False, iterations=iterations)
            converged = True
            break
    if not converged:
        return GlmFit(beta=beta, covariance=np.full((k, k), np.nan), converged=False,
                      iterations=iterations)
    try:
        cov = cho_solve(cho_factor(info, lower=True), np.eye(k))
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise FitError("observed information is singular at the MLE") from exc
    cov = 0.5 * (cov + cov.T)
    return GlmFit(beta=beta, covariance=cov, converged=True, iterations=iterations)


def draw_glm_posterior(fit: GlmFit, rng) -> np.ndarray:
    """Asymptotic-normal posterior draw: N(MLE, inverse observed information)."""
    if not fit.converged:
        raise FitError("cannot draw from a non-converged fit")
    return multivariate_normal_draw(fit.beta, fit.covariance, rng)


# ---------------------------------------------------------------------------
# step cumulative hazard

@dataclass(frozen=True)
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
            if np.any(np.diff(knots) <= 0):
                raise ValueError("knots must be strictly ascending")
            if np.any(np.diff(cumvals) < 0) or cumvals[0] < 0:
                raise ValueError("cumulative hazard must be nonnegative and nondecreasing")

    def __call__(self, t) -> np.ndarray:
        idx = np.searchsorted(self.knots, np.asarray(t, dtype=float), side="right")
        padded = np.concatenate(([0.0], self.cumvals))
        return padded[idx]

    def jumps(self) -> np.ndarray:
        return np.diff(np.concatenate(([0.0], self.cumvals)))


# ---------------------------------------------------------------------------
# Cox proportional hazards (Breslow ties)

# the sorted layout depends only on (time, event), which are fixed across the
# many refits an imputation run performs; a tiny byte-keyed memo avoids
# re-sorting per fit
_PREPARE_CACHE: dict = {}


def _cox_prepare(X: np.ndarray, time: np.ndarray, event: np.ndarray):
    key = (time.tobytes(), event.tobytes())
    layout = _PREPARE_CACHE.get(key)
    if layout is None:
        order = np.argsort(time, kind="stable")
        ts = time[order]
        ds = event[order].astype(bool)
        ev_times = np.unique(ts[ds])
        # index of the first at-risk row (sorted ascending) per distinct event time
        risk_start = np.searchsorted(ts, ev_times, side="left")
        d_count = np.bincount(
            np.searchsorted(ev_times, ts[ds]), minlength=ev_times.size
        ).astype(float)
        if len(_PREPARE_CACHE) >= 8:
            _PREPARE_CACHE.clear()
        layout = (order, ts, ds, ev_times, risk_start, d_count)
        _PREPARE_CACHE[key] = layout
    order, ts, ds, ev_times, risk_start, d_count = layout
    return ts, X[order], ds, ev_times, risk_start, d_count


def cox_loglik(X: np.ndarray, time: np.ndarray, event: np.ndarray, beta: np.ndarray):
    """Breslow-tie partial log-likelihood, score, and observed information."""
    X = np.asarray(X, dtype=float)
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=float)
    ts, xs, ds, ev_times, risk_start, d_count = _cox_prepare(X, time, event)
    n, k = xs.shape
    eta = xs @ beta
    eta = np.clip(eta, -700, 700)  # keeps exp finite for wild trial steps
    w = np.exp(eta)
    s0 = np.cumsum(w[::-1])[::-1]
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


def _cox_loglik_only(ts, xs, ds, risk_start, d_count, beta):
    eta = np.clip(xs @ beta, -700, 700)
    w = np.exp(eta)
    s0 = np.cumsum(w[::-1])[::-1]
    return float(eta[ds].sum() - (d_count * np.log(s0[risk_start])).sum())


@dataclass(frozen=True)
class CoxFit:
    beta: np.ndarray
    covariance: np.ndarray  # inverse observed information
    baseline: StepCumHazard

    def coef_variances(self) -> np.ndarray:
        return np.diag(self.covariance)


def fit_cox(
    X: np.ndarray,
    time: np.ndarray,
    event: np.ndarray,
    beta0: np.ndarray | None = None,
) -> CoxFit:
    """Cox partial-likelihood MLE with the Breslow baseline at the solution."""
    X = np.asarray(X, dtype=float)
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=float)
    if np.any(time <= 0):
        raise FitError("survival times must be strictly positive")
    if not np.any(event == 1.0):
        raise FitError("no events observed")
    n, k = X.shape
    scales = _coef_scales(X)
    if np.any(X.std(axis=0) == 0):
        raise FitError("constant covariate column in Cox design")
    ts, xs, ds, ev_times, risk_start, d_count = _cox_prepare(X, time, event)
    beta = np.zeros(k) if beta0 is None else np.asarray(beta0, dtype=float).copy()
    ll, score, info = cox_loglik(X, time, event, beta)
    converged = False
    for _ in range(MAX_ITER):
        try:
            step = cho_solve(cho_factor(info, lower=True), score)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise FitError("Cox information matrix is singular") from exc
        scale = 1.0
        for _ in range(30):
            candidate = beta + scale * step
            ll_new = _cox_loglik_only(ts, xs, ds, risk_start, d_count, candidate)
            if ll_new >= ll - HALVING_TOL * max(1.0, abs(ll)):
                break
            scale *= 0.5
        beta = candidate
        ll, score, info = cox_loglik(X, time, event, beta)
        if _diverged(beta, scales):
            raise FitError("monotone partial likelihood (diverging coefficients)")
        if np.linalg.norm(score) < SCORE_TOL:
            converged = True
            break
    if not converged:
        raise FitError("Cox fit did not converge")
    try:
        cov = cho_solve(cho_factor(info, lower=True), np.eye(k))
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise FitError("Cox information matrix is singular at the MLE") from exc
    cov = 0.5 * (cov + cov.T)
    baseline = breslow_baseline(X, time, event, beta)
    return CoxFit(beta=beta, covariance=cov, baseline=baseline)


def breslow_baseline(X, time, event, beta) -> StepCumHazard:
    """Baseline cumulative hazard: jump d_t / sum_{risk set} exp(x'beta) at each event time."""
    X = np.asarray(X, dtype=float)
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=float)
    beta = np.asarray(beta, dtype=float)
    ts, xs, ds, ev_times, risk_start, d_count = _cox_prepare(X, time, event)
    if ev_times.size == 0:
        return StepCumHazard(knots=np.empty(0), cumvals=np.empty(0))
    w = np.exp(np.clip(xs @ beta, -700, 700))
    s0 = np.cumsum(w[::-1])[::-1]
    denom = s0[risk_start]
    if np.any(denom <= 0):
        raise FitError("empty risk set at an event time")
    jumps = d_count / denom
    return StepCumHazard(knots=ev_times, cumvals=np.cumsum(jumps))


def nelson_aalen(time, event) -> StepCumHazard:
    """Marginal cumulative hazard: jump d_t / n_t at each event time."""
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=float)
    if np.any(time <= 0):
        raise FitError("survival times must be strictly positive")
    return breslow_baseline(np.zeros((time.size, 0)), time, event, np.zeros(0))


def draw_cox_posterior(fit: CoxFit, X, time, event, rng) -> tuple[np.ndarray, StepCumHazard]:
    """beta* ~ N(beta, covariance); baseline re-estimated by Breslow at beta*.

    No posterior uncertainty is attached to the baseline itself beyond its
    re-evaluation at the drawn coefficients.
    """
    beta_star = multivariate_normal_draw(fit.beta, fit.covariance, rng)
    baseline_star = breslow_baseline(X, time, event, beta_star)
    return beta_star, baseline_star
