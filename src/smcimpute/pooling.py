"""Combine per-imputation fits of the outcome model.

Point estimate: mean of the M per-imputation estimates.  Variance: mean
within-imputation variance plus (1 + 1/M) times the between-imputation
sample variance.  Degrees of freedom follow the classical large-sample
formula (M - 1)(1 + W / ((1 + 1/M) B))^2; when B = 0 they are infinite,
and t_quantile at infinite df is the normal quantile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._special import t_quantile
from .dataset import write_table
from .fitters import FitError
from .formula import ModelFormula, design_matrix, response_arrays
from .substantive import outcome_family

__all__ = ["PooledEstimate", "PoolError", "fit_each", "pool"]


class PoolError(RuntimeError):
    """Pooling cannot proceed (too few imputations, failed fits)."""

    def __init__(self, message, failed_indices=()):
        super().__init__(message)
        self.failed_indices = tuple(failed_indices)


@dataclass(frozen=True, eq=False)
class PooledEstimate:
    terms: tuple[str, ...]
    point: np.ndarray
    within_var: np.ndarray
    between_var: np.ndarray
    total_var: np.ndarray
    df: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    level: float
    m: int

    def write_csv(self, path) -> None:
        columns = (self.point, np.sqrt(self.total_var), self.df, self.ci_low, self.ci_high)
        write_table(path, ("term", "estimate", "std_error", "df", "ci_low", "ci_high"),
                    zip(self.terms, *(c.tolist() for c in columns)))


def fit_each(result, family: str, formula: ModelFormula):
    """Outcome-model MLE and squared standard errors on each imputed dataset.

    `result` is an ImputationResult or any iterable of completed datasets,
    walked once.  The response (for Cox, its risk-set layout) is prepared
    again only when a dataset's response arrays differ from the previous
    dataset's, so imputations of covariates alone share one.  A formula that
    names an absent column, or one with missing cells, raises FormulaError.
    All fits must succeed; failures abort pooling and name the failing
    imputations (1-based) and the last failure's reason.
    """
    model = outcome_family(family, formula)
    estimates, variances, failed = [], [], []
    arrays = response = None
    for index, d in enumerate(getattr(result, "datasets", result), start=1):
        current = response_arrays(formula, d)
        try:
            if arrays is None or not all(map(np.array_equal, current, arrays)):
                response, arrays = model.prepare(*current), current
            # the fit refuses the non-finite values an overflow leaves, so
            # neither the overflow nor the inf - inf after it is warned of
            with np.errstate(over="ignore", invalid="ignore"):
                fit = model.fit(design_matrix(formula, d), response)
            estimates.append(fit.beta)
            variances.append(fit.coef_variances())
        except FitError as exc:
            failed.append(index)
            error = exc
    if failed:
        raise PoolError(f"substantive fit failed for imputations {failed}: {error}", failed)
    return np.asarray(estimates), np.asarray(variances)


def pool(estimates, variances, level: float = 0.95, terms=None) -> PooledEstimate:
    """Apply the combining rules to per-imputation estimates and variances."""
    estimates = np.asarray(estimates, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if estimates.shape != variances.shape or estimates.ndim != 2:
        raise PoolError("estimates and variances must be equal-shape (M, k) arrays")
    m = estimates.shape[0]
    if m < 2:
        raise PoolError("pooling needs at least 2 imputations")
    if not 0.0 < level < 1.0:
        raise PoolError(f"level must be strictly between 0 and 1, not {level!r}")
    if terms is not None and len(terms) != estimates.shape[1]:
        raise PoolError("label count does not match coefficient count")
    point = estimates.mean(axis=0)
    within = variances.mean(axis=0)
    between = estimates.var(axis=0, ddof=1)
    # the mean of M equal estimates can round off their common value and
    # leave B a few ulps above 0
    equal = np.all(estimates == estimates[0], axis=0)
    point[equal] = estimates[0, equal]
    between[equal] = 0.0
    total = within + (1.0 + 1.0 / m) * between

    # df is inf where B = 0, its limit as B -> 0; a huge finite ratio
    # overflows to inf on squaring
    with np.errstate(over="ignore"):
        ratio = np.divide(within, (1.0 + 1.0 / m) * between,
                          out=np.full_like(within, np.inf), where=between != 0.0)
        df = (m - 1) * (1.0 + ratio) ** 2

    alpha = 0.5 * (1.0 + level)
    half = np.array([t_quantile(nu, alpha) for nu in df]) * np.sqrt(total)
    labels = tuple(terms) if terms is not None else tuple(f"b{i}" for i in range(point.size))
    return PooledEstimate(
        terms=labels,
        point=point,
        within_var=within,
        between_var=between,
        total_var=total,
        df=df,
        ci_low=point - half,
        ci_high=point + half,
        level=level,
        m=m,
    )
