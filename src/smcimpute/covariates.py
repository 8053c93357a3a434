"""Conditional covariate models f(target | other covariates).

These serve double duty: imputation models in standard chained-equations
imputation, and proposal densities for the substantive-model-compatible
sampler.  Families are normal linear (continuous targets) and logistic
(binary targets); their fits, posterior draws and sampling are the
FAMILIES objects of the substantive module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import VariableKind
from .formula import Term, design_from_arrays
from .substantive import FAMILIES, log_ratio_discrete

__all__ = [
    "CovariateModelSpec",
    "CovariateParams",
    "covariate_family",
    "fit_and_draw_arrays",
    "sample_covariate",
    "log_conditional_density",
]

COVARIATE_FAMILIES = ("normal_linear", "logistic")


def covariate_family(kind: VariableKind) -> str:
    """The covariate-model family for a column kind."""
    return "logistic" if kind is VariableKind.BINARY else "normal_linear"


@dataclass(frozen=True)
class CovariateModelSpec:
    """Model for one partial covariate given the other variables.

    predictors=None means the engine fills in the default: every other
    covariate at power one (plus outcome terms for standard chained
    equations, which are configured by the engine, not here).
    """

    target: str
    family: str
    predictors: tuple[Term, ...] | None = None
    intercept: bool = True

    def __post_init__(self):
        if self.family not in COVARIATE_FAMILIES:
            raise ValueError(f"unknown covariate family {self.family!r}")
        if self.predictors is not None:
            object.__setattr__(self, "predictors", tuple(self.predictors))
            for t in self.predictors:
                if self.target in t.variables:
                    raise ValueError(f"target {self.target} may not appear among its predictors")

    @property
    def predictor_variables(self) -> tuple[str, ...]:
        seen: list[str] = []
        for t in self.predictors or ():
            for v in t.variables:
                if v not in seen:
                    seen.append(v)
        return tuple(seen)


@dataclass(frozen=True)
class CovariateParams:
    beta: np.ndarray
    sigma2: float | None = None  # normal family only

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        if self.sigma2 is not None and self.sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")


def _spec_design(spec: CovariateModelSpec, cols, n: int) -> np.ndarray:
    if spec.predictors is None:
        raise ValueError("spec predictors not resolved; engine must fill defaults")
    return design_from_arrays(spec.predictors, spec.intercept, cols, n)


def fit_and_draw_arrays(spec, X, y, rng, beta0=None):
    """Fit the covariate model to (X, y) and take one posterior draw; returns (draw, fit)."""
    model = FAMILIES[spec.family]
    fit = model.fit(X, y, beta0)
    beta, sigma2 = model.posterior(fit, rng)
    return CovariateParams(beta=beta, sigma2=sigma2), fit


def _row_design(spec: CovariateModelSpec, row, size: int) -> np.ndarray:
    cols = {v: np.asarray(row[v], dtype=float) for v in spec.predictor_variables}
    return _spec_design(spec, cols, size)


def sample_covariate(spec, params: CovariateParams, row, rng, size: int):
    """Draw `size` target values given the other covariates.

    `row` maps predictor names to arrays of length `size`.
    """
    mu = _row_design(spec, row, size) @ params.beta
    return FAMILIES[spec.family].sample(params, mu, rng)


def log_conditional_density(spec, params: CovariateParams, row, value, size: int):
    """Log mass of the 0/1 `value` under a logistic covariate model given `row`."""
    g = _row_design(spec, row, size) @ params.beta
    return log_ratio_discrete(value, g)
