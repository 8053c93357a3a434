"""Model families: one object per family, their parameters, the
covariate-model spec, and the acceptance ratios.

The rejection sampler that imputes a covariate draws candidates from the
covariate's conditional model and accepts with probability equal to the
outcome density at the candidate divided by its upper bound over the
candidate.  Each outcome family supplies that ratio:

  normal linear   exp(-(y - g)^2 / (2 sigma2))                bound 1/sqrt(2 pi sigma2)
  discrete (0/1)  P(Y = y | g)                                bound 1 (a probability)
  hazards, D=0    exp(-H0(t) e^g)                             survival probability
  hazards, D=1    exp(1 + g - H0(t) e^g) H0(t)                density over its maximum,
                                                              attained where H0(t) e^g = 1

with g the linear predictor at the candidate.  All ratios are available in
log form for exact enumeration of binary covariates.

A family object (registered in FAMILIES under its public name) owns
everything that differs between families: preparing the response once per
run, the warm-started fit, the posterior draw, the response parts of a set
of rows, the log acceptance ratio, and the reference quantile of a
complete-data interval.  Every draw is a `Params`.  The normal linear and
logistic objects are also the covariate models: a `CovariateModelSpec`
holds one with its formula, and adds a posterior draw and direct sampling.
Methods call the fitters through this module's globals, so a wrapper
rebound there sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._special import expit, log_expit, normal_quantile, t_quantile
from .dataset import DataError, VariableKind
from .fitters import (
    FitError,
    StepCumHazard,
    cox_layout,
    draw_cox_posterior,
    draw_glm_posterior,
    draw_linear_posterior,
    fit_cox,
    fit_linear,
    fit_logistic,
)
from .formula import FormulaError, ModelFormula, Term, design_matrix, response_arrays

__all__ = [
    "FAMILIES",
    "Family",
    "NormalLinear",
    "Logistic",
    "Cox",
    "Params",
    "SubstantiveParams",
    "CovariateModelSpec",
    "covariate_family",
    "outcome_family",
    "log_ratio_normal",
    "log_ratio_discrete",
    "log_ratio_cox",
    "shared_response",
    "substantive_estimates",
]


@dataclass(frozen=True)
class Params:
    """Drawn model parameters: coefficients plus the family's extra."""

    beta: np.ndarray
    sigma2: float | None = None  # normal_linear
    baseline: StepCumHazard | None = None  # cox


def SubstantiveParams(family: str, beta, sigma2=None, baseline=None) -> Params:
    """Outcome-model parameters for `family`; ValueError if its extra is missing."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    params = Params(np.asarray(beta, dtype=float), sigma2, baseline)
    FAMILIES[family].validate(params)
    return params


# -- log ratios (vectorized over g) -----------------------------------------

def log_ratio_normal(y, g, sigma2):
    if sigma2 <= 0:
        raise FitError("sigma2 must be positive")
    resid = np.asarray(y, dtype=float) - np.asarray(g, dtype=float)
    return -(resid * resid) / (2.0 * sigma2)


def log_ratio_discrete(y, g):
    y = np.asarray(y, dtype=float)
    g = np.asarray(g, dtype=float)
    return y * log_expit(g) + (1.0 - y) * log_expit(-g)


def log_ratio_cox(cumhaz, event, g):
    """Log acceptance ratio for proportional hazards, both event statuses.

    Requires cumhaz > 0 wherever event == 1: an observed event at zero
    cumulative hazard is inconsistent with the model, and raises FitError.
    """
    cumhaz = np.asarray(cumhaz, dtype=float)
    event = np.asarray(event, dtype=float)
    g = np.asarray(g, dtype=float)
    if np.any((event == 1.0) & (cumhaz <= 0.0)):
        raise FitError("event at zero cumulative hazard")
    with np.errstate(over="ignore"):
        heg = cumhaz * np.exp(g)
    censored_part = -heg
    with np.errstate(divide="ignore"):
        event_part = 1.0 + g - heg + np.log(np.where(cumhaz > 0, cumhaz, 1.0))
    return np.where(event == 1.0, event_part, censored_part)


# -- families ----------------------------------------------------------------

class Family:
    """What a model family supplies.

    `response` is what `prepare` returns for the response arrays of
    formula.response_arrays; `parts` is the tuple `y_parts` returns.
    """

    name: str
    survival = False  # the response is (time, event)
    binary = False  # the response is 0/1

    def validate(self, params: Params) -> None:
        """Raise ValueError if `params` lacks a family extra."""

    def prepare(self, y):
        """The response in the form `fit` and `draw` take; built and checked once per run."""
        return y

    def fit(self, X, response, warm=None):
        """MLE, warm-started at `warm` where the fitter iterates; FitError on failure."""
        raise NotImplementedError

    def posterior(self, fit, rng) -> Params:
        """One posterior draw of a covariate model's parameters."""
        raise NotImplementedError

    def draw(self, fit, X, response, rng) -> Params:
        """One draw of the outcome-model parameters from their posterior."""
        return self.posterior(fit, rng)

    def y_parts(self, formula: ModelFormula, psi: Params, cols, rows) -> tuple:
        """The response quantities the acceptance ratio needs, for `rows`."""
        return (cols[formula.response][rows],)

    def log_ratio(self, psi: Params, parts: tuple, g):
        """Log acceptance ratio at linear predictor `g`."""
        raise NotImplementedError

    def quantile(self, fit, alpha):
        """Reference quantile at `alpha` for an interval from one complete-data fit."""
        return normal_quantile(alpha)


class NormalLinear(Family):
    name = "normal_linear"

    def validate(self, params):
        if params.sigma2 is None or params.sigma2 < 0:
            raise ValueError("normal_linear needs sigma2 >= 0")

    def fit(self, X, response, warm=None):
        return fit_linear(X, response)

    def posterior(self, fit, rng):
        """sigma2 is 0 after a perfect fit."""
        beta, sigma2 = draw_linear_posterior(fit, rng)
        return Params(beta, sigma2)

    def draw(self, fit, X, response, rng):
        params = self.posterior(fit, rng)
        # the acceptance ratio divides by sigma2; as a covariate model a zero
        # variance is fine and sampling returns the mean
        if params.sigma2 <= 0:
            raise FitError("degenerate residual variance in substantive draw")
        return params

    def log_ratio(self, psi, parts, g):
        return log_ratio_normal(*parts, g, psi.sigma2)

    def quantile(self, fit, alpha):
        return t_quantile(fit.n - fit.k, alpha)

    def sample(self, params, mu, rng):
        """Covariate values drawn given their linear predictor `mu`."""
        if params.sigma2 == 0:
            return mu.copy()
        # the same values and generator state as rng.normal(mu, sd), faster
        return mu + np.sqrt(params.sigma2) * rng.standard_normal(mu.shape[0])


class Logistic(Family):
    name = "logistic"
    binary = True

    def prepare(self, y):
        if not np.all((y == 0.0) | (y == 1.0)):
            raise FitError("logistic response must be 0/1")
        return y

    def fit(self, X, response, warm=None):
        return fit_logistic(X, response, beta0=warm)

    def posterior(self, fit, rng):
        return Params(draw_glm_posterior(fit, rng))

    def log_ratio(self, psi, parts, g):
        return log_ratio_discrete(*parts, g)

    def sample(self, params, mu, rng):
        return (rng.random(mu.shape[0]) < expit(mu)).astype(float)


class Cox(Family):
    """Proportional hazards; the prepared response is the risk-set layout."""

    name = "cox"
    survival = True

    def validate(self, params):
        if params.baseline is None:
            raise ValueError("cox needs a baseline cumulative hazard")

    def prepare(self, time, event):
        return cox_layout(time, event)

    def fit(self, X, response, warm=None):
        return fit_cox(X, response.time, response.event, beta0=warm, layout=response)

    def draw(self, fit, X, response, rng):
        beta, baseline = draw_cox_posterior(fit, X, response, rng)
        return Params(beta, baseline=baseline)

    def y_parts(self, formula, psi, cols, rows):
        time_name, event_name = formula.response
        return psi.baseline(cols[time_name][rows]), cols[event_name][rows]

    def log_ratio(self, psi, parts, g):
        return log_ratio_cox(*parts, g)


FAMILIES = {family.name: family for family in (NormalLinear(), Logistic(), Cox())}


def outcome_family(family: str, formula: ModelFormula) -> Family:
    """The family object named `family`, checked against the formula's response."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    model = FAMILIES[family]
    if model.survival != formula.is_survival:
        raise FormulaError("formula response does not match the outcome family")
    return model


def covariate_family(kind: VariableKind) -> str:
    """The covariate-model family for a column kind."""
    return "logistic" if kind is VariableKind.BINARY else "normal_linear"


@dataclass(frozen=True)
class CovariateModelSpec:
    """Model for one partial covariate given the other variables.

    Holds its family object (`model`) and the formula target ~ predictors.
    """

    target: str
    family: str
    predictors: tuple[Term, ...]
    intercept: bool = True
    model: Family = field(init=False, repr=False, compare=False)
    formula: ModelFormula = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        model = FAMILIES.get(self.family)
        if model is None or model.survival:
            raise ValueError(f"unknown covariate family {self.family!r}")
        formula = ModelFormula(self.target, tuple(self.predictors), self.intercept)
        if self.target in formula.variables:
            raise ValueError(f"target {self.target} may not appear among its predictors")
        object.__setattr__(self, "predictors", formula.terms)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "formula", formula)

    @classmethod
    def from_formula(cls, formula: ModelFormula, d) -> "CovariateModelSpec":
        """The spec of a parsed `target ~ predictors` formula for dataset `d`:
        the family follows the kind of the target column.  ValueError (a
        DataError for an unknown target) when the formula cannot be one."""
        if not d.has_column(formula.response):
            raise DataError(f"unknown target column {formula.response!r}")
        return cls(formula.response, covariate_family(d.column(formula.response).kind),
                   formula.terms, formula.intercept)


def substantive_estimates(family: str, formula: ModelFormula, d, response=None):
    """(estimate vector, squared-standard-error vector) of one completed-data fit.

    `response` is the family's prepared response of d; None prepares it here.
    """
    model = outcome_family(family, formula)
    X = design_matrix(formula, d)
    if response is None:
        response = model.prepare(*response_arrays(formula, d))
    fit = model.fit(X, response)
    return fit.beta.copy(), fit.coef_variances().copy()


def shared_response(family: str, formula: ModelFormula, datasets):
    """The prepared response of every dataset when all their response arrays
    are equal, as when only covariates were imputed; else None.  Also None
    when a dataset lacks a complete, valid response, which its own fit reports."""
    model = outcome_family(family, formula)
    try:
        arrays = [response_arrays(formula, d) for d in datasets]
    except (DataError, FormulaError):
        return None
    if not arrays or not all(
        all(map(np.array_equal, other, arrays[0])) for other in arrays[1:]
    ):
        return None
    try:
        return model.prepare(*arrays[0])
    except FitError:  # survival times that are not positive
        return None
