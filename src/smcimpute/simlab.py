"""Monte-Carlo simulation lab: study designs, missingness, replication runner.

Each study design is one `Study` record in STUDIES, so a new design or
covariate distribution is one table entry.  A record holds the outcome model
(family, formula, true coefficients), a table from covariate distribution
(a scenario's `variant`) to covariate draw, the methods the design allows,
the covariate models of chained-equations imputation, the design's builtin
scenarios and the coefficients scripts/run_study_tables.py reports for them.
Data are generated from the model the study analyses: the linear predictor
is the formula's right-hand side at the true coefficients, and the family
picks the outcome draw and the missingness mechanisms (missing at random is
defined through the outcome y, so a survival study has MCAR only).  The
methods cc, fcs_linear, jav and smcfcs are the table METHODS.  Three designs
are registered:

  quadratic     y = 4 - 4x + x^2 + e, x from a normal, log-normal, or
                two-component normal mixture, all with mean 2 and variance 1
  interaction   y = x1 + x2 + x1*x2 + e, five covariate distributions
  cox           h(t|x) = 0.002 exp(x1 + x2), exponential censoring at rate
                0.002, x1 ~ Bernoulli(0.5), x2|x1 ~ N(x1, 1)

Residual variances are calibrated by a 10^6-draw Monte-Carlo of Var(g(X))
so the true-model R^2 is 0.5; the observation-model intercept for the
missing-at-random mechanism is calibrated by a Newton solve on a 10^6-draw
sample so the marginal observation probability hits its target.  Both
calibrations use dedicated fixed seeds and are scenario constants: the
values for every covariate distribution, and the intercepts at the builtin
observation probability P_OBS, are frozen below as the exact floats the
Monte-Carlo returns (a test recomputes and compares them).  Only a scenario
with another p_obs, which a JSON scenario file can give, runs the
intercept Monte-Carlo (about 0.2 s and 50 MB), once per `run_scenario`
call; the replications, in worker processes too, receive its result.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

import numpy as np

from ._special import expit
from .dataset import Column, Dataset, VariableKind, VariableRole, DataError, check_csv_name
from .engines import (
    CUMHAZ,
    EngineConfig,
    EngineFailure,
    check_integer,
    default_covariate_specs,
    jav_analysis_formula,
    jav_dataset,
    run_fcs,
    run_smcfcs,
)
from .fitters import FitError
from .formula import design_from_arrays, parse_formula, response_arrays
from .pooling import PoolError, fit_each, pool
from .rng import stream, subsequence
from .substantive import FAMILIES, CovariateModelSpec

__all__ = [
    "Study",
    "STUDIES",
    "METHODS",
    "ScenarioConfig",
    "ScenarioSummary",
    "SummaryRow",
    "gen_quadratic",
    "gen_interaction",
    "gen_cox",
    "apply_mcar",
    "apply_mar",
    "calibrate_mar_intercept",
    "residual_variance",
    "mar_intercept",
    "exp_hazard_times",
    "run_scenario",
    "builtin_scenarios",
    "scenario_truth",
]

CALIBRATION_SEED = 932_001  # dedicated root for all calibration draws
CALIBRATION_DRAWS = 1_000_000

COX_BASE_RATE = 0.002

_LOGNORMAL_MU = math.log(math.sqrt(3.2))
_LOGNORMAL_SD = math.sqrt(math.log(1.25))


# ---------------------------------------------------------------------------
# covariate draws: (n, rng) -> the partial-covariate columns

def _column(name, values, kind=VariableKind.CONTINUOUS, role=VariableRole.PARTIAL_COVARIATE):
    return Column(name, kind, role, values, np.ones(values.shape[0], dtype=bool))


def _normal_x(n, rng):
    return (_column("x", rng.normal(2.0, 1.0, n)),)


def _lognormal_x(n, rng):
    return (_column("x", np.exp(rng.normal(_LOGNORMAL_MU, _LOGNORMAL_SD, n))),)


def _mixture_x(n, rng):
    low = rng.random(n) < 0.5
    sd = math.sqrt(0.234)
    return (_column("x", np.where(low, rng.normal(1.125, sd, n), rng.normal(2.875, sd, n))),)


def _bvnormal(n, rng):
    z = rng.standard_normal((n, 2))
    x1 = 2.0 + z[:, 0]
    x2 = 2.0 + 0.5 * z[:, 0] + math.sqrt(0.75) * z[:, 1]
    return _column("x1", x1), _column("x2", x2)


def _bvlognormal(n, rng):
    z = rng.standard_normal((n, 2))
    l1 = _LOGNORMAL_MU + _LOGNORMAL_SD * z[:, 0]
    l2 = _LOGNORMAL_MU + _LOGNORMAL_SD * (0.5 * z[:, 0] + math.sqrt(0.75) * z[:, 1])
    return _column("x1", np.exp(l1)), _column("x2", np.exp(l2))


def _quad_conditional(n, rng):
    x1 = rng.normal(2.0, 1.0, n)
    return _column("x1", x1), _column("x2", rng.normal((x1 - 2.0) ** 2, math.sqrt(2.0)))


def _bern_normal(n, rng):
    x1 = (rng.random(n) < 0.5).astype(float)
    return _column("x1", x1, VariableKind.BINARY), _column("x2", rng.normal(x1, 1.0))


def _bern_lognormal(n, rng):
    x1 = (rng.random(n) < 0.5).astype(float)
    x2 = x1 + np.exp(rng.normal(_LOGNORMAL_MU, _LOGNORMAL_SD, n))
    return _column("x1", x1, VariableKind.BINARY), _column("x2", x2)


# ---------------------------------------------------------------------------
# outcome draws by family: (dgp, variant, linear predictor, rng) -> the
# outcome columns

def _normal_outcome(dgp, variant, eta, rng):
    """y = eta + e, with Var(e) the design's residual variance."""
    sd = math.sqrt(residual_variance(dgp, variant))
    return (_column("y", eta + rng.normal(0.0, sd, eta.shape[0]), role=VariableRole.OUTCOME),)


def _cox_outcome(dgp, variant, eta, rng):
    """Event time at hazard COX_BASE_RATE exp(eta), censored at an
    independent time at hazard COX_BASE_RATE."""
    t = exp_hazard_times(eta, COX_BASE_RATE, rng)
    c = exp_hazard_times(np.zeros(eta.shape[0]), COX_BASE_RATE, rng)
    return (_column("w", np.minimum(t, c), role=VariableRole.TIME),
            _column("d", (t < c).astype(float), VariableKind.BINARY, VariableRole.EVENT))


_OUTCOMES = {"normal_linear": _normal_outcome, "cox": _cox_outcome}


# ---------------------------------------------------------------------------
# methods: (cfg, family, formula, masked data, seed sequence) -> pooled
# estimates and the low and high ends of their 95% intervals

def _complete_case(family, formula, d: Dataset, level=0.95):
    keep = np.ones(d.n, dtype=bool)
    for col in d.partial_covariates():
        keep &= col.observed
    cols = {v: d.column(v).values[keep] for v in formula.variables}
    X = design_from_arrays(formula, cols, int(keep.sum()))
    model = FAMILIES[family]
    fit = model.fit(X, model.prepare(*(r[keep] for r in response_arrays(formula, d))))
    se = np.sqrt(fit.coef_variances())
    q = model.quantile(fit, 0.5 * (1.0 + level))
    return fit.beta, fit.beta - q * se, fit.beta + q * se


def _pooled(result, family, formula):
    estimates, variances = fit_each(result, family, formula)
    pooled = pool(estimates, variances)
    return pooled.point, pooled.ci_low, pooled.ci_high


def _fcs_linear(cfg, family, formula, d, seq):
    """Chained equations with the study's covariate models."""
    specs = tuple(CovariateModelSpec.from_formula(parse_formula(text), d)
                  for text in STUDIES[cfg.dgp].fcs_models)
    config = EngineConfig(method="fcs", m=cfg.m, seed=seq, covariate_specs=specs)
    return _pooled(run_fcs(d, config), family, formula)


def _jav(cfg, family, formula, d, seq):
    """Chained equations on the outcome model's terms as free-standing columns."""
    dj = jav_dataset(formula, d)
    config = EngineConfig(method="fcs", m=cfg.m, seed=seq,
                          covariate_specs=default_covariate_specs(dj, "fcs"))
    return _pooled(run_fcs(dj, config), family, jav_analysis_formula(formula))


def _smcfcs(cfg, family, formula, d, seq):
    config = EngineConfig(method="smcfcs", m=cfg.m, seed=seq, substantive=(family, formula),
                          covariate_specs=default_covariate_specs(d, "smcfcs"))
    return _pooled(run_smcfcs(d, config), family, formula)


METHODS = {
    "cc": lambda cfg, family, formula, d, seq: _complete_case(family, formula, d),
    "fcs_linear": _fcs_linear,
    "jav": _jav,
    "smcfcs": _smcfcs,
}


# ---------------------------------------------------------------------------
# study designs

@dataclass(frozen=True)
class Study:
    """One simulation design; see the module docstring."""

    family: str  # outcome-model family
    formula: str  # outcome model
    beta: tuple[float, ...]  # true coefficients
    draws: dict[str | None, Callable]  # variant -> covariate draw
    methods: tuple[str, ...]
    fcs_models: tuple[str, ...]  # fcs_linear's covariate models, "target ~ predictors"
    reported: tuple[str, ...]  # coefficients scripts/run_study_tables.py prints
    # builtin scenario name -> its ScenarioConfig fields; methods default to
    # every method the study allows
    builtins: dict[str, dict]


def _grid(prefix, variants, **fields):
    """Builtin scenarios: each covariate distribution (short name: variant)
    under each missingness mechanism."""
    return {f"{prefix}-{short}-{mechanism}": dict(variant=variant, mechanism=mechanism, **fields)
            for short, variant in variants.items() for mechanism in ("mcar", "mar")}


STUDIES = {
    "quadratic": Study(
        family="normal_linear", formula="y ~ x + x^2", beta=(4.0, -4.0, 1.0),
        draws={"normal": _normal_x, "lognormal": _lognormal_x, "normal_mixture": _mixture_x},
        methods=tuple(METHODS), fcs_models=("x ~ y",), reported=("x^2",),
        builtins=_grid("quad", {"normal": "normal", "lognormal": "lognormal",
                                "mixture": "normal_mixture"},
                       methods=("fcs_linear", "jav", "smcfcs")),
    ),
    "interaction": Study(
        family="normal_linear", formula="y ~ x1 + x2 + x1*x2", beta=(0.0, 1.0, 1.0, 1.0),
        draws={"bvnormal": _bvnormal, "bvlognormal": _bvlognormal,
               "quad_conditional": _quad_conditional, "bern_normal": _bern_normal,
               "bern_lognormal": _bern_lognormal},
        methods=tuple(METHODS), fcs_models=("x1 ~ y + x2 + y*x2", "x2 ~ y + x1 + y*x1"),
        reported=("x1", "x1*x2"),
        builtins=_grid("interact", {"bvnormal": "bvnormal", "bvlognormal": "bvlognormal",
                                    "quadcond": "quad_conditional",
                                    "bernnormal": "bern_normal",
                                    "bernlognormal": "bern_lognormal"}),
    ),
    "cox": Study(
        family="cox", formula="surv(w,d) ~ x1 + x2", beta=(1.0, 1.0),
        draws={None: _bern_normal}, methods=("cc", "fcs_linear", "smcfcs"),
        fcs_models=(f"x1 ~ x2 + d + {CUMHAZ}", f"x2 ~ x1 + d + {CUMHAZ}"),
        reported=("x1", "x2"),
        builtins={f"cox-n{n}": dict(variant=None, mechanism="mcar", n=n) for n in (1000, 100)},
    ),
}


def _mechanisms(study: Study) -> tuple[str, ...]:
    """Missing at random is defined through the outcome y, which a survival study lacks."""
    return ("mcar",) if FAMILIES[study.family].survival else ("mcar", "mar")


def _draw_linpred(dgp, variant, n: int, rng):
    """n draws of a study's partial-covariate columns from its covariate
    distribution `variant`, and their linear predictor: the right-hand side
    of the study's formula at its true coefficients."""
    study = STUDIES.get(dgp)
    if study is None or variant not in study.draws:
        raise ValueError(f"unknown {dgp} covariate distribution {variant!r}")
    covariates = study.draws[variant](n, rng)
    formula, beta = parse_formula(study.formula), iter(study.beta)
    cols = {c.name: c.values for c in covariates}
    # term by term, not design_from_arrays(...) @ beta, whose rounding would move every draw
    eta = next(beta) if formula.intercept else 0.0
    for term in formula.terms:
        eta = eta + next(beta) * term.evaluate(cols)
    return covariates, eta


# ---------------------------------------------------------------------------
# calibration

P_OBS = 0.7  # observation probability of every builtin scenario

# _residual_variance_mc(dgp, variant), as repr round-trip literals
_RESIDUAL_VARIANCE = {
    ("quadratic", "normal"): 1.9971020881588468,
    ("quadratic", "lognormal"): 6.908428479662657,
    ("quadratic", "normal_mixture"): 0.8251196855826165,
    ("interaction", "bvnormal"): 28.237421530037576,
    ("interaction", "bvlognormal"): 36.114562033434346,
    ("interaction", "quad_conditional"): 60.329889608537,
    ("interaction", "bern_normal"): 4.749149946969819,
    ("interaction", "bern_lognormal"): 8.75323636807722,
}

# _mar_intercept_mc(dgp, variant, P_OBS), as repr round-trip literals
_MAR_INTERCEPT = {
    ("quadratic", "normal"): (1.4745306059351262, -0.5000108237577402),
    ("quadratic", "lognormal"): (1.2030451241999285, -0.27031796614802),
    ("quadratic", "normal_mixture"): (1.7740089620944297, -0.7788730398507113),
    ("interaction", "bvnormal"): (2.1382908385309367, -0.13304107030415555),
    ("interaction", "bvlognormal"): (1.9735460206575828, -0.1177032274866427),
    ("interaction", "quad_conditional"): (1.4327424932025479, -0.09137398134030476),
    ("interaction", "bern_normal"): (1.4979836328796896, -0.324313994808709),
    ("interaction", "bern_lognormal"): (2.0879242931364743, -0.2392590396704076),
}


def residual_variance(dgp: str, variant: str) -> float:
    """Var(g(X)), so that adding noise of this variance gives R^2 = 0.5."""
    if (dgp, variant) in _RESIDUAL_VARIANCE:
        return _RESIDUAL_VARIANCE[dgp, variant]
    return _residual_variance_mc(dgp, variant)  # no such (dgp, variant): raises ValueError


def _residual_variance_mc(dgp: str, variant: str) -> float:
    """Var(g(X)) over 10^6 draws from the calibration stream."""
    study = STUDIES.get(dgp)
    if study is None or study.family != "normal_linear":
        raise ValueError(f"no residual variance for dgp {dgp!r}")
    rng = stream(CALIBRATION_SEED, "sigma", dgp, variant)
    _, g = _draw_linpred(dgp, variant, CALIBRATION_DRAWS, rng)
    return float(np.var(g))


def calibrate_mar_intercept(y_sample, alpha1: float, target_p: float) -> float:
    """alpha0 with mean(expit(alpha0 + alpha1 * y)) = target_p to within 1e-6.

    The gap mean(p) - target_p is strictly increasing in alpha0 with slope
    mean(p (1 - p)) and |gap''| <= gap', so near the root a Newton step
    leaves an error of about half its square or less, and the solve stops
    after a step below 1e-9.  Steps that would leave the bracket [lo, hi]
    around the root, which starts at [-60, 60] and shrinks with every
    evaluation, are replaced by bisection.
    """
    if not 0.0 < target_p < 1.0:
        raise ValueError("target observation probability must be in (0, 1)")
    y = np.asarray(y_sample, dtype=float)
    lo, hi, alpha0 = -60.0, 60.0, 0.0
    for _ in range(200):
        p = expit(alpha0 + alpha1 * y)
        gap = float(np.mean(p)) - target_p
        if gap < 0.0:
            lo = alpha0
        else:
            hi = alpha0
        slope = float(np.mean(p * (1.0 - p)))
        step = gap / slope if slope > 0.0 else math.inf
        if not lo <= alpha0 - step <= hi:
            step = alpha0 - 0.5 * (lo + hi)
        alpha0 -= step
        if abs(step) < 1e-9:
            break
    assert abs(gap) < 1e-6
    return alpha0


def mar_intercept(dgp: str, variant: str, target_p: float) -> tuple[float, float]:
    """(alpha0, alpha1) for observation model expit(alpha0 + alpha1 * y).

    alpha1 = -1 / SD(Y); alpha0 calibrated so the marginal observation
    probability equals target_p.  Frozen for target_p == P_OBS.
    """
    if target_p == P_OBS and (dgp, variant) in _MAR_INTERCEPT:
        return _MAR_INTERCEPT[dgp, variant]
    return _mar_intercept_mc(dgp, variant, target_p)


def _mar_intercept_mc(dgp: str, variant: str, target_p: float) -> tuple[float, float]:
    """mar_intercept from a 10^6-draw sample of the calibration stream."""
    study = STUDIES.get(dgp)
    if study is None or "mar" not in _mechanisms(study):
        raise ValueError("the missing-at-random mechanism is defined through the outcome y")
    rng = stream(CALIBRATION_SEED, "mar", dgp, variant)
    y = _generate(dgp, variant, CALIBRATION_DRAWS, rng).column("y").values
    alpha1 = -1.0 / float(np.std(y))
    return calibrate_mar_intercept(y, alpha1, target_p), alpha1


# ---------------------------------------------------------------------------
# data-generating processes

def _generate(dgp, variant, n: int, rng) -> Dataset:
    """n draws of a study's covariates, then of its outcome given them."""
    covariates, eta = _draw_linpred(dgp, variant, n, rng)
    return Dataset(covariates + _OUTCOMES[STUDIES[dgp].family](dgp, variant, eta, rng))


def gen_quadratic(x_dist: str, n: int, rng) -> Dataset:
    return _generate("quadratic", x_dist, n, rng)


def gen_interaction(cov_dist: str, n: int, rng) -> Dataset:
    return _generate("interaction", cov_dist, n, rng)


def gen_cox(n: int, rng) -> Dataset:
    return _generate("cox", None, n, rng)


def exp_hazard_times(linpred: np.ndarray, rate: float, rng) -> np.ndarray:
    """Event times by inversion: T = -log(U) / (rate * exp(linpred))."""
    u = rng.random(linpred.shape[0])
    return -np.log1p(-u) / (rate * np.exp(linpred))


# ---------------------------------------------------------------------------
# missingness mechanisms

def _mask_partial(d: Dataset, keep_prob_for, rng) -> Dataset:
    cols = []
    for col in d.columns:
        if col.role is VariableRole.PARTIAL_COVARIATE:
            keep = rng.random(d.n) < keep_prob_for(col)
            values = np.where(keep, col.values, np.nan)
            cols.append(Column(col.name, col.kind, col.role, values, keep & col.observed))
        else:
            cols.append(col)
    return Dataset(tuple(cols))


def apply_mcar(d: Dataset, p_obs: float, rng) -> Dataset:
    """Each partial-covariate cell kept independently with probability p_obs."""
    if not 0.0 < p_obs <= 1.0:
        raise ValueError("p_obs must be in (0, 1]")
    return _mask_partial(d, lambda col: p_obs, rng)


def apply_mar(d: Dataset, alpha0: float, alpha1: float, rng) -> Dataset:
    """Cells kept with probability expit(alpha0 + alpha1 * y), per covariate independently."""
    outcome = [c for c in d.columns if c.role is VariableRole.OUTCOME]
    if not outcome:
        raise DataError("missing-at-random mechanism needs an outcome column")
    p = expit(alpha0 + alpha1 * outcome[0].values)
    return _mask_partial(d, lambda col: p, rng)


# ---------------------------------------------------------------------------
# scenario configuration

@dataclass(frozen=True)
class ScenarioConfig:
    dgp: str  # a key of STUDIES
    variant: str | None  # covariate distribution: a key of the study's draws
    mechanism: str  # mcar | mar
    n: int = 1000
    reps: int = 200
    m: int = 10
    methods: tuple[str, ...] | None = None  # default: fcs_linear, jav, smcfcs where defined
    seed: int = 2012
    p_obs: float = P_OBS
    name: str = ""

    def __post_init__(self):
        for name in ("dgp", "variant", "mechanism", "name"):
            value = getattr(self, name)
            if not (isinstance(value, str) or (name == "variant" and value is None)):
                raise ValueError(f"{name} must be a string, not {value!r}")
        check_csv_name("name", self.name)
        if isinstance(self.p_obs, bool) or not isinstance(self.p_obs, numbers.Real):
            raise ValueError(f"p_obs must be a number, not {self.p_obs!r}")
        study = STUDIES.get(self.dgp)
        if study is None:
            raise ValueError(f"unknown dgp {self.dgp!r}")
        for name, allowed in (("variant", tuple(study.draws)), ("mechanism", _mechanisms(study))):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"{name} must be one of {', '.join(map(repr, allowed))} "
                                 f"for the {self.dgp} study, not {value!r}")
        if not 0.0 < self.p_obs < 1.0:
            raise ValueError("p_obs must be in (0, 1)")
        for name, low in (("n", 1), ("reps", 1), ("m", 2), ("seed", 0)):
            check_integer(name, getattr(self, name), low)
        if self.methods is None:
            object.__setattr__(self, "methods", tuple(
                method for method in ("fcs_linear", "jav", "smcfcs") if method in study.methods))
        if not isinstance(self.methods, (list, tuple)) or not all(
            isinstance(method, str) for method in self.methods
        ):
            raise ValueError(f"methods must be a list of method names, not {self.methods!r}")
        unknown = [method for method in self.methods if method not in study.methods]
        if unknown:
            raise ValueError(f"method {unknown[0]!r} is not defined for the {self.dgp} study")
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.name:
            variant = self.variant or f"n{self.n}"
            object.__setattr__(self, "name", f"{self.dgp}-{variant}-{self.mechanism}")


def scenario_truth(cfg: ScenarioConfig):
    """(family, formula, truth vector, coefficient labels)."""
    study = STUDIES[cfg.dgp]
    formula = parse_formula(study.formula)
    return study.family, formula, np.array(study.beta), formula.labels()


def _run_replication(cfg: ScenarioConfig, mar_alpha, rep: int):
    """One replication; `mar_alpha` is the MAR (alpha0, alpha1), None under MCAR."""
    d_full = _generate(cfg.dgp, cfg.variant, cfg.n, stream(cfg.seed, "rep", rep, "data"))
    mask_rng = stream(cfg.seed, "rep", rep, "mask")
    if mar_alpha is None:
        d = apply_mcar(d_full, cfg.p_obs, mask_rng)
    else:
        d = apply_mar(d_full, *mar_alpha, mask_rng)
    family, formula, _, _ = scenario_truth(cfg)
    out = {}
    for method in cfg.methods:
        try:
            out[method] = METHODS[method](cfg, family, formula, d,
                                          subsequence(cfg.seed, "rep", rep, method))
        except (FitError, EngineFailure, PoolError, DataError):
            out[method] = None
    return out


# ---------------------------------------------------------------------------
# aggregation

@dataclass(frozen=True)
class SummaryRow:
    scenario: str
    method: str
    parameter: str
    mean: float
    sd: float
    coverage: float  # percent
    mc_error_mean: float
    mc_error_cov: float  # percentage points
    n_failed: int


@dataclass(frozen=True)
class ScenarioSummary:
    scenario: str
    n_reps: int
    n_used: int
    rows: tuple[SummaryRow, ...]

    def row(self, method: str, parameter: str) -> SummaryRow:
        for r in self.rows:
            if (r.method, r.parameter) == (method, parameter):
                return r
        raise KeyError((method, parameter))

    def to_csv_text(self) -> str:
        lines = ["scenario,method,parameter,mean,sd,coverage,mc_error_mean,mc_error_cov,n_failed"]
        for r in self.rows:
            lines.append(
                f"{r.scenario},{r.method},{r.parameter},{r.mean!r},{r.sd!r},"
                f"{r.coverage!r},{r.mc_error_mean!r},{r.mc_error_cov!r},{r.n_failed}"
            )
        return "\n".join(lines) + "\n"


def run_scenario(cfg: ScenarioConfig, threads: int = 1) -> ScenarioSummary:
    """Run every replication, excluding a replication entirely if any method fails.

    The MAR observation model is calibrated once, here, and passed to every
    replication.  With threads > 1 replications run in worker processes;
    results are identical to a sequential run because random streams are
    indexed by replication, not by worker.
    """
    mar_alpha = mar_intercept(cfg.dgp, cfg.variant, cfg.p_obs) if cfg.mechanism == "mar" else None
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool_:
            results = list(pool_.map(_run_replication, repeat(cfg), repeat(mar_alpha),
                                     range(cfg.reps), chunksize=8))
    else:
        results = [_run_replication(cfg, mar_alpha, rep) for rep in range(cfg.reps)]

    used = [r for r in results if all(r[m] is not None for m in cfg.methods)]
    n_used = len(used)
    n_failed = cfg.reps - n_used
    _, _, truth, labels = scenario_truth(cfg)
    rows = []
    for method in cfg.methods:
        for i, label in enumerate(labels):
            est = np.array([r[method][0][i] for r in used])
            lo = np.array([r[method][1][i] for r in used])
            hi = np.array([r[method][2][i] for r in used])
            covered = float(np.mean((lo <= truth[i]) & (truth[i] <= hi))) if n_used else math.nan
            sd = float(np.std(est, ddof=1)) if n_used > 1 else math.nan
            rows.append(SummaryRow(
                scenario=cfg.name,
                method=method,
                parameter=label,
                mean=float(np.mean(est)) if n_used else math.nan,
                sd=sd,
                coverage=100.0 * covered,
                mc_error_mean=sd / math.sqrt(n_used) if n_used > 1 else math.nan,
                mc_error_cov=100.0 * math.sqrt(covered * (1.0 - covered) / n_used)
                if n_used else math.nan,
                n_failed=n_failed,
            ))
    return ScenarioSummary(scenario=cfg.name, n_reps=cfg.reps, n_used=n_used, rows=tuple(rows))


# ---------------------------------------------------------------------------
# builtin scenarios

def builtin_scenarios() -> dict[str, ScenarioConfig]:
    """Named configurations covering every simulation scenario of the studies."""
    return {name: ScenarioConfig(**{"dgp": dgp, "name": name, "methods": study.methods, **fields})
            for dgp, study in STUDIES.items() for name, fields in study.builtins.items()}
