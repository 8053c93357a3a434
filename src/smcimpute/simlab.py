"""Monte-Carlo simulation lab: data generators, missingness, replication runner.

Three study designs are covered, each with methods drawn from
{cc, fcs_linear, jav, smcfcs}:

  quadratic     y = 4 - 4x + x^2 + e, x from a normal, log-normal, or
                two-component normal mixture, all with mean 2 and variance 1
  interaction   y = x1 + x2 + x1*x2 + e, five covariate distributions
  cox           h(t|x) = 0.002 exp(x1 + x2), exponential censoring at rate
                0.002, x1 ~ Bernoulli(0.5), x2|x1 ~ N(x1, 1)

Residual variances are calibrated by a 10^6-draw Monte-Carlo of Var(g(X))
so the true-model R^2 is 0.5; the observation-model intercept for the
missing-at-random mechanism is calibrated by a Newton solve so the marginal
observation probability hits its target.  Both calibrations use dedicated
fixed seeds and are scenario constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import expit

from .dataset import Column, Dataset, VariableKind, VariableRole, DataError
from .engines import (
    EngineConfig,
    EngineFailure,
    default_covariate_specs,
    jav_analysis_formula,
    jav_config,
    run_fcs,
    run_smcfcs,
)
from .covariates import CovariateModelSpec, covariate_family
from .fitters import FitError
from .formula import Term, design_from_arrays, parse_formula, response_arrays
from .pooling import PoolError, fit_each, pool
from .rng import stream, subsequence
from .substantive import FAMILIES

__all__ = [
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

QUADRATIC_BETA = (4.0, -4.0, 1.0)
INTERACTION_BETA = (0.0, 1.0, 1.0, 1.0)
COX_BETA = (1.0, 1.0)
COX_BASE_RATE = 0.002

_LOGNORMAL_MU = math.log(math.sqrt(3.2))
_LOGNORMAL_SD = math.sqrt(math.log(1.25))

DGPS = ("quadratic", "interaction", "cox")
QUADRATIC_VARIANTS = ("normal", "lognormal", "normal_mixture")
INTERACTION_VARIANTS = (
    "bvnormal",
    "bvlognormal",
    "quad_conditional",
    "bern_normal",
    "bern_lognormal",
)
METHODS = ("cc", "fcs_linear", "jav", "smcfcs")


# ---------------------------------------------------------------------------
# covariate draws

def _draw_quadratic_x(variant: str, n: int, rng) -> np.ndarray:
    if variant == "normal":
        return rng.normal(2.0, 1.0, n)
    if variant == "lognormal":
        return np.exp(rng.normal(_LOGNORMAL_MU, _LOGNORMAL_SD, n))
    if variant == "normal_mixture":
        low = rng.random(n) < 0.5
        sd = math.sqrt(0.234)
        return np.where(low, rng.normal(1.125, sd, n), rng.normal(2.875, sd, n))
    raise ValueError(f"unknown quadratic covariate distribution {variant!r}")


def _draw_interaction_covs(variant: str, n: int, rng):
    """(x1, x2, x1_is_binary)."""
    if variant == "bvnormal":
        z = rng.standard_normal((n, 2))
        x1 = 2.0 + z[:, 0]
        x2 = 2.0 + 0.5 * z[:, 0] + math.sqrt(0.75) * z[:, 1]
        return x1, x2, False
    if variant == "bvlognormal":
        z = rng.standard_normal((n, 2))
        l1 = _LOGNORMAL_MU + _LOGNORMAL_SD * z[:, 0]
        l2 = _LOGNORMAL_MU + _LOGNORMAL_SD * (0.5 * z[:, 0] + math.sqrt(0.75) * z[:, 1])
        return np.exp(l1), np.exp(l2), False
    if variant == "quad_conditional":
        x1 = rng.normal(2.0, 1.0, n)
        x2 = rng.normal((x1 - 2.0) ** 2, math.sqrt(2.0))
        return x1, x2, False
    if variant == "bern_normal":
        x1 = (rng.random(n) < 0.5).astype(float)
        return x1, rng.normal(x1, 1.0), True
    if variant == "bern_lognormal":
        x1 = (rng.random(n) < 0.5).astype(float)
        return x1, x1 + np.exp(rng.normal(_LOGNORMAL_MU, _LOGNORMAL_SD, n)), True
    raise ValueError(f"unknown interaction covariate distribution {variant!r}")


# ---------------------------------------------------------------------------
# calibration

@lru_cache(maxsize=None)
def residual_variance(dgp: str, variant: str) -> float:
    """Var(g(X)) over 10^6 draws, so that adding noise of this variance gives R^2 = 0.5."""
    rng = stream(CALIBRATION_SEED, "sigma", dgp, variant)
    if dgp == "quadratic":
        x = _draw_quadratic_x(variant, CALIBRATION_DRAWS, rng)
        b0, b1, b2 = QUADRATIC_BETA
        g = b0 + b1 * x + b2 * x * x
    elif dgp == "interaction":
        x1, x2, _ = _draw_interaction_covs(variant, CALIBRATION_DRAWS, rng)
        b0, b1, b2, b3 = INTERACTION_BETA
        g = b0 + b1 * x1 + b2 * x2 + b3 * x1 * x2
    else:
        raise ValueError(f"no residual variance for dgp {dgp!r}")
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


@lru_cache(maxsize=None)
def mar_intercept(dgp: str, variant: str, target_p: float) -> tuple[float, float]:
    """(alpha0, alpha1) for observation model expit(alpha0 + alpha1 * y).

    alpha1 = -1 / SD(Y); alpha0 calibrated so the marginal observation
    probability equals target_p.  Based on a fresh calibration sample.
    """
    rng = stream(CALIBRATION_SEED, "mar", dgp, variant)
    if dgp == "quadratic":
        d = gen_quadratic(variant, CALIBRATION_DRAWS, rng)
    elif dgp == "interaction":
        d = gen_interaction(variant, CALIBRATION_DRAWS, rng)
    else:
        raise ValueError("the missing-at-random mechanism is defined through the outcome y")
    y = d.column("y").values
    alpha1 = -1.0 / float(np.std(y))
    return calibrate_mar_intercept(y, alpha1, target_p), alpha1


# ---------------------------------------------------------------------------
# data-generating processes

def gen_quadratic(x_dist: str, n: int, rng) -> Dataset:
    x = _draw_quadratic_x(x_dist, n, rng)
    b0, b1, b2 = QUADRATIC_BETA
    sd = math.sqrt(residual_variance("quadratic", x_dist))
    y = b0 + b1 * x + b2 * x * x + rng.normal(0.0, sd, n)
    full = np.ones(n, dtype=bool)
    return Dataset((
        Column("x", VariableKind.CONTINUOUS, VariableRole.PARTIAL_COVARIATE, x, full.copy()),
        Column("y", VariableKind.CONTINUOUS, VariableRole.OUTCOME, y, full),
    ))


def gen_interaction(cov_dist: str, n: int, rng) -> Dataset:
    x1, x2, binary = _draw_interaction_covs(cov_dist, n, rng)
    b0, b1, b2, b3 = INTERACTION_BETA
    sd = math.sqrt(residual_variance("interaction", cov_dist))
    y = b0 + b1 * x1 + b2 * x2 + b3 * x1 * x2 + rng.normal(0.0, sd, n)
    kind1 = VariableKind.BINARY if binary else VariableKind.CONTINUOUS
    full = np.ones(n, dtype=bool)
    return Dataset((
        Column("x1", kind1, VariableRole.PARTIAL_COVARIATE, x1, full.copy()),
        Column("x2", VariableKind.CONTINUOUS, VariableRole.PARTIAL_COVARIATE, x2, full.copy()),
        Column("y", VariableKind.CONTINUOUS, VariableRole.OUTCOME, y, full),
    ))


def exp_hazard_times(linpred: np.ndarray, rate: float, rng) -> np.ndarray:
    """Event times by inversion: T = -log(U) / (rate * exp(linpred))."""
    u = rng.random(linpred.shape[0])
    return -np.log1p(-u) / (rate * np.exp(linpred))


def gen_cox(n: int, rng) -> Dataset:
    x1 = (rng.random(n) < 0.5).astype(float)
    x2 = rng.normal(x1, 1.0)
    b1, b2 = COX_BETA
    t = exp_hazard_times(b1 * x1 + b2 * x2, COX_BASE_RATE, rng)
    c = exp_hazard_times(np.zeros(n), COX_BASE_RATE, rng)
    w = np.minimum(t, c)
    d = (t < c).astype(float)
    full = np.ones(n, dtype=bool)
    return Dataset((
        Column("x1", VariableKind.BINARY, VariableRole.PARTIAL_COVARIATE, x1, full.copy()),
        Column("x2", VariableKind.CONTINUOUS, VariableRole.PARTIAL_COVARIATE, x2, full.copy()),
        Column("w", VariableKind.CONTINUOUS, VariableRole.TIME, w, full.copy()),
        Column("d", VariableKind.BINARY, VariableRole.EVENT, d, full),
    ))


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
    dgp: str  # quadratic | interaction | cox
    variant: str | None  # covariate distribution; None for cox
    mechanism: str  # mcar | mar
    n: int = 1000
    reps: int = 200
    m: int = 10
    methods: tuple[str, ...] = ("fcs_linear", "jav", "smcfcs")
    seed: int = 2012
    p_obs: float = 0.7
    name: str = ""

    def __post_init__(self):
        if self.dgp not in DGPS:
            raise ValueError(f"unknown dgp {self.dgp!r}")
        if self.dgp == "quadratic" and self.variant not in QUADRATIC_VARIANTS:
            raise ValueError(f"unknown quadratic variant {self.variant!r}")
        if self.dgp == "interaction" and self.variant not in INTERACTION_VARIANTS:
            raise ValueError(f"unknown interaction variant {self.variant!r}")
        if self.mechanism not in ("mcar", "mar"):
            raise ValueError(f"unknown mechanism {self.mechanism!r}")
        if self.dgp == "cox" and self.mechanism == "mar":
            raise ValueError("the cox study uses the completely-at-random mechanism")
        if not 0.0 < self.p_obs < 1.0:
            raise ValueError("p_obs must be in (0, 1)")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        unknown = [method for method in self.methods if method not in METHODS]
        if unknown:
            raise ValueError(f"unknown method {unknown[0]!r}")
        if "jav" in self.methods and self.dgp == "cox":
            raise ValueError("just-another-variable imputation is not defined for the cox study")
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.name:
            variant = self.variant or f"n{self.n}"
            object.__setattr__(self, "name", f"{self.dgp}-{variant}-{self.mechanism}")


def scenario_truth(cfg: ScenarioConfig):
    """(family, formula, truth vector, coefficient labels)."""
    if cfg.dgp == "quadratic":
        formula = parse_formula("y ~ x + x^2")
        return "normal_linear", formula, np.array(QUADRATIC_BETA), formula.labels()
    if cfg.dgp == "interaction":
        formula = parse_formula("y ~ x1 + x2 + x1*x2")
        return "normal_linear", formula, np.array(INTERACTION_BETA), formula.labels()
    formula = parse_formula("surv(w,d) ~ x1 + x2")
    return "cox", formula, np.array(COX_BETA), formula.labels()


def _generate(cfg: ScenarioConfig, rng) -> Dataset:
    if cfg.dgp == "quadratic":
        return gen_quadratic(cfg.variant, cfg.n, rng)
    if cfg.dgp == "interaction":
        return gen_interaction(cfg.variant, cfg.n, rng)
    return gen_cox(cfg.n, rng)


def _mask(cfg: ScenarioConfig, d: Dataset, rng) -> Dataset:
    if cfg.mechanism == "mcar":
        return apply_mcar(d, cfg.p_obs, rng)
    alpha0, alpha1 = mar_intercept(cfg.dgp, cfg.variant, cfg.p_obs)
    return apply_mar(d, alpha0, alpha1, rng)


def _fcs_config(cfg: ScenarioConfig, d: Dataset) -> EngineConfig:
    if cfg.dgp == "quadratic":
        specs = (CovariateModelSpec("x", "normal_linear", predictors=(Term((("y", 1),)),)),)
        return EngineConfig(method="fcs", m=cfg.m, covariate_specs=specs)
    if cfg.dgp == "interaction":
        specs = (
            CovariateModelSpec("x1", covariate_family(d.column("x1").kind),
                               predictors=(Term((("y", 1),)), Term((("x2", 1),)),
                                           Term((("y", 1), ("x2", 1))))),
            CovariateModelSpec("x2", "normal_linear",
                               predictors=(Term((("y", 1),)), Term((("x1", 1),)),
                                           Term((("y", 1), ("x1", 1))))),
        )
        return EngineConfig(method="fcs", m=cfg.m, covariate_specs=specs)
    cumhaz = "na_cumhaz"
    specs = (
        CovariateModelSpec("x1", "logistic",
                           predictors=(Term((("x2", 1),)), Term((("d", 1),)),
                                       Term(((cumhaz, 1),)))),
        CovariateModelSpec("x2", "normal_linear",
                           predictors=(Term((("x1", 1),)), Term((("d", 1),)),
                                       Term(((cumhaz, 1),)))),
    )
    return EngineConfig(method="fcs", m=cfg.m, covariate_specs=specs, cumhaz_column=cumhaz)


def _complete_case(family, formula, d: Dataset, level=0.95):
    keep = np.ones(d.n, dtype=bool)
    for col in d.partial_covariates():
        keep &= col.observed
    cols = {v: d.column(v).values[keep] for v in formula.variables}
    X = design_from_arrays(formula.terms, formula.intercept, cols, int(keep.sum()))
    model = FAMILIES[family]
    fit = model.fit(X, model.prepare(*(r[keep] for r in response_arrays(formula, d))))
    se = np.sqrt(fit.coef_variances())
    q = model.quantile(fit, 0.5 * (1.0 + level))
    return fit.beta, fit.beta - q * se, fit.beta + q * se


def _run_method(cfg: ScenarioConfig, method: str, d: Dataset, seq):
    family, formula, _, _ = scenario_truth(cfg)
    if method == "cc":
        return _complete_case(family, formula, d)
    if method == "fcs_linear":
        engine_cfg = _fcs_config(cfg, d)
        result = run_fcs(d, engine_cfg, rng=seq)
        fit_formula = formula
    elif method == "jav":
        engine_cfg = jav_config(formula, d, m=cfg.m)
        result = run_fcs(d, engine_cfg, rng=seq)
        fit_formula = jav_analysis_formula(formula)
    elif method == "smcfcs":
        engine_cfg = EngineConfig(
            method="smcfcs",
            m=cfg.m,
            substantive=(family, formula),
            covariate_specs=default_covariate_specs(d, "smcfcs"),
        )
        result = run_smcfcs(d, engine_cfg, rng=seq)
        fit_formula = formula
    else:
        raise ValueError(f"unknown method {method!r}")
    estimates, variances = fit_each(result, family, fit_formula)
    pooled = pool(estimates, variances)
    return pooled.point, pooled.ci_low, pooled.ci_high


def _run_replication(cfg: ScenarioConfig, rep: int):
    d_full = _generate(cfg, stream(cfg.seed, "rep", rep, "data"))
    d = _mask(cfg, d_full, stream(cfg.seed, "rep", rep, "mask"))
    out = {}
    for method in cfg.methods:
        try:
            out[method] = _run_method(cfg, method, d, subsequence(cfg.seed, "rep", rep, method))
        except (FitError, EngineFailure, PoolError, DataError):
            out[method] = None
    return out


def _replication_worker(args):
    cfg, rep = args
    return _run_replication(cfg, rep)


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
            if r.method == method and r.parameter == parameter:
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

    With threads > 1 replications run in worker processes; results are
    identical to a sequential run because random streams are indexed by
    replication, not by worker.
    """
    if cfg.mechanism == "mar":
        mar_intercept(cfg.dgp, cfg.variant, cfg.p_obs)  # warm the cache pre-fork
    if cfg.dgp != "cox":
        residual_variance(cfg.dgp, cfg.variant)
    jobs = [(cfg, rep) for rep in range(cfg.reps)]
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool_:
            results = list(pool_.map(_replication_worker, jobs, chunksize=8))
    else:
        results = [_run_replication(cfg, rep) for rep in range(cfg.reps)]

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
    out: dict[str, ScenarioConfig] = {}
    quad_variants = {"normal": "normal", "lognormal": "lognormal", "mixture": "normal_mixture"}
    for short, variant in quad_variants.items():
        for mech in ("mcar", "mar"):
            name = f"quad-{short}-{mech}"
            out[name] = ScenarioConfig(
                dgp="quadratic", variant=variant, mechanism=mech,
                methods=("fcs_linear", "jav", "smcfcs"), name=name,
            )
    inter_variants = {
        "bvnormal": "bvnormal",
        "bvlognormal": "bvlognormal",
        "quadcond": "quad_conditional",
        "bernnormal": "bern_normal",
        "bernlognormal": "bern_lognormal",
    }
    for short, variant in inter_variants.items():
        for mech in ("mcar", "mar"):
            name = f"interact-{short}-{mech}"
            out[name] = ScenarioConfig(
                dgp="interaction", variant=variant, mechanism=mech,
                methods=("cc", "fcs_linear", "jav", "smcfcs"), name=name,
            )
    for n in (1000, 100):
        name = f"cox-n{n}"
        out[name] = ScenarioConfig(
            dgp="cox", variant=None, mechanism="mcar", n=n,
            methods=("cc", "fcs_linear", "smcfcs"), name=name,
        )
    return out
