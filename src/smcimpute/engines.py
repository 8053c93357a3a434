"""Iterative imputation engines.

One sweep and one chain serve both engines:

  run_fcs      chained equations: each partial covariate gets a univariate
               imputation model fitted to the subjects with that covariate
               observed, a posterior draw of its parameters, and direct
               sampling of the missing cells.

  run_smcfcs   compatible variant: the same sweep with three steps changed.
               Before covariate j, the outcome model's parameters are drawn
               from their posterior on the current completed data; the
               covariate model for j is fitted to all subjects; and missing
               cells are imputed from the density proportional to
               f(outcome | covariates) * f(covariate j | other covariates),
               by exact enumeration for binary targets and rejection
               sampling (proposal = covariate model) for continuous ones.

`_sweep` is that one pass over the sampled covariates; it branches only on
whether the run has an outcome model.  `_run_chain` runs one chain: a fresh
random initialization, the sweeps, and up to MAX_CHAIN_RETRIES restarts on
FitError, all drawn from the chain's own stream, so chain k depends only on
the seed and k.  Both engines call the family objects of the substantive
module directly.  Each partial covariate takes the covariate model the
config names it in, or else its model from default_covariate_specs, resolved
once per run.  A covariate model that names the reserved column CUMHAZ
conditions on the marginal Nelson-Aalen cumulative hazard, which the engine
adds to the dataset under that name.

The engine checks the models against the data once per run, before any
chain, and says by the exception's type which model a refusal is about:
SubstantiveModelError for the outcome model, CovariateModelError for a
covariate model the config names, and a plain DataError for a default
covariate model, whose predictors the data's roles chose.

The input's columns were checked when they were built, and the engine does
not check them again.  A chain owns only the columns it imputes: it copies
each sampled column once per attempt and reads every other column of the
input in place.  Each completed dataset holds new columns for the sampled
covariates and shares every other `Column` with the input.  The exception
is CUMHAZ: when a covariate model, given or default, names it, each completed
dataset also holds that column, which the input does not.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from ._special import expit
from .dataset import Column, Dataset, DataError, VariableKind, VariableRole, write_table
from .dataset import missingness_order as _missingness_order
from .fitters import FitError, nelson_aalen
from .formula import (
    FormulaError,
    ModelFormula,
    Term,
    design_from_arrays,
    response_arrays,
    term_column_name,
)
from .rng import stream, subsequence
from .substantive import FAMILIES, CovariateModelSpec, Family, covariate_family, outcome_family

__all__ = [
    "CUMHAZ",
    "EngineConfig",
    "Diagnostics",
    "ImputationResult",
    "EngineFailure",
    "SubstantiveModelError",
    "CovariateModelError",
    "check_integer",
    "run_fcs",
    "run_smcfcs",
    "jav_dataset",
    "jav_analysis_formula",
    "default_covariate_specs",
    "smc_binary_probs",
    "smc_reject_sample",
]

MAX_CHAIN_RETRIES = 5
MAX_REJECTIONS = 100_000  # proposals per cell before the rejection sampler falls back
CUMHAZ = "_cumhaz"  # reserved name of the marginal cumulative-hazard covariate
DEFAULT_ITERATIONS = {"fcs": 10, "smcfcs": 20}


class EngineFailure(RuntimeError):
    """An imputation chain could not be completed."""


class SubstantiveModelError(DataError):
    """The outcome model does not fit the data: an unknown column, or a
    response the family cannot take (a missing cell, a time not > 0, a y
    not 0/1)."""


class CovariateModelError(DataError):
    """A covariate model that EngineConfig.covariate_specs names is refused.
    The same refusal of a default model is a plain DataError: the data's
    roles, not a given model, are at fault there."""


def check_integer(name: str, value, low: int):
    """ValueError unless `value` is an integer (not a bool) of at least `low`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")


@dataclass(frozen=True)
class EngineConfig:
    method: str  # "fcs" | "smcfcs"
    m: int = 10
    iterations: int | None = None  # default: 10 for fcs, 20 for smcfcs
    seed: int | np.random.SeedSequence = 0  # an int seeds the stream (seed, "engine")
    substantive: tuple[str, ModelFormula] | None = None  # (family, formula), smcfcs only
    # overrides: a partial covariate named by none gets default_covariate_specs' model
    covariate_specs: tuple[CovariateModelSpec, ...] = ()

    def __post_init__(self):
        if self.method not in ("fcs", "smcfcs"):
            raise ValueError(f"unknown method {self.method!r}")
        check_integer("m", self.m, 1)
        if not isinstance(self.seed, np.random.SeedSequence):
            check_integer("seed", self.seed, 0)
        if self.iterations is not None:
            check_integer("iterations", self.iterations, 1)
        if (self.substantive is None) == (self.method == "smcfcs"):
            raise ValueError("smcfcs requires a substantive (family, formula), and fcs takes none")
        if self.substantive is not None:
            family, formula = self.substantive
            if not isinstance(formula, ModelFormula):
                raise ValueError(f"substantive formula must be a ModelFormula, not {formula!r}")
            outcome_family(family, formula)
        object.__setattr__(self, "covariate_specs", tuple(self.covariate_specs))
        for spec in self.covariate_specs:
            if not isinstance(spec, CovariateModelSpec):
                raise ValueError(f"covariate_specs must hold CovariateModelSpec values, "
                                 f"not {spec!r}")

    @property
    def sweeps(self) -> int:
        return self.iterations if self.iterations is not None else DEFAULT_ITERATIONS[self.method]


@dataclass
class Diagnostics:
    """Chain diagnostics: parameter traces, rejection effort, retries."""

    traces: list[tuple[int, int, str, str, float]] = field(default_factory=list)
    proposals: dict[str, int] = field(default_factory=dict)
    accepted: dict[str, int] = field(default_factory=dict)
    fallbacks: dict[str, int] = field(default_factory=dict)
    retries: int = 0

    def record_trace(self, imp, sweep, stage, names, values):
        for name, value in zip(names, np.atleast_1d(values)):
            self.traces.append((imp, sweep, stage, name, float(value)))

    def record_sampling(self, target, proposals, accepted, fallbacks):
        self.proposals[target] = self.proposals.get(target, 0) + int(proposals)
        self.accepted[target] = self.accepted.get(target, 0) + int(accepted)
        self.fallbacks[target] = self.fallbacks.get(target, 0) + int(fallbacks)

    def mean_acceptance(self, target) -> float:
        prop = self.proposals.get(target, 0)
        return self.accepted.get(target, 0) / prop if prop else float("nan")

    def write_csv(self, path) -> None:
        write_table(path, ("kind", "imp", "sweep", "stage", "name", "value"), [
            *(("trace", *trace) for trace in self.traces),
            *(("acceptance", "", "", "sampling", t, self.mean_acceptance(t))
              for t in self.proposals),
            *(("fallback", "", "", "sampling", t, count) for t, count in self.fallbacks.items()),
            ("retries", "", "", "chain", "", self.retries),
        ])


@dataclass(frozen=True, eq=False)
class ImputationResult:
    datasets: tuple[Dataset, ...]
    diagnostics: Diagnostics


# ---------------------------------------------------------------------------
# configuration helpers

def _covariate_names(d: Dataset, exclude=()) -> list[str]:
    roles = (VariableRole.PARTIAL_COVARIATE, VariableRole.COMPLETE_COVARIATE)
    return [c.name for c in d.columns if c.role in roles and c.name not in exclude]


def default_covariate_specs(d: Dataset, method: str) -> tuple[CovariateModelSpec, ...]:
    """One spec per partial covariate: every other covariate at power one.

    For chained equations the outcome enters as a predictor too; with a
    survival outcome that means the event indicator plus the marginal
    cumulative hazard CUMHAZ.
    """
    outcome = [c.name for c in d.columns if c.role is VariableRole.OUTCOME]
    event = [c.name for c in d.columns if c.role is VariableRole.EVENT]
    specs = []
    for col in d.partial_covariates():
        preds = [Term(((o, 1),)) for o in _covariate_names(d, exclude=(col.name,))]
        if method == "fcs":
            if outcome:
                preds.append(Term(((outcome[0], 1),)))
            elif event:
                preds.append(Term(((event[0], 1),)))
                preds.append(Term(((CUMHAZ, 1),)))
        specs.append(CovariateModelSpec(target=col.name, family=covariate_family(col.kind),
                                        predictors=tuple(preds)))
    return tuple(specs)


def jav_dataset(formula: ModelFormula, d: Dataset) -> Dataset:
    """`d` prepared for just-another-variable imputation with run_fcs.

    Every non-linear term of the formula (powers, interactions) becomes a
    free-standing continuous column, missing exactly where its base variables
    are, and every binary partial covariate is relabelled continuous, so that
    default chained-equations specs impute each with a normal linear model on
    all other variables plus the outcome.  Nothing is passively recomputed.
    """
    if formula.is_survival:
        raise ValueError("promotion of derived terms is defined for single-outcome formulas")
    derived_terms = tuple(t for t in formula.terms if not t.is_linear)
    if not derived_terms:
        raise ValueError("formula has no power or interaction terms to promote")
    # linear imputation of formerly-binary covariates produces off-{0,1}
    # values, so every sampled covariate becomes continuous
    d = Dataset(tuple(
        Column(c.name, VariableKind.CONTINUOUS, c.role, c.values, c.observed)
        if c.role is VariableRole.PARTIAL_COVARIATE and c.kind is VariableKind.BINARY else c
        for c in d.columns
    ))
    for t in derived_terms:
        d = _materialize_term(d, term_column_name(t), t)
    return d


def jav_analysis_formula(formula: ModelFormula) -> ModelFormula:
    """The formula to fit on a jav_dataset: non-linear terms become plain columns."""
    terms = tuple(
        t if t.is_linear else Term(((term_column_name(t), 1),)) for t in formula.terms
    )
    return ModelFormula(response=formula.response, terms=terms, intercept=formula.intercept)


# ---------------------------------------------------------------------------
# engine context

@dataclass(eq=False)
class _Context:
    d: Dataset  # the input dataset, plus CUMHAZ if a covariate model uses it
    config: EngineConfig
    sampled: list[str]  # covariates imputed by sampling, in missingness order
    specs: dict[str, CovariateModelSpec]  # one per sampled covariate, defaults filled in
    missing_idx: dict[str, np.ndarray]
    model: Family | None = None  # smcfcs: the outcome family
    response: object = None  # smcfcs: model.prepare(response arrays), built once per run


def _materialize_column(d: Dataset, name, values, observed, kind, role) -> Dataset:
    if d.has_column(name):
        raise DataError(f"column {name!r} already exists")
    col = Column(name, kind, role, values, observed)
    return Dataset(d.columns + (col,))


def _with_cumhaz(d: Dataset) -> Dataset:
    """`d` plus the CUMHAZ column, from its time and event columns."""
    time = next(c for c in d.columns if c.role is VariableRole.TIME)
    event = next(c for c in d.columns if c.role is VariableRole.EVENT)
    hazard = nelson_aalen(time.values, event.values)
    return _materialize_column(
        d, CUMHAZ, np.asarray(hazard(time.values), dtype=float), np.ones(d.n, dtype=bool),
        VariableKind.CONTINUOUS, VariableRole.COMPLETE_COVARIATE,
    )


def _materialize_term(d: Dataset, name, term: Term) -> Dataset:
    """Add a continuous column holding `term`, observed where all its variables are."""
    observed = np.ones(d.n, dtype=bool)
    for v in term.variables:
        observed &= d.column(v).observed
    values = np.where(observed, term.evaluate({v: d.column(v).values for v in term.variables}),
                      np.nan)
    role = (
        VariableRole.PARTIAL_COVARIATE if not observed.all()
        else VariableRole.COMPLETE_COVARIATE
    )
    return _materialize_column(d, name, values, observed, VariableKind.CONTINUOUS, role)


def _build_context(d: Dataset, config: EngineConfig) -> _Context:
    sampled = _missingness_order(d)
    given: dict[str, CovariateModelSpec] = {}
    for spec in config.covariate_specs:
        if spec.target in given:
            raise CovariateModelError(f"duplicate covariate spec for {spec.target}")
        if spec.target not in sampled:
            raise CovariateModelError(f"covariate spec for non-sampled column {spec.target!r}")
        given[spec.target] = spec
    specs = dict(given)
    for spec in default_covariate_specs(d, config.method):
        specs.setdefault(spec.target, spec)
    survival = {VariableRole.TIME, VariableRole.EVENT} <= {c.role for c in d.columns}
    if survival and any(CUMHAZ in spec.formula.variables for spec in specs.values()):
        d = _with_cumhaz(d)

    outcome_names = {CUMHAZ} | {
        c.name
        for c in d.columns
        if c.role in (VariableRole.OUTCOME, VariableRole.TIME, VariableRole.EVENT)
    }
    if config.method == "smcfcs":
        # the substantive response is an outcome whatever role the schema gives it
        response = config.substantive[1].response
        outcome_names.update(response if isinstance(response, tuple) else (response,))
    for name, spec in specs.items():
        # a given model is at fault for its refusal; a default one, the data's roles
        error = CovariateModelError if name in given else DataError
        if CUMHAZ in spec.formula.variables and not survival:
            raise error(f"covariate model conditions on {CUMHAZ}, "
                        "which needs time and event columns")
        col = d.column(name)
        if spec.model.binary != (col.kind is VariableKind.BINARY):
            raise error(f"covariate {name} is {col.kind.value}; "
                        f"spec family {spec.family} does not match")
        for v in spec.formula.variables:
            if not d.has_column(v):
                raise error(f"spec for {name} references unknown column {v!r}")
            if config.method == "smcfcs" and v in outcome_names:
                raise error(f"smcfcs covariate model for {name} must not condition on "
                            f"outcome-derived column {v!r}")

    model = response = None
    if config.method == "smcfcs":
        family, formula = config.substantive
        for v in formula.variables:
            if not d.has_column(v):
                raise SubstantiveModelError(f"substantive formula references unknown column {v!r}")
        model = FAMILIES[family]
        try:
            response = model.prepare(*response_arrays(formula, d))
        except FitError as exc:  # a time not > 0, a y not 0/1
            raise SubstantiveModelError(f"substantive response: {exc}") from None
        except FormulaError as exc:  # an absent response column or one with missing cells
            raise SubstantiveModelError(f"substantive {exc}") from None

    missing_idx = {name: np.flatnonzero(~d.column(name).observed) for name in sampled}
    return _Context(
        d=d, config=config, sampled=sampled, specs=specs,
        missing_idx=missing_idx, model=model, response=response,
    )


# ---------------------------------------------------------------------------
# chain primitives

def _init_columns(ctx: _Context, rng) -> dict[str, np.ndarray]:
    """The chain's columns by name: a copy of each sampled column, its missing
    cells drawn from its observed values, and every other column in place."""
    cur = {c.name: c.values for c in ctx.d.columns}
    for name in ctx.sampled:
        col = ctx.d.column(name)
        observed_values = col.values[col.observed]
        if observed_values.size == 0:
            raise EngineFailure(f"column {name} has no observed values")
        cur[name] = col.values.copy()
        cur[name][ctx.missing_idx[name]] = rng.choice(
            observed_values, size=ctx.missing_idx[name].size, replace=True
        )
    return cur


# ---------------------------------------------------------------------------
# compatible sampler

def _compatible_rows(family, formula, psi, spec, phi, cur, rows):
    """What both compatible samplers read at `rows`: the outcome family, the
    values of every other variable either model names, the outcome's parts
    for the family's log_ratio, and the covariate model's mean per cell."""
    model = FAMILIES[family]
    needed = set(formula.variables) | set(spec.formula.variables)
    base = {v: cur[v][rows] for v in needed if v != spec.target}
    mu = design_from_arrays(spec.formula, base, rows.size) @ phi.beta
    return model, base, model.y_parts(formula, psi, cur, rows), mu


def smc_binary_probs(family, formula, psi, spec, phi, cur, rows):
    """P(X_j = 1 | outcome, other covariates) for the rows in `rows`.

    Exact enumeration of the two support points of the compatible imputation
    density, computed in log space: weight(v) is the outcome model's
    acceptance ratio at X_j = v times the covariate model's mass at v.
    Raises FitError when the density vanishes (or is NaN) at both values.
    """
    model, base, y_parts, mu = _compatible_rows(family, formula, psi, spec, phi, cur, rows)
    size = rows.size
    log_w = []
    for v in (0.0, 1.0):
        cols = dict(base)
        cols[spec.target] = np.full(size, v)
        g = design_from_arrays(formula, cols, size) @ psi.beta
        log_ratio = model.log_ratio(psi, y_parts, g)
        log_mass = spec.model.log_ratio(phi, (cols[spec.target],), mu)
        log_w.append(log_ratio + log_mass)
    if not np.all(np.isfinite(np.maximum(log_w[0], log_w[1]))):
        raise FitError(f"compatible density of {spec.target} vanishes at 0 and at 1")
    return expit(log_w[1] - log_w[0])


def smc_reject_sample(family, formula, psi, spec, phi, cur, rows, rng, max_rejections):
    """Rejection-sample the compatible density, proposal = covariate model.

    Returns (values, proposals, fallbacks).  A cell that exhausts the attempt
    cap takes the candidate with the highest acceptance ratio seen so far;
    if every one of its candidates had a ratio of 0 (or NaN), FitError.

    Proposals are drawn in growing per-cell batches, held as (pending cell x
    candidate) arrays; within a batch each cell keeps its first accepted
    candidate, which is equivalent to proposing one candidate at a time.
    """
    model, base, y_parts, mu = _compatible_rows(family, formula, psi, spec, phi, cur, rows)
    size = rows.size
    others = [v for v in formula.variables if v != spec.target]

    values = np.empty(size)
    best_log_ratio = np.full(size, -np.inf)
    best_value = np.empty(size)
    pending = np.arange(size)
    proposals = 0
    attempts = 0
    batch = 4
    while pending.size:
        batch = min(batch, max(max_rejections - attempts, 1))
        npend = pending.size
        cand = spec.model.sample(phi, np.repeat(mu[pending], batch), rng)
        sub = {v: np.repeat(base[v][pending], batch) for v in others}
        sub[spec.target] = cand
        g = design_from_arrays(formula, sub, cand.size) @ psi.beta
        y_sub = tuple(np.repeat(part[pending], batch) for part in y_parts)
        # from here on, one row per pending cell and one column per candidate
        log_ratio = model.log_ratio(psi, y_sub, g).reshape(npend, batch)
        cand = cand.reshape(npend, batch)
        proposals += cand.size
        attempts += batch
        ratio = np.exp(np.minimum(log_ratio, 0.0))
        accept = (rng.random((npend, batch)) <= ratio) & (ratio > 0.0)

        cells = np.arange(npend)
        hit = accept.any(axis=1)
        first = accept.argmax(axis=1)  # the first acceptance per cell
        values[pending[hit]] = cand[cells, first][hit]

        best = log_ratio.argmax(axis=1)
        row_best_lr = log_ratio[cells, best]
        better = row_best_lr > best_log_ratio[pending]
        best_log_ratio[pending[better]] = row_best_lr[better]
        best_value[pending[better]] = cand[cells, best][better]

        pending = pending[~hit]
        if attempts >= max_rejections:
            break
        batch = min(batch * 4, 4096)
    if np.any(best_log_ratio[pending] == -np.inf):
        raise FitError(f"compatible density of {spec.target} vanishes at every proposal")
    fallbacks = pending.size
    values[pending] = best_value[pending]
    return values, proposals, fallbacks


# ---------------------------------------------------------------------------
# the sweep and the chain

def _sweep(ctx: _Context, cur, rng, diag, imp, sweep, warm):
    """One pass over the sampled covariates, in place on `cur`.

    Without a substantive model this is chained equations.  With one (smcfcs)
    three steps change: the outcome model's psi is drawn first, the covariate
    model is fitted to every row, and the missing cells are drawn from the
    compatible density instead of from the covariate model alone.
    """
    model = ctx.model
    family, formula = ctx.config.substantive or (None, None)
    for name in ctx.sampled:
        if model is not None:
            X = design_from_arrays(formula, cur, ctx.d.n)
            # the covariate models' warm starts are keyed by column name, so
            # the outcome model's takes a key no column can have
            fit = model.fit(X, ctx.response, warm.get(None))
            psi = model.draw(fit, X, ctx.response, rng)
            warm[None] = fit.beta
            diag.record_trace(imp, sweep, f"psi[{name}]", formula.labels(), psi.beta)
            if psi.sigma2 is not None:
                diag.record_trace(imp, sweep, f"psi[{name}]", ["sigma2"], [psi.sigma2])
        spec = ctx.specs[name]
        X = design_from_arrays(spec.formula, cur, ctx.d.n)
        rows = ctx.d.column(name).observed if model is None else slice(None)
        Xr, yr = X[rows], cur[name][rows]
        fit = spec.model.fit(Xr, yr, warm.get(name))
        phi = spec.model.draw(fit, Xr, yr, rng)
        warm[name] = fit.beta
        diag.record_trace(imp, sweep, f"phi[{name}]", spec.formula.labels(), phi.beta)
        miss = ctx.missing_idx[name]
        if not miss.size:
            continue
        if model is None:
            cur[name][miss] = spec.model.sample(phi, X[miss] @ phi.beta, rng)
        elif spec.model.binary:
            p1 = smc_binary_probs(family, formula, psi, spec, phi, cur, miss)
            cur[name][miss] = (rng.random(miss.size) < p1).astype(float)
            diag.record_sampling(name, miss.size, miss.size, 0)
        else:
            vals, proposals, fallbacks = smc_reject_sample(
                family, formula, psi, spec, phi, cur, miss, rng, MAX_REJECTIONS,
            )
            cur[name][miss] = vals
            diag.record_sampling(name, proposals, miss.size - fallbacks, fallbacks)


def _run_chain(ctx: _Context, base, imp):
    """Chain `imp`: (its sampled columns, the delivered attempt's diagnostics,
    the number of failed attempts).  Its draws depend only on (base, imp).

    Each attempt records on its own, so a failed attempt's record is dropped.
    An overflow (a huge covariate squared) and the inf - inf it leads to are
    not warned of: the fits refuse the non-finite values they leave, and the
    attempt fails with FitError.
    """
    rng = stream(base, "chain", imp)
    for retries in range(1 + MAX_CHAIN_RETRIES):
        record = Diagnostics()
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                cur = _init_columns(ctx, rng)
                warm: dict = {}
                for sweep in range(1, ctx.config.sweeps + 1):
                    _sweep(ctx, cur, rng, record, imp, sweep, warm)
            return {name: cur[name] for name in ctx.sampled}, record, retries
        except FitError as exc:
            error = exc
    raise EngineFailure(f"imputation {imp} failed after {MAX_CHAIN_RETRIES} retries: {error}")


def _run_engine(d: Dataset, config: EngineConfig) -> ImputationResult:
    ctx = _build_context(d, config)
    seed = config.seed
    base = seed if isinstance(seed, np.random.SeedSequence) else subsequence(seed, "engine")
    diag = Diagnostics()
    datasets = []
    for imp in range(1, config.m + 1):
        columns, chain, retries = _run_chain(ctx, base, imp)
        diag.retries += retries
        diag.traces += chain.traces
        for target, proposals in chain.proposals.items():
            diag.record_sampling(target, proposals, chain.accepted[target], chain.fallbacks[target])
        datasets.append(ctx.d.with_values(columns))
    return ImputationResult(datasets=tuple(datasets), diagnostics=diag)


def run_fcs(d: Dataset, config: EngineConfig) -> ImputationResult:
    """Standard chained-equations imputation."""
    if config.method != "fcs":
        raise ValueError("config.method must be 'fcs'")
    return _run_engine(d, config)


def run_smcfcs(d: Dataset, config: EngineConfig) -> ImputationResult:
    """Substantive-model-compatible chained-equations imputation."""
    if config.method != "smcfcs":
        raise ValueError("config.method must be 'smcfcs'")
    return _run_engine(d, config)
