"""Iterative imputation engines.

Two engines share one chain skeleton:

  run_fcs      chained equations: each partial covariate gets a univariate
               imputation model fitted to the subjects with that covariate
               observed, a posterior draw of its parameters, and direct
               sampling of the missing cells.

  run_smcfcs   compatible variant: before imputing covariate j, the outcome
               model's parameters are drawn from their posterior on the
               current completed data, then the covariate model for j is
               fitted to all subjects and drawn; missing cells are imputed
               from the density proportional to
               f(outcome | covariates) * f(covariate j | other covariates),
               by exact enumeration for binary targets and rejection
               sampling (proposal = covariate model) for continuous ones.

Both call the family objects of the substantive module directly.  Each of
the M imputations runs an independent chain from a fresh random
initialization.  Derived (passive) columns are recomputed from the latest
base imputations and never sampled directly; the just-another-variable
helper instead promotes derived terms to free-standing covariates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .dataset import Column, Dataset, DataError, VariableKind, VariableRole
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
    "DerivedColumn",
    "EngineConfig",
    "Diagnostics",
    "ImputationResult",
    "EngineFailure",
    "SubstantiveModelError",
    "run_fcs",
    "run_smcfcs",
    "jav_config",
    "jav_analysis_formula",
    "default_covariate_specs",
    "smc_binary_probs",
    "smc_reject_sample",
]

MAX_CHAIN_RETRIES = 5
DEFAULT_ITERATIONS = {"fcs": 10, "smcfcs": 20}


class EngineFailure(RuntimeError):
    """An imputation chain could not be completed."""


class SubstantiveModelError(DataError):
    """The outcome model does not fit the data: an unknown column or a
    response with missing cells."""


@dataclass(frozen=True)
class DerivedColumn:
    """Passive column: a product of powers of other columns, never sampled."""

    name: str
    term: Term


@dataclass(frozen=True)
class EngineConfig:
    method: str  # "fcs" | "smcfcs"
    m: int = 10
    iterations: int | None = None  # default: 10 for fcs, 20 for smcfcs
    seed: int = 0
    max_rejections: int = 100_000
    substantive: tuple[str, ModelFormula] | None = None  # (family, formula), smcfcs only
    covariate_specs: tuple[CovariateModelSpec, ...] = ()
    derived_columns: tuple[DerivedColumn, ...] = ()
    cumhaz_column: str | None = None  # materialize the marginal cumulative hazard here
    promote_terms: tuple[Term, ...] = ()  # just-another-variable covariates

    def __post_init__(self):
        if self.method not in ("fcs", "smcfcs"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.iterations is not None and self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.method == "smcfcs":
            if self.substantive is None:
                raise ValueError("smcfcs requires a substantive (family, formula)")
            outcome_family(*self.substantive)
            if self.promote_terms:
                raise ValueError("promoted covariates are a chained-equations device")
        object.__setattr__(self, "covariate_specs", tuple(self.covariate_specs))
        object.__setattr__(self, "derived_columns", tuple(self.derived_columns))
        object.__setattr__(self, "promote_terms", tuple(self.promote_terms))

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

    def snapshot(self):
        """Checkpoint of the trace length and counters, for `rollback`."""
        return len(self.traces), dict(self.proposals), dict(self.accepted), dict(self.fallbacks)

    def rollback(self, checkpoint) -> None:
        """Discard everything recorded since `checkpoint` (retries excepted)."""
        n_traces, proposals, accepted, fallbacks = checkpoint
        del self.traces[n_traces:]
        self.proposals, self.accepted, self.fallbacks = proposals, accepted, fallbacks

    def mean_acceptance(self, target) -> float:
        prop = self.proposals.get(target, 0)
        return self.accepted.get(target, 0) / prop if prop else float("nan")

    def to_csv_text(self) -> str:
        lines = ["kind,imp,sweep,stage,name,value"]
        for imp, sweep, stage, name, value in self.traces:
            lines.append(f"trace,{imp},{sweep},{stage},{name},{value!r}")
        for target in self.proposals:
            lines.append(f"acceptance,,,sampling,{target},{self.mean_acceptance(target)!r}")
        for target, count in self.fallbacks.items():
            lines.append(f"fallback,,,sampling,{target},{count}")
        lines.append(f"retries,,,chain,,{self.retries}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ImputationResult:
    datasets: tuple[Dataset, ...]
    diagnostics: Diagnostics

    @property
    def m(self) -> int:
        return len(self.datasets)


# ---------------------------------------------------------------------------
# configuration helpers

def _covariate_names(d: Dataset, exclude=()) -> list[str]:
    roles = (VariableRole.PARTIAL_COVARIATE, VariableRole.COMPLETE_COVARIATE)
    return [c.name for c in d.columns if c.role in roles and c.name not in exclude]


def default_covariate_specs(
    d: Dataset,
    method: str,
    cumhaz_column: str | None = None,
) -> tuple[CovariateModelSpec, ...]:
    """One spec per partial covariate: every other covariate at power one.

    For chained equations the outcome enters as a predictor too; with a
    survival outcome that means the event indicator plus the marginal
    cumulative hazard column (which must be configured via cumhaz_column).
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
                if cumhaz_column is None:
                    raise ValueError(
                        "chained equations with a survival outcome need a cumhaz_column"
                    )
                preds.append(Term(((cumhaz_column, 1),)))
        specs.append(CovariateModelSpec(target=col.name, family=covariate_family(col.kind),
                                        predictors=tuple(preds)))
    return tuple(specs)


def jav_config(
    formula: ModelFormula,
    d: Dataset,
    m: int = 10,
    iterations: int | None = None,
    seed: int = 0,
    max_rejections: int = 100_000,
) -> EngineConfig:
    """Chained-equations config treating each derived term as its own covariate.

    Every non-linear term of the formula (powers, interactions) is promoted to
    a free-standing covariate, missing exactly where its base variables are,
    and every partial covariate, including binary ones, is imputed with a
    normal linear model on all other variables plus the outcome.  Nothing is
    passively recomputed afterwards.
    """
    if formula.is_survival:
        raise ValueError("promotion of derived terms is defined for single-outcome formulas")
    derived_terms = tuple(t for t in formula.terms if not t.is_linear)
    if not derived_terms:
        raise ValueError("formula has no power or interaction terms to promote")
    promoted_names = [term_column_name(t) for t in derived_terms]
    targets = [c.name for c in d.partial_covariates()] + promoted_names
    others_pool = _covariate_names(d) + promoted_names
    specs = []
    for target in targets:
        preds = [Term(((o, 1),)) for o in others_pool if o != target]
        preds.append(Term(((formula.response, 1),)))
        specs.append(CovariateModelSpec(target=target, family="normal_linear", predictors=tuple(preds)))
    return EngineConfig(
        method="fcs",
        m=m,
        iterations=iterations,
        seed=seed,
        max_rejections=max_rejections,
        covariate_specs=tuple(specs),
        promote_terms=derived_terms,
    )


def jav_analysis_formula(formula: ModelFormula) -> ModelFormula:
    """The formula to fit after promotion: derived terms become plain columns."""
    terms = tuple(
        t if t.is_linear else Term(((term_column_name(t), 1),)) for t in formula.terms
    )
    return ModelFormula(response=formula.response, terms=terms, intercept=formula.intercept)


# ---------------------------------------------------------------------------
# engine context

@dataclass
class _Context:
    d: Dataset  # augmented dataset
    config: EngineConfig
    sampled: list[str]  # covariates imputed by sampling, in missingness order
    specs: dict[str, CovariateModelSpec]
    derived: tuple[DerivedColumn, ...]
    masks: dict[str, np.ndarray]
    missing_idx: dict[str, np.ndarray]
    model: Family | None = None  # smcfcs: the outcome family
    response: object = None  # smcfcs: model.prepare(response arrays), built once per run


def _materialize_column(d: Dataset, name, values, observed, kind, role) -> Dataset:
    if d.has_column(name):
        raise DataError(f"column {name!r} already exists")
    col = Column(name, kind, role, values, observed)
    return Dataset(d.columns + (col,))


def _augment_dataset(d: Dataset, config: EngineConfig) -> Dataset:
    if config.cumhaz_column is not None:
        time_cols = [c for c in d.columns if c.role is VariableRole.TIME]
        event_cols = [c for c in d.columns if c.role is VariableRole.EVENT]
        if not time_cols or not event_cols:
            raise DataError("cumhaz_column needs time and event columns")
        hazard = nelson_aalen(time_cols[0].values, event_cols[0].values)
        values = np.asarray(hazard(time_cols[0].values), dtype=float)
        d = _materialize_column(
            d, config.cumhaz_column, values, np.ones(d.n, dtype=bool),
            VariableKind.CONTINUOUS, VariableRole.COMPLETE_COVARIATE,
        )
    if config.promote_terms:
        # linear imputation of formerly-binary covariates produces off-{0,1}
        # values, so every sampled covariate becomes continuous
        cols = []
        for col in d.columns:
            if col.role is VariableRole.PARTIAL_COVARIATE and col.kind is VariableKind.BINARY:
                col = Column(col.name, VariableKind.CONTINUOUS, col.role,
                             col.values, col.observed)
            cols.append(col)
        d = Dataset(tuple(cols))
        for t in config.promote_terms:
            d = _materialize_term(d, term_column_name(t), t)
    for dc in config.derived_columns:
        if d.has_column(dc.name):
            continue  # user supplied the derived column; its cells are kept
        d = _materialize_term(d, dc.name, dc.term)
    return d


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


def _outcome_derived_names(d: Dataset, config: EngineConfig) -> set[str]:
    names = {
        c.name
        for c in d.columns
        if c.role in (VariableRole.OUTCOME, VariableRole.TIME, VariableRole.EVENT)
    }
    if config.cumhaz_column is not None:
        names.add(config.cumhaz_column)
    for dc in config.derived_columns:  # single pass suffices: config order
        if any(v in names for v in dc.term.variables):
            names.add(dc.name)
    return names


def _build_context(d: Dataset, config: EngineConfig) -> _Context:
    d = _augment_dataset(d, config)
    derived_names = {dc.name for dc in config.derived_columns}
    sampled_cols = [c for c in d.partial_covariates() if c.name not in derived_names]
    if not sampled_cols:
        sampled = []
    else:
        order = _missingness_order(d)
        sampled = [name for name in order if name not in derived_names]

    specs: dict[str, CovariateModelSpec] = {}
    for spec in config.covariate_specs:
        if spec.target in specs:
            raise DataError(f"duplicate covariate spec for {spec.target}")
        specs[spec.target] = spec
    for name in sampled:
        if name not in specs:
            raise DataError(f"no covariate spec for partial covariate {name}")
    extra = set(specs) - set(sampled)
    if extra:
        raise DataError(f"covariate spec for non-sampled column {sorted(extra)[0]!r}")

    outcome_derived = _outcome_derived_names(d, config)
    for name, spec in specs.items():
        col = d.column(name)
        if spec.model.binary != (col.kind is VariableKind.BINARY):
            raise DataError(
                f"covariate {name} is {col.kind.value}; spec family {spec.family} does not match"
            )
        for v in spec.formula.variables:
            if not d.has_column(v):
                raise DataError(f"spec for {name} references unknown column {v!r}")
            if config.method == "smcfcs" and v in outcome_derived:
                raise DataError(
                    f"smcfcs covariate model for {name} must not condition on "
                    f"outcome-derived column {v!r}"
                )

    model = response = None
    if config.method == "smcfcs":
        family, formula = config.substantive
        for v in formula.variables:
            if not d.has_column(v):
                raise SubstantiveModelError(f"substantive formula references unknown column {v!r}")
        model = FAMILIES[family]
        try:
            response = model.prepare(*response_arrays(formula, d))
        except DataError as exc:  # an absent response column
            raise SubstantiveModelError(f"substantive response: {exc}") from None
        except FormulaError as exc:  # a response column with missing cells
            raise SubstantiveModelError(f"substantive {exc}") from None

    masks = {c.name: c.observed.copy() for c in d.columns}
    missing_idx = {name: np.flatnonzero(~masks[name]) for name in sampled}
    return _Context(
        d=d, config=config, sampled=sampled, specs=specs,
        derived=config.derived_columns, masks=masks,
        missing_idx=missing_idx, model=model, response=response,
    )


# ---------------------------------------------------------------------------
# chain primitives

def _init_columns(ctx: _Context, rng) -> dict[str, np.ndarray]:
    cur = {c.name: c.values.copy() for c in ctx.d.columns}
    for name in ctx.sampled:
        observed_values = cur[name][ctx.masks[name]]
        if observed_values.size == 0:
            raise EngineFailure(f"column {name} has no observed values")
        cur[name][ctx.missing_idx[name]] = rng.choice(
            observed_values, size=ctx.missing_idx[name].size, replace=True
        )
    _recompute_derived(ctx, cur)
    return cur


def _recompute_derived(ctx: _Context, cur) -> None:
    for dc in ctx.derived:
        mask = ctx.masks[dc.name]
        values = dc.term.evaluate(cur)
        cur[dc.name] = np.where(mask, cur[dc.name], values)


def _design(formula: ModelFormula, cols, n) -> np.ndarray:
    """The right-hand side of an outcome or covariate formula on `cols`."""
    return design_from_arrays(formula.terms, formula.intercept, cols, n)


# ---------------------------------------------------------------------------
# compatible sampler

def smc_binary_probs(family, formula, psi, spec, phi, cur, rows):
    """P(X_j = 1 | outcome, other covariates) for the rows in `rows`.

    Exact enumeration of the two support points of the compatible imputation
    density, computed in log space: weight(v) is the outcome model's
    acceptance ratio at X_j = v times the covariate model's mass at v.
    """
    model = FAMILIES[family]
    needed = set(formula.variables) | set(spec.formula.variables)
    base = {v: cur[v][rows] for v in needed if v != spec.target}
    y_parts = model.y_parts(formula, psi, cur, rows)
    size = rows.size
    mu = _design(spec.formula, base, size) @ phi.beta
    log_w = []
    for v in (0.0, 1.0):
        cols = dict(base)
        cols[spec.target] = np.full(size, v)
        g = _design(formula, cols, size) @ psi.beta
        log_ratio = model.log_ratio(psi, y_parts, g)
        log_mass = spec.model.log_ratio(phi, (cols[spec.target],), mu)
        log_w.append(log_ratio + log_mass)
    return expit(log_w[1] - log_w[0])


def smc_reject_sample(family, formula, psi, spec, phi, cur, rows, rng, max_rejections):
    """Rejection-sample the compatible density, proposal = covariate model.

    Returns (values, proposals, fallbacks).  A cell that exhausts the attempt
    cap takes the candidate with the highest acceptance ratio seen so far.

    Proposals are drawn in growing per-cell batches; within a batch each cell
    keeps its first accepted candidate, which is equivalent to proposing one
    candidate at a time.
    """
    model = FAMILIES[family]
    needed = set(formula.variables) | set(spec.formula.variables)
    base = {v: cur[v][rows] for v in needed if v != spec.target}
    y_parts = model.y_parts(formula, psi, cur, rows)
    size = rows.size

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
        wide = npend * batch
        sub = {v: np.repeat(arr[pending], batch) for v, arr in base.items()}
        cand = spec.model.sample(phi, _design(spec.formula, sub, wide) @ phi.beta, rng)
        sub[spec.target] = cand
        y_sub = tuple(np.repeat(part[pending], batch) for part in y_parts)
        g = _design(formula, sub, wide) @ psi.beta
        log_ratio = model.log_ratio(psi, y_sub, g)
        proposals += wide
        attempts += batch
        ratio = np.exp(np.minimum(log_ratio, 0.0))
        accept = (rng.random(wide) <= ratio) & (ratio > 0.0)

        accept2 = accept.reshape(npend, batch)
        hit = accept2.any(axis=1)
        first = accept2.argmax(axis=1)  # column of the first acceptance per cell
        taken = cand.reshape(npend, batch)[np.arange(npend), first]
        values[pending[hit]] = taken[hit]

        lr2 = log_ratio.reshape(npend, batch)
        row_best = lr2.argmax(axis=1)
        row_best_lr = lr2[np.arange(npend), row_best]
        better = row_best_lr > best_log_ratio[pending]
        best_log_ratio[pending[better]] = row_best_lr[better]
        best_value[pending[better]] = cand.reshape(npend, batch)[np.arange(npend), row_best][better]

        pending = pending[~hit]
        if attempts >= max_rejections:
            break
        batch = min(batch * 4, 4096)
    fallbacks = pending.size
    values[pending] = best_value[pending]
    return values, proposals, fallbacks


# ---------------------------------------------------------------------------
# sweeps

def _fcs_sweep(ctx: _Context, cur, rng, diag, imp, sweep, warm):
    for name in ctx.sampled:
        _recompute_derived(ctx, cur)
        spec = ctx.specs[name]
        X = _design(spec.formula, cur, ctx.d.n)
        obs = ctx.masks[name]
        fit = spec.model.fit(X[obs], cur[name][obs], warm.get(name))
        phi = spec.model.posterior(fit, rng)
        warm[name] = fit.beta
        diag.record_trace(imp, sweep, f"phi[{name}]", spec.formula.labels(), phi.beta)
        miss = ctx.missing_idx[name]
        if miss.size:
            cur[name][miss] = spec.model.sample(phi, X[miss] @ phi.beta, rng)
    _recompute_derived(ctx, cur)


def _smcfcs_sweep(ctx: _Context, cur, rng, diag, imp, sweep, warm):
    family, formula = ctx.config.substantive
    model, response = ctx.model, ctx.response
    for name in ctx.sampled:
        X = _design(formula, cur, ctx.d.n)
        fit = model.fit(X, response, warm.get("_psi"))
        psi = model.draw(fit, X, response, rng)
        warm["_psi"] = fit.beta
        diag.record_trace(imp, sweep, f"psi[{name}]", formula.labels(), psi.beta)
        if psi.sigma2 is not None:
            diag.record_trace(imp, sweep, f"psi[{name}]", ["sigma2"], [psi.sigma2])
        spec = ctx.specs[name]
        X = _design(spec.formula, cur, ctx.d.n)
        fit = spec.model.fit(X, cur[name], warm.get(name))
        phi = spec.model.posterior(fit, rng)
        warm[name] = fit.beta
        diag.record_trace(imp, sweep, f"phi[{name}]", spec.formula.labels(), phi.beta)
        miss = ctx.missing_idx[name]
        if not miss.size:
            continue
        if spec.model.binary:
            p1 = smc_binary_probs(family, formula, psi, spec, phi, cur, miss)
            cur[name][miss] = (rng.random(miss.size) < p1).astype(float)
            diag.record_sampling(name, miss.size, miss.size, 0)
        else:
            vals, proposals, fallbacks = smc_reject_sample(
                family, formula, psi, spec, phi, cur, miss, rng,
                ctx.config.max_rejections,
            )
            cur[name][miss] = vals
            diag.record_sampling(name, proposals, miss.size - fallbacks, fallbacks)


# ---------------------------------------------------------------------------
# engine driver

def _run_engine(d: Dataset, config: EngineConfig, rng, sweep_fn) -> ImputationResult:
    ctx = _build_context(d, config)
    base = rng if rng is not None else subsequence(config.seed, "engine")
    diag = Diagnostics()
    datasets = []
    for imp in range(1, config.m + 1):
        chain_rng = stream(base, "chain", imp)
        last_error = None
        for _attempt in range(1 + MAX_CHAIN_RETRIES):
            checkpoint = diag.snapshot()
            try:
                cur = _init_columns(ctx, chain_rng)
                warm: dict = {}
                for sweep in range(1, config.sweeps + 1):
                    sweep_fn(ctx, cur, chain_rng, diag, imp, sweep, warm)
                break
            except FitError as exc:
                # diagnostics describe delivered imputations only
                diag.rollback(checkpoint)
                last_error = exc
                diag.retries += 1
        else:
            raise EngineFailure(
                f"imputation {imp} failed after {MAX_CHAIN_RETRIES} retries: {last_error}"
            )
        datasets.append(ctx.d.with_values({name: cur[name] for name in cur}))
    return ImputationResult(datasets=tuple(datasets), diagnostics=diag)


def run_fcs(d: Dataset, config: EngineConfig, rng=None) -> ImputationResult:
    """Standard chained-equations imputation."""
    if config.method != "fcs":
        raise ValueError("config.method must be 'fcs'")
    return _run_engine(d, config, rng, _fcs_sweep)


def run_smcfcs(d: Dataset, config: EngineConfig, rng=None) -> ImputationResult:
    """Substantive-model-compatible chained-equations imputation."""
    if config.method != "smcfcs":
        raise ValueError("config.method must be 'smcfcs'")
    return _run_engine(d, config, rng, _smcfcs_sweep)
