import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import chisquare

from smcimpute.covariates import CovariateModelSpec, CovariateParams
from smcimpute.dataset import (
    Column,
    DataError,
    Dataset,
    VariableKind,
    VariableRole,
)
from smcimpute.engines import (
    DerivedColumn,
    EngineConfig,
    EngineFailure,
    default_covariate_specs,
    jav_analysis_formula,
    jav_config,
    run_fcs,
    run_smcfcs,
    smc_binary_probs,
    smc_reject_sample,
)
from smcimpute.formula import Term, parse_formula
from smcimpute.substantive import SubstantiveParams

C, B = VariableKind.CONTINUOUS, VariableKind.BINARY
PART, COMP, OUT = (
    VariableRole.PARTIAL_COVARIATE,
    VariableRole.COMPLETE_COVARIATE,
    VariableRole.OUTCOME,
)


def dataset(cols):
    out = []
    for name, kind, role, vals, obs in cols:
        vals = np.asarray(vals, dtype=float)
        out.append(Column(name, kind, role, vals, np.asarray(obs, dtype=bool)))
    return Dataset(tuple(out))


def quadratic_data(n=300, p_obs=0.7, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(2.0, 1.0, n)
    y = 4.0 - 4.0 * x + x * x + rng.normal(0.0, np.sqrt(2.0), n)
    obs = rng.random(n) < p_obs
    return dataset([
        ("x", C, PART, np.where(obs, x, np.nan), obs),
        ("y", C, OUT, y, np.ones(n)),
    ])


def smcfcs_quadratic_config(**kw):
    defaults = dict(
        method="smcfcs",
        m=3,
        iterations=5,
        seed=11,
        substantive=("normal_linear", parse_formula("y ~ x + x^2")),
        covariate_specs=(CovariateModelSpec("x", "normal_linear", predictors=()),),
    )
    defaults.update(kw)
    return EngineConfig(**defaults)


# ---------------------------------------------------------------------------
# initialization

def initialize(d, rng):
    """The columns a chain starts from, as both engines initialize them."""
    from smcimpute.engines import _build_context, _init_columns

    config = EngineConfig(method="fcs", covariate_specs=default_covariate_specs(d, "fcs"))
    return _init_columns(_build_context(d, config), rng)


def test_initialize_identity_when_complete():
    d = dataset([("x", C, PART, [1.0, 2.0], [True, True])])
    out = initialize(d, np.random.default_rng(0))
    np.testing.assert_array_equal(out["x"], [1.0, 2.0])


def test_initialize_constant_observed_values():
    d = dataset([("x", C, PART, [1.0, 1.0, 1.0, np.nan], [True, True, True, False])])
    out = initialize(d, np.random.default_rng(0))
    assert out["x"][3] == 1.0


def test_initialize_draws_from_observed_multiset():
    vals = [1.5, 2.5, 9.0] + [np.nan] * 40
    obs = [True] * 3 + [False] * 40
    d = dataset([("x", C, PART, vals, obs)])
    out = initialize(d, np.random.default_rng(1))
    np.testing.assert_array_equal(out["x"][:3], [1.5, 2.5, 9.0])
    assert set(out["x"][3:]) <= {1.5, 2.5, 9.0}


# ---------------------------------------------------------------------------
# chained equations engine

def test_fcs_zero_missing_returns_copies():
    rng = np.random.default_rng(2)
    n = 40
    x = rng.normal(size=n)
    y = x + rng.normal(size=n)
    d = dataset([("x", C, PART, x, np.ones(n)), ("y", C, OUT, y, np.ones(n))])
    cfg = EngineConfig(method="fcs", m=3, iterations=2, seed=5,
                       covariate_specs=(CovariateModelSpec(
                           "x", "normal_linear", predictors=(Term((("y", 1),)),)),))
    result = run_fcs(d, cfg)
    assert result.m == 3
    for imp in result.datasets:
        np.testing.assert_array_equal(imp.column("x").values, x)


def test_engines_preserve_observed_cells_and_are_deterministic():
    d = quadratic_data(seed=3)
    cfg = smcfcs_quadratic_config()
    r1 = run_smcfcs(d, cfg)
    r2 = run_smcfcs(d, cfg)
    obs = d.column("x").observed
    for a, b in zip(r1.datasets, r2.datasets):
        np.testing.assert_array_equal(
            a.column("x").values[obs], d.column("x").values[obs]
        )
        np.testing.assert_array_equal(a.column("x").values, b.column("x").values)
    # distinct chains differ
    assert not np.array_equal(
        r1.datasets[0].column("x").values, r1.datasets[1].column("x").values
    )


def test_fcs_derived_columns_passively_recomputed():
    d0 = quadratic_data(seed=4)
    cfg = EngineConfig(
        method="fcs", m=2, iterations=3, seed=6,
        covariate_specs=(CovariateModelSpec(
            "x", "normal_linear", predictors=(Term((("y", 1),)),)),),
        derived_columns=(DerivedColumn("x_sq", Term((("x", 2),))),),
    )
    result = run_fcs(d0, cfg)
    for imp in result.datasets:
        np.testing.assert_array_equal(
            imp.column("x_sq").values, imp.column("x").values ** 2
        )


# ---------------------------------------------------------------------------
# just-another-variable configuration

def test_jav_promotes_derived_terms():
    d = quadratic_data(seed=5)
    cfg = jav_config(parse_formula("y ~ x + x^2"), d, m=2, iterations=3, seed=7)
    result = run_fcs(d, cfg)
    imp = result.datasets[0]
    assert imp.has_column("x_pow2")
    # promoted column was missing exactly where x was, then imputed freely
    obs = d.column("x").observed
    promoted = imp.column("x_pow2")
    np.testing.assert_array_equal(promoted.observed, obs)
    np.testing.assert_allclose(
        promoted.values[obs], d.column("x").values[obs] ** 2
    )
    # no passive recomputation: imputed x_pow2 is free of imputed x
    assert not np.allclose(promoted.values[~obs], imp.column("x").values[~obs] ** 2)


def test_jav_analysis_formula_renames_terms():
    f = jav_analysis_formula(parse_formula("y ~ x1 + x2 + x1*x2"))
    assert str(f) == "y ~ x1 + x2 + x1_times_x2"


def test_jav_requires_derived_terms():
    d = quadratic_data(seed=6)
    with pytest.raises(ValueError):
        jav_config(parse_formula("y ~ x"), d)


def test_jav_relabels_binary_covariates_continuous():
    rng = np.random.default_rng(7)
    n = 120
    x1 = (rng.random(n) < 0.5).astype(float)
    x2 = rng.normal(x1, 1.0)
    y = x1 + x2 + x1 * x2 + rng.normal(size=n)
    obs1 = rng.random(n) < 0.7
    obs2 = rng.random(n) < 0.7
    d = dataset([
        ("x1", B, PART, np.where(obs1, x1, np.nan), obs1),
        ("x2", C, PART, np.where(obs2, x2, np.nan), obs2),
        ("y", C, OUT, y, np.ones(n)),
    ])
    cfg = jav_config(parse_formula("y ~ x1 + x2 + x1*x2"), d, m=2, iterations=3, seed=8)
    result = run_fcs(d, cfg)
    imputed_x1 = result.datasets[0].column("x1")
    assert imputed_x1.kind is C
    off_support = imputed_x1.values[~obs1]
    assert np.any((off_support != 0.0) & (off_support != 1.0))


# ---------------------------------------------------------------------------
# compatible-sampler cell machinery

def _binary_setup(psi0=0.2, psi1=0.9, pi1=0.35, n=7):
    formula = parse_formula("y ~ x")
    spec = CovariateModelSpec("x", "logistic", predictors=())
    phi = CovariateParams(beta=np.array([np.log(pi1 / (1 - pi1))]))
    cur = {
        "x": np.zeros(n),
        "y": np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0])[:n],
    }
    psi = SubstantiveParams(family="logistic", beta=np.array([psi0, psi1]))
    return formula, spec, phi, cur, psi


def test_binary_probs_match_bayes_rule_exactly():
    formula, spec, phi, cur, psi = _binary_setup()
    rows = np.arange(7)
    p1 = smc_binary_probs("logistic", formula, psi, spec, phi, cur, rows)
    psi0, psi1, pi1 = 0.2, 0.9, 0.35
    for i, y in enumerate(cur["y"]):
        like1 = expit(psi0 + psi1) if y == 1.0 else 1.0 - expit(psi0 + psi1)
        like0 = expit(psi0) if y == 1.0 else 1.0 - expit(psi0)
        bayes = pi1 * like1 / (pi1 * like1 + (1.0 - pi1) * like0)
        assert abs(p1[i] - bayes) < 1e-12


def test_binary_rejection_matches_enumeration_distribution():
    formula, spec, phi, cur, psi = _binary_setup(n=1)
    rows = np.zeros(10_000, dtype=int)
    cur = {"x": np.zeros(10_000), "y": np.ones(10_000)}
    p1 = smc_binary_probs("logistic", formula, psi, spec, phi, cur,
                          np.arange(10_000))[0]
    draws, _, fallbacks = smc_reject_sample(
        "logistic", formula, psi, spec, phi, cur, np.arange(10_000),
        np.random.default_rng(3), 100_000,
    )
    assert fallbacks == 0
    observed = np.array([np.sum(draws == 0.0), np.sum(draws == 1.0)])
    expected = np.array([(1 - p1) * 10_000, p1 * 10_000])
    assert chisquare(observed, expected).pvalue > 0.001


def test_smc_reject_continuous_samples_conjugate_conditional():
    # linear outcome + normal proposal: the target is a known normal density
    formula = parse_formula("y ~ x")
    spec = CovariateModelSpec("x", "normal_linear", predictors=())
    mu_x, tau2 = 1.0, 4.0
    a, b, sigma2 = 0.5, 1.2, 2.0
    phi = CovariateParams(beta=np.array([mu_x]), sigma2=tau2)
    psi = SubstantiveParams(family="normal_linear", beta=np.array([a, b]), sigma2=sigma2)
    y_val = 3.0
    m = 20_000
    cur = {"x": np.zeros(m), "y": np.full(m, y_val)}
    draws, _, fallbacks = smc_reject_sample(
        "normal_linear", formula, psi, spec, phi, cur, np.arange(m),
        np.random.default_rng(4), 100_000,
    )
    assert fallbacks == 0
    prec = 1.0 / tau2 + b * b / sigma2
    mean = (mu_x / tau2 + b * (y_val - a) / sigma2) / prec
    sd = np.sqrt(1.0 / prec)
    assert abs(draws.mean() - mean) < 4.0 * sd / np.sqrt(m)
    assert abs(draws.std(ddof=1) - sd) < 4.0 * sd * np.sqrt(0.5 / m)


def test_rejection_cap_falls_back_to_best_candidate():
    formula = parse_formula("y ~ x")
    spec = CovariateModelSpec("x", "normal_linear", predictors=())
    phi = CovariateParams(beta=np.array([0.0]), sigma2=1.0)
    # outcome nearly impossible under the model: acceptance ratio ~ 0
    psi = SubstantiveParams(family="normal_linear", beta=np.array([0.0, 1.0]),
                            sigma2=1e-6)
    cur = {"x": np.zeros(3), "y": np.full(3, 50.0)}
    values, proposals, fallbacks = smc_reject_sample(
        "normal_linear", formula, psi, spec, phi, cur, np.arange(3),
        np.random.default_rng(5), 64,
    )
    assert fallbacks == 3
    assert np.all(np.isfinite(values))
    # fallback keeps the candidate closest to the impossible outcome, i.e. a
    # value from the proposal's upper tail
    assert np.all(values > 1.0)


# ---------------------------------------------------------------------------
# configuration validation and failure policy

def test_smcfcs_rejects_outcome_predictors():
    d = quadratic_data(seed=10)
    cfg = smcfcs_quadratic_config(
        covariate_specs=(CovariateModelSpec(
            "x", "normal_linear", predictors=(Term((("y", 1),)),)),),
    )
    with pytest.raises(DataError, match="outcome-derived"):
        run_smcfcs(d, cfg)


def test_smcfcs_rejects_a_response_with_missing_cells():
    # the outcome model's response is prepared once per run, so it must be observed
    d = quadratic_data(seed=10)
    cfg = smcfcs_quadratic_config(substantive=("normal_linear", parse_formula("x ~ y")),
                                  covariate_specs=(CovariateModelSpec("x", "normal_linear",
                                                                      predictors=()),))
    with pytest.raises(DataError, match="column x has missing cells"):
        run_smcfcs(d, cfg)


def test_every_partial_covariate_needs_a_spec():
    d = quadratic_data(seed=11)
    cfg = EngineConfig(method="fcs", m=2, covariate_specs=())
    with pytest.raises(DataError, match="no covariate spec"):
        run_fcs(d, cfg)


def test_spec_family_must_match_kind():
    rng = np.random.default_rng(12)
    n = 30
    d = dataset([
        ("b", B, PART, (rng.random(n) < 0.5).astype(float), np.ones(n)),
        ("y", C, OUT, rng.normal(size=n), np.ones(n)),
    ])
    cfg = EngineConfig(method="fcs", m=2, covariate_specs=(CovariateModelSpec(
        "b", "normal_linear", predictors=(Term((("y", 1),)),)),))
    with pytest.raises(DataError, match="does not match"):
        run_fcs(d, cfg)


def test_smcfcs_requires_substantive():
    with pytest.raises(ValueError):
        EngineConfig(method="smcfcs", m=2)


def test_persistent_fit_failure_aborts():
    # a single observed x value makes every covariate fit rank deficient
    vals = [2.0] + [np.nan] * 20
    obs = [True] + [False] * 20
    y = np.arange(21.0)
    d = dataset([
        ("x", C, PART, vals, obs),
        ("y", C, OUT, y, np.ones(21)),
    ])
    cfg = EngineConfig(method="fcs", m=1, iterations=2, seed=1,
                       covariate_specs=(CovariateModelSpec(
                           "x", "normal_linear", predictors=(Term((("y", 1),)),)),))
    with pytest.raises(EngineFailure):
        run_fcs(d, cfg)


def test_default_covariate_specs_shapes():
    rng = np.random.default_rng(13)
    n = 25
    d = dataset([
        ("x1", B, PART, (rng.random(n) < 0.5).astype(float), np.ones(n)),
        ("x2", C, PART, rng.normal(size=n), np.ones(n)),
        ("z", C, COMP, rng.normal(size=n), np.ones(n)),
        ("y", C, OUT, rng.normal(size=n), np.ones(n)),
    ])
    smc = {s.target: s for s in default_covariate_specs(d, "smcfcs")}
    assert smc["x1"].family == "logistic"
    assert smc["x1"].predictor_variables == ("x2", "z")
    fcs = {s.target: s for s in default_covariate_specs(d, "fcs")}
    assert fcs["x2"].predictor_variables == ("x1", "z", "y")


def test_linear_substantive_smcfcs_agrees_with_fcs():
    # jointly normal data and a linear-only outcome model: both engines are
    # correctly specified, so pooled estimates agree up to Monte-Carlo error
    from smcimpute.pooling import fit_each, pool
    from smcimpute.rng import stream, subsequence

    formula = parse_formula("y ~ x")
    reps = 30
    diffs = np.empty(reps)
    spread = np.empty(reps)
    for rep in range(reps):
        rng = stream(31, "rep", rep)
        n = 300
        x = rng.normal(2.0, 1.0, n)
        y = 1.0 + 2.0 * x + rng.normal(0.0, 1.5, n)
        obs = rng.random(n) < 0.7
        d = dataset([
            ("x", C, PART, np.where(obs, x, np.nan), obs),
            ("y", C, OUT, y, np.ones(n)),
        ])
        smc_cfg = EngineConfig(
            method="smcfcs", m=5, iterations=5,
            substantive=("normal_linear", formula),
            covariate_specs=(CovariateModelSpec("x", "normal_linear", predictors=()),),
        )
        fcs_cfg = EngineConfig(
            method="fcs", m=5, iterations=5,
            covariate_specs=(CovariateModelSpec(
                "x", "normal_linear", predictors=(Term((("y", 1),)),)),),
        )
        r_smc = run_smcfcs(d, smc_cfg, rng=subsequence(31, "rep", rep, "smc"))
        r_fcs = run_fcs(d, fcs_cfg, rng=subsequence(31, "rep", rep, "fcs"))
        p_smc = pool(*fit_each(r_smc, "normal_linear", formula))
        p_fcs = pool(*fit_each(r_fcs, "normal_linear", formula))
        diffs[rep] = p_smc.point[1] - p_fcs.point[1]
        spread[rep] = np.sqrt(p_smc.total_var[1] + p_fcs.total_var[1])
    # mean disagreement is zero within Monte-Carlo error
    assert abs(diffs.mean()) < 3.0 * diffs.std(ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(diffs) < 4.0 * spread)


def test_fcs_survival_materializes_cumhaz():
    rng = np.random.default_rng(14)
    n = 150
    x2 = rng.normal(size=n)
    w = rng.exponential(1.0, n) + 1e-3
    ev = (rng.random(n) < 0.6).astype(float)
    obs = rng.random(n) < 0.7
    d = dataset([
        ("x2", C, PART, np.where(obs, x2, np.nan), obs),
        ("w", C, VariableRole.TIME, w, np.ones(n)),
        ("d", B, VariableRole.EVENT, ev, np.ones(n)),
    ])
    cfg = EngineConfig(
        method="fcs", m=2, iterations=3, seed=2,
        covariate_specs=default_covariate_specs(d, "fcs", cumhaz_column="ch"),
        cumhaz_column="ch",
    )
    result = run_fcs(d, cfg)
    imp = result.datasets[0]
    assert imp.has_column("ch")
    from smcimpute.fitters import nelson_aalen

    na = nelson_aalen(w, ev)
    np.testing.assert_allclose(imp.column("ch").values, na(w))


def test_one_fit_failure_retries_and_rolls_back_diagnostics(monkeypatch):
    import smcimpute.engines as engines
    from smcimpute.fitters import FitError

    real = engines.fit_and_draw_arrays
    calls = {"n": 0}

    def fail_third_call(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 3:  # chain 1, sweep 3: two sweeps already recorded
            raise FitError("forced")
        return real(*args, **kwargs)

    monkeypatch.setattr(engines, "fit_and_draw_arrays", fail_third_call)
    d = quadratic_data(n=120, seed=4)
    cfg = smcfcs_quadratic_config(m=2, iterations=4)
    diag = run_smcfcs(d, cfg).diagnostics
    assert diag.retries == 1
    keys = [row[:4] for row in diag.traces]
    assert len(keys) == len(set(keys))
    assert {k[:2] for k in keys} == {(imp, s) for imp in (1, 2) for s in range(1, 5)}
    n_miss = d.column("x").n_missing
    assert diag.accepted["x"] + diag.fallbacks["x"] == 2 * 4 * n_miss


def test_cox_smcfcs_run_builds_the_risk_set_layout_once(monkeypatch):
    import smcimpute.fitters as fitters
    import smcimpute.substantive as substantive
    from smcimpute.simlab import apply_mcar, gen_cox

    counts = {"cox_layout": 0, "fit_cox": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    layout_builder = counting("cox_layout", fitters.cox_layout)
    for module in (fitters, substantive):
        monkeypatch.setattr(module, "cox_layout", layout_builder)
    monkeypatch.setattr(substantive, "fit_cox", counting("fit_cox", fitters.fit_cox))
    d = apply_mcar(gen_cox(200, np.random.default_rng(5)), 0.7, np.random.default_rng(6))
    cfg = EngineConfig(
        method="smcfcs", m=2, iterations=2, seed=3,
        substantive=("cox", parse_formula("surv(w,d) ~ x1 + x2")),
        covariate_specs=default_covariate_specs(d, "smcfcs"),
    )
    assert run_smcfcs(d, cfg).diagnostics.retries == 0
    assert counts == {"cox_layout": 1, "fit_cox": 2 * 2 * 2}  # chains x sweeps x covariates
    # the layout lives in the run, not in module state
    assert not [name for name, value in vars(fitters).items()
                if not name.startswith("__") and isinstance(value, dict)]
