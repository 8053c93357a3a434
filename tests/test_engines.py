import warnings

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
    CUMHAZ,
    CovariateModelError,
    EngineConfig,
    EngineFailure,
    SubstantiveModelError,
    default_covariate_specs,
    jav_analysis_formula,
    jav_dataset,
    run_fcs,
    run_smcfcs,
    smc_binary_probs,
    smc_reject_sample,
)
from smcimpute.fitters import FitError, StepCumHazard
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

    config = EngineConfig(method="fcs")
    return _init_columns(_build_context(d, config), rng)


def test_initialize_identity_when_complete():
    d = dataset([("x", C, PART, [1.0, 2.0], [True, True])])
    out = initialize(d, np.random.default_rng(0))
    np.testing.assert_array_equal(out["x"], [1.0, 2.0])


def test_initialize_constant_observed_values():
    d = dataset([("x", C, PART, [1.0, 1.0, 1.0, np.nan], [True, True, True, False])])
    out = initialize(d, np.random.default_rng(0))
    assert out["x"][3] == 1.0


def test_a_partial_covariate_with_no_observed_value_fails_the_run():
    d = quadratic_data(n=40, p_obs=0.0, seed=1)
    assert not d.column("x").observed.any()
    cfg = EngineConfig(method="fcs", m=2, iterations=1)
    with pytest.raises(EngineFailure, match="^column x has no observed values$"):
        run_fcs(d, cfg)


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
    assert len(result.datasets) == 3
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


@pytest.mark.parametrize("method", ["fcs", "smcfcs"])
def test_completed_datasets_share_every_column_they_do_not_impute(method):
    d0 = quadratic_data(n=80, seed=4)
    z = np.random.default_rng(4).normal(size=d0.n)
    d = Dataset(d0.columns + (Column("z", C, COMP, z, np.ones(d0.n, dtype=bool)),))
    x_before = d.column("x").values.copy()
    if method == "fcs":
        result = run_fcs(d, EngineConfig(method="fcs", m=2, iterations=2, seed=11))
    else:
        result = run_smcfcs(d, smcfcs_quadratic_config(m=2, iterations=2))
    for imp in result.datasets:
        assert imp.column("y") is d.column("y")
        assert imp.column("z") is d.column("z")
        assert imp.column("x") is not d.column("x")
    # the chains wrote into copies of x, never into the input
    np.testing.assert_array_equal(d.column("x").values, x_before)
    assert not np.shares_memory(result.datasets[0].column("x").values,
                                result.datasets[1].column("x").values)


# ---------------------------------------------------------------------------
# just-another-variable imputation

def run_jav(formula, d, seed):
    dj = jav_dataset(parse_formula(formula), d)
    cfg = EngineConfig(method="fcs", m=2, iterations=3, seed=seed)
    return run_fcs(dj, cfg)


def test_jav_promotes_derived_terms():
    d = quadratic_data(seed=5)
    result = run_jav("y ~ x + x^2", d, seed=7)
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
    assert f == parse_formula("y ~ x1 + x2 + x1_times_x2")


def test_jav_requires_derived_terms():
    d = quadratic_data(seed=6)
    with pytest.raises(ValueError):
        jav_dataset(parse_formula("y ~ x"), d)


def test_jav_runs_with_a_derived_term_of_complete_variables():
    # z^2 is fully observed, so it is a complete covariate and gets no model
    d0 = quadratic_data(seed=9)
    z = np.random.default_rng(9).normal(size=d0.n)
    d = Dataset(d0.columns + (Column("z", C, COMP, z, np.ones(d0.n, dtype=bool)),))
    result = run_jav("y ~ x + z + z^2", d, seed=3)
    imp = result.datasets[0]
    np.testing.assert_array_equal(imp.column("z_pow2").values, z ** 2)
    assert imp.column("z_pow2").role is COMP
    assert np.all(np.isfinite(imp.column("x").values))


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
    result = run_jav("y ~ x1 + x2 + x1*x2", d, seed=8)
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


def test_rejection_candidates_come_from_each_cell_s_covariate_mean():
    # x ~ z under y ~ x, with psi flat in x and y at its intercept: every log
    # ratio is 0, so each cell takes its first candidate, drawn around its
    # own mean even though the outcome formula does not name z
    formula = parse_formula("y ~ x")
    spec = CovariateModelSpec("x", "normal_linear", predictors=(Term((("z", 1),)),))
    phi = CovariateParams(beta=np.array([0.5, 2.0]), sigma2=0.25)
    psi = SubstantiveParams(family="normal_linear", beta=np.array([1.5, 0.0]), sigma2=1.0)
    n = 8
    cur = {"x": np.zeros(n), "z": np.arange(n, dtype=float), "y": np.full(n, 1.5)}
    rows = np.array([6, 1, 4])
    values, proposals, fallbacks = smc_reject_sample(
        "normal_linear", formula, psi, spec, phi, cur, rows, np.random.default_rng(9), 64)
    mu = 0.5 + 2.0 * cur["z"][rows]
    expected = spec.model.sample(phi, np.repeat(mu, 4), np.random.default_rng(9))[::4]
    assert (proposals, fallbacks) == (4 * rows.size, 0)
    np.testing.assert_array_equal(values, expected)


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


def _vanishing_outcome_setup(target_kind, n=6):
    # a normal outcome with variance 1e-320 gives every value of the target
    # a log acceptance ratio of -inf: the compatible density is zero
    formula = parse_formula("y ~ x")
    if target_kind == "binary":
        spec = CovariateModelSpec("x", "logistic", predictors=())
        phi = CovariateParams(beta=np.array([0.0]))
    else:
        spec = CovariateModelSpec("x", "normal_linear", predictors=())
        phi = CovariateParams(beta=np.array([0.0]), sigma2=1.0)
    psi = SubstantiveParams(family="normal_linear", beta=np.array([0.0, 1.0]), sigma2=1e-320)
    cur = {"x": np.zeros(n), "y": np.full(n, 50.0)}
    return formula, spec, phi, cur, psi


def test_binary_probs_raise_when_the_density_vanishes_at_both_values():
    formula, spec, phi, cur, psi = _vanishing_outcome_setup("binary")
    with pytest.raises(FitError, match="vanishes at 0 and at 1"):
        smc_binary_probs("normal_linear", formula, psi, spec, phi, cur, np.arange(6))


def test_rejection_raises_when_the_density_vanishes_at_every_proposal():
    formula, spec, phi, cur, psi = _vanishing_outcome_setup("continuous")
    with pytest.raises(FitError, match="vanishes at every proposal"):
        smc_reject_sample("normal_linear", formula, psi, spec, phi, cur, np.arange(6),
                          np.random.default_rng(5), 64)


def _reject_sample_one_cell_each(family, formula, psi, cur, n=4):
    spec = CovariateModelSpec("x", "normal_linear", predictors=())
    phi = CovariateParams(beta=np.array([0.0]), sigma2=1.0)
    return smc_reject_sample(family, formula, psi, spec, phi, cur, np.arange(n),
                             np.random.default_rng(5), 64)


def test_rejection_raises_fit_error_for_an_event_at_zero_cumulative_hazard():
    # the baseline's first knot lies after every event time, so H0(t) = 0 there
    psi = SubstantiveParams(family="cox", beta=np.array([1.0]),
                            baseline=StepCumHazard(knots=[5.0], cumvals=[0.3]))
    cur = {"x": np.zeros(4), "t": np.array([1.0, 2.0, 3.0, 4.0]), "d": np.ones(4)}
    with pytest.raises(FitError, match="event at zero cumulative hazard"):
        _reject_sample_one_cell_each("cox", parse_formula("surv(t,d) ~ x"), psi, cur)


def test_rejection_accepts_censored_rows_at_zero_hazard_whatever_the_predictor():
    # censored rows before the first knot have log ratio 0, even where exp(g) overflows
    psi = SubstantiveParams(family="cox", beta=np.array([1.0]),
                            baseline=StepCumHazard(knots=[5.0], cumvals=[0.3]))
    cur = {"x": np.zeros(3), "t": np.array([1.0, 2.0, 3.0]), "d": np.zeros(3)}
    spec = CovariateModelSpec("x", "normal_linear", predictors=())
    phi = CovariateParams(beta=np.array([800.0]), sigma2=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, _, fallbacks = smc_reject_sample(
            "cox", parse_formula("surv(t,d) ~ x"), psi, spec, phi, cur, np.arange(3),
            np.random.default_rng(5), 64)
    assert fallbacks == 0
    assert np.all(np.abs(values - 800.0) < 10.0)


def test_rejection_raises_fit_error_for_a_zero_outcome_variance():
    psi = SubstantiveParams(family="normal_linear", beta=np.array([0.0, 1.0]), sigma2=0.0)
    cur = {"x": np.zeros(4), "y": np.ones(4)}
    with pytest.raises(FitError, match="sigma2 must be positive"):
        _reject_sample_one_cell_each("normal_linear", parse_formula("y ~ x"), psi, cur)


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


def test_smcfcs_rejects_a_covariate_model_on_a_response_the_schema_calls_a_covariate():
    d0 = quadratic_data(seed=10)
    y = d0.column("y")
    d = Dataset((d0.column("x"), Column("y", C, COMP, y.values, y.observed)))
    cfg = smcfcs_quadratic_config(covariate_specs=default_covariate_specs(d, "smcfcs"))
    assert cfg.covariate_specs[0].formula.variables == ("y",)
    with pytest.raises(DataError, match="must not condition on outcome-derived column 'y'"):
        run_smcfcs(d, cfg)


def test_smcfcs_rejects_a_response_with_missing_cells():
    # the outcome model's response is prepared once per run, so it must be observed
    d = quadratic_data(seed=10)
    cfg = smcfcs_quadratic_config(substantive=("normal_linear", parse_formula("x ~ y")),
                                  covariate_specs=(CovariateModelSpec("x", "normal_linear",
                                                                      predictors=()),))
    with pytest.raises(DataError, match="column x has missing cells"):
        run_smcfcs(d, cfg)


def test_smcfcs_rejects_a_survival_time_that_is_not_positive():
    # t is a complete covariate, not a time column, so only the run's one
    # preparation of the response checks its values
    d0 = quadratic_data(seed=10)
    full = np.ones(d0.n, dtype=bool)
    d = Dataset(d0.columns + (Column("t", C, COMP, np.linspace(0.0, 5.0, d0.n), full),
                              Column("e", B, COMP, np.ones(d0.n), full)))
    cfg = smcfcs_quadratic_config(substantive=("cox", parse_formula("surv(t,e) ~ x")))
    with pytest.raises(SubstantiveModelError, match="survival times must be strictly positive"):
        run_smcfcs(d, cfg)


def two_partial_run(case, specs=None):
    """(data, config) of a short run on two partial covariates; `specs=None`
    leaves the config's covariate_specs at its default."""
    from smcimpute.rng import stream
    from smcimpute.simlab import apply_mcar, gen_cox, gen_interaction

    method, substantive = {
        "fcs": ("fcs", None),
        "smcfcs": ("smcfcs", ("normal_linear", parse_formula("y ~ x1 + x2 + x1*x2"))),
        "fcs-survival": ("fcs", None),
    }[case]
    d = (gen_cox(120, stream(21, case)) if case == "fcs-survival"
         else gen_interaction("bvnormal", 120, stream(21, case)))
    d = apply_mcar(d, 0.7, stream(21, case, "mask"))
    kw = {} if specs is None else {"covariate_specs": specs(d, method)}
    return d, EngineConfig(method=method, m=2, iterations=3, seed=4, substantive=substantive, **kw)


def result_bytes(result):
    """Every completed cell's bytes and the diagnostics, as one value to compare."""
    return ([c.values.tobytes() for d in result.datasets for c in d.columns],
            repr(result.diagnostics))


def run_config(d, config):
    return (run_fcs if config.method == "fcs" else run_smcfcs)(d, config)


@pytest.mark.parametrize("case", ["fcs", "smcfcs", "fcs-survival"])
def test_a_run_with_no_covariate_specs_imputes_with_the_defaults(case):
    d, config = two_partial_run(case)
    assert config.covariate_specs == ()
    result = run_config(d, config)
    assert result_bytes(result) == result_bytes(run_config(*two_partial_run(
        case, default_covariate_specs)))
    # the survival defaults condition on the cumulative hazard
    assert result.datasets[0].has_column(CUMHAZ) == (case == "fcs-survival")


@pytest.mark.parametrize("case", ["fcs", "smcfcs", "fcs-survival"])
def test_a_partial_set_of_covariate_specs_is_completed_with_the_defaults(case):
    def override(d, method):  # x1 on no other covariate
        return (CovariateModelSpec.from_formula(parse_formula("x1 ~ 1"), d),)

    def completed(d, method):
        return override(d, method) + tuple(
            s for s in default_covariate_specs(d, method) if s.target != "x1")

    d, config = two_partial_run(case, override)
    assert [s.target for s in config.covariate_specs] == ["x1"]
    result = run_config(d, config)
    assert result_bytes(result) == result_bytes(run_config(*two_partial_run(case, completed)))
    assert result_bytes(result) != result_bytes(run_config(*two_partial_run(case)))
    # x2's default model, not x1's override, names the cumulative hazard
    assert result.datasets[0].has_column(CUMHAZ) == (case == "fcs-survival")


@pytest.mark.parametrize("targets, message", [
    (("x", "x"), "duplicate covariate spec for x"),
    (("x", "y"), "covariate spec for non-sampled column 'y'"),
])
def test_a_repeated_or_non_sampled_covariate_spec_is_refused(targets, message):
    d = quadratic_data(seed=11)
    specs = tuple(CovariateModelSpec(t, "normal_linear", predictors=()) for t in targets)
    with pytest.raises(DataError, match=message) as refused:
        run_fcs(d, EngineConfig(method="fcs", m=2, covariate_specs=specs))
    assert isinstance(refused.value, CovariateModelError)


def response_as_covariate_data():
    """Quadratic data whose schema calls the response y a complete covariate."""
    d = quadratic_data(seed=10)
    y = d.column("y")
    return Dataset((d.column("x"), Column("y", C, COMP, y.values, y.observed)))


def event_without_time_data():
    """One partial covariate and an event column with no time column."""
    rng = np.random.default_rng(3)
    x, obs = rng.normal(size=20), rng.random(20) < 0.7
    return dataset([("x", C, PART, np.where(obs, x, np.nan), obs),
                    ("d", B, VariableRole.EVENT, (rng.random(20) < 0.5).astype(float),
                     np.ones(20))])


@pytest.mark.parametrize("method, data, message", [
    ("smcfcs", response_as_covariate_data,
     "smcfcs covariate model for x must not condition on outcome-derived column 'y'"),
    ("fcs", event_without_time_data,
     "covariate model conditions on _cumhaz, which needs time and event columns"),
])
def test_a_refusal_is_a_covariate_model_error_only_for_a_given_model(method, data, message):
    d = data()
    run, kw = ((run_smcfcs, {"substantive": ("normal_linear", parse_formula("y ~ x + x^2"))})
               if method == "smcfcs" else (run_fcs, {}))
    # the same model, once given and once filled in as the default
    given = EngineConfig(method=method, m=1, iterations=1,
                         covariate_specs=default_covariate_specs(d, method), **kw)
    with pytest.raises(CovariateModelError, match=f"^{message}$"):
        run(d, given)
    with pytest.raises(DataError, match=f"^{message}$") as refused:
        run(d, EngineConfig(method=method, m=1, iterations=1, **kw))
    assert not isinstance(refused.value, CovariateModelError)


@pytest.mark.parametrize("predictor, message", [
    ("z", "unknown column 'z'"),
    ("y", "outcome-derived column 'y'"),
])
def test_a_given_model_with_a_bad_predictor_is_a_covariate_model_error(predictor, message):
    spec = CovariateModelSpec("x", "normal_linear", predictors=(Term(((predictor, 1),)),))
    with pytest.raises(CovariateModelError, match=message):
        run_smcfcs(quadratic_data(seed=10), smcfcs_quadratic_config(covariate_specs=(spec,)))


@pytest.mark.parametrize("kw, message", [
    ({"method": "fcs", "covariate_specs": ["x ~ y"]},
     "covariate_specs must hold CovariateModelSpec values, not 'x ~ y'"),
    ({"method": "smcfcs", "substantive": ("normal_linear", "y ~ x")},
     "substantive formula must be a ModelFormula, not 'y ~ x'"),
])
def test_engine_config_refuses_a_model_given_as_a_string(kw, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        EngineConfig(**kw)


def test_spec_family_must_match_kind():
    rng = np.random.default_rng(12)
    n = 30
    d = dataset([
        ("b", B, PART, (rng.random(n) < 0.5).astype(float), np.ones(n)),
        ("y", C, OUT, rng.normal(size=n), np.ones(n)),
    ])
    cfg = EngineConfig(method="fcs", m=2, covariate_specs=(CovariateModelSpec(
        "b", "normal_linear", predictors=(Term((("y", 1),)),)),))
    with pytest.raises(DataError, match="does not match") as refused:
        run_fcs(d, cfg)
    assert isinstance(refused.value, CovariateModelError)


def test_smcfcs_requires_substantive():
    message = r"^smcfcs requires a substantive \(family, formula\), and fcs takes none$"
    with pytest.raises(ValueError, match=message):
        EngineConfig(method="smcfcs", m=2)
    # and fcs refuses one, even one whose family smcfcs would refuse for its response
    with pytest.raises(ValueError, match=message):
        EngineConfig(method="fcs", substantive=("cox", parse_formula("y ~ x1")))


@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be >= 0"),
    (1.5, "seed must be an integer, not 1.5"),
    (True, "seed must be an integer, not True"),
])
def test_engine_config_rejects_a_seed_that_is_not_a_non_negative_integer(seed, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        EngineConfig(method="fcs", seed=seed)
    # a numpy integer is an integer
    assert EngineConfig(method="fcs", seed=np.int64(3)).seed == 3


@pytest.mark.parametrize("field, value, message", [
    ("m", 2.5, "m must be an integer, not 2.5"),
    ("m", True, "m must be an integer, not True"),
    ("m", 0, "m must be >= 1"),
    ("iterations", 2.0, "iterations must be an integer, not 2.0"),
    ("iterations", False, "iterations must be an integer, not False"),
    ("iterations", 0, "iterations must be >= 1"),
])
def test_engine_config_rejects_a_count_that_is_not_a_positive_integer(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        EngineConfig(method="fcs", **{field: value})
    assert getattr(EngineConfig(method="fcs", **{field: np.int64(2)}), field) == 2


def test_an_integer_seed_roots_the_engine_stream_a_seed_sequence_is_the_root():
    from smcimpute.rng import subsequence

    d = quadratic_data(seed=3)
    by_int = run_smcfcs(d, smcfcs_quadratic_config(m=2, seed=7))
    by_seq = run_smcfcs(d, smcfcs_quadratic_config(m=2, seed=subsequence(7, "engine")))
    for a, b in zip(by_int.datasets, by_seq.datasets):
        np.testing.assert_array_equal(a.column("x").values, b.column("x").values)


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


def test_a_perfect_fit_outcome_fails_the_run_at_the_acceptance_ratio():
    # y is exactly linear in the complete z, so every outcome draw has
    # sigma2 = 0, and the acceptance ratio that divides by it refuses it
    rng = np.random.default_rng(3)
    n = 40
    z = rng.normal(size=n)
    obs = rng.random(n) < 0.7
    d = dataset([
        ("x", C, PART, np.where(obs, rng.normal(size=n), np.nan), obs),
        ("z", C, COMP, z, np.ones(n)),
        ("y", C, OUT, 1.0 + 2.0 * z, np.ones(n)),
    ])
    cfg = smcfcs_quadratic_config(
        m=1, iterations=1, substantive=("normal_linear", parse_formula("y ~ x + z")),
        covariate_specs=(CovariateModelSpec("x", "normal_linear", predictors=(Term((("z", 1),)),)),))
    with pytest.raises(EngineFailure, match="sigma2 must be positive"):
        run_smcfcs(d, cfg)


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
    assert smc["x1"].formula.variables == ("x2", "z")
    fcs = {s.target: s for s in default_covariate_specs(d, "fcs")}
    assert fcs["x2"].formula.variables == ("x1", "z", "y")


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
            method="smcfcs", m=5, iterations=5, seed=subsequence(31, "rep", rep, "smc"),
            substantive=("normal_linear", formula),
            covariate_specs=(CovariateModelSpec("x", "normal_linear", predictors=()),),
        )
        fcs_cfg = EngineConfig(
            method="fcs", m=5, iterations=5, seed=subsequence(31, "rep", rep, "fcs"),
            covariate_specs=(CovariateModelSpec(
                "x", "normal_linear", predictors=(Term((("y", 1),)),)),),
        )
        r_smc = run_smcfcs(d, smc_cfg)
        r_fcs = run_fcs(d, fcs_cfg)
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
    result = run_fcs(d, EngineConfig(method="fcs", m=2, iterations=3, seed=2))
    imp = result.datasets[0]
    assert imp.has_column(CUMHAZ)
    from smcimpute.fitters import nelson_aalen

    na = nelson_aalen(w, ev)
    np.testing.assert_allclose(imp.column(CUMHAZ).values, na(w))
    # a model that does not condition on the cumulative hazard gets no column
    cfg = EngineConfig(method="fcs", m=2, iterations=3, seed=2, covariate_specs=(
        CovariateModelSpec("x2", "normal_linear", predictors=(Term((("d", 1),)),)),))
    assert not run_fcs(d, cfg).datasets[0].has_column(CUMHAZ)


def run_quadratic(method, d, **kw):
    """`method` on quadratic data: fcs with default specs, smcfcs with the
    quadratic substantive model."""
    if method == "fcs":
        return run_fcs(d, EngineConfig(method="fcs", seed=11, **kw))
    return run_smcfcs(d, smcfcs_quadratic_config(**kw))


def chain_output(result, imp):
    """Chain `imp`'s imputed x, as bytes, and its trace rows."""
    return (result.datasets[imp - 1].column("x").values.tobytes(),
            [row for row in result.diagnostics.traces if row[0] == imp])


def fail_nth_draw(monkeypatch, n):
    """Make the n-th NormalLinear.draw of the next run, outcome or covariate
    model, raise FitError."""
    from smcimpute.substantive import NormalLinear

    real = NormalLinear.draw
    calls = {"n": 0}

    def fail_nth_call(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == n:
            raise FitError("forced")
        return real(*args, **kwargs)

    monkeypatch.setattr(NormalLinear, "draw", fail_nth_call)


@pytest.mark.parametrize("method", ["fcs", "smcfcs"])
def test_the_first_chains_of_a_run_equal_a_run_with_fewer_chains(method):
    # chain k depends only on (seed, k), so chains can run in any order or place
    d = quadratic_data(n=120, seed=4)
    three = run_quadratic(method, d, m=3, iterations=3)
    two = run_quadratic(method, d, m=2, iterations=3)
    for imp in (1, 2):
        assert chain_output(three, imp) == chain_output(two, imp)
    assert chain_output(three, 3) != chain_output(three, 2)


def test_one_fit_failure_retries_and_rolls_back_diagnostics(monkeypatch):
    d = quadratic_data(n=120, seed=4)
    cfg = smcfcs_quadratic_config(m=2, iterations=4)
    clean = run_smcfcs(d, cfg)
    # the outcome and the covariate draw once each per sweep, so the third
    # draw is chain 1's outcome draw in sweep 2, after one sweep has been
    # recorded
    fail_nth_draw(monkeypatch, 3)
    result = run_smcfcs(d, cfg)
    diag = result.diagnostics
    assert clean.diagnostics.retries == 0
    assert diag.retries == 1
    keys = [row[:4] for row in diag.traces]
    assert len(keys) == len(set(keys))
    assert {k[:2] for k in keys} == {(imp, s) for imp in (1, 2) for s in range(1, 5)}
    n_miss = d.column("x").n_missing
    assert diag.accepted["x"] + diag.fallbacks["x"] == 2 * 4 * n_miss
    # the retry draws on chain 1's stream only: chain 2 is as in the clean run
    assert chain_output(result, 2) == chain_output(clean, 2)
    assert chain_output(result, 1) != chain_output(clean, 1)


def test_a_retry_in_chain_1_leaves_chain_2_unchanged_under_fcs(monkeypatch):
    d = quadratic_data(n=120, seed=4)
    clean = run_quadratic("fcs", d, m=2, iterations=4)
    fail_nth_draw(monkeypatch, 2)  # chain 1's covariate draw in sweep 2
    result = run_quadratic("fcs", d, m=2, iterations=4)
    assert (clean.diagnostics.retries, result.diagnostics.retries) == (0, 1)
    assert chain_output(result, 2) == chain_output(clean, 2)
    assert chain_output(result, 1) != chain_output(clean, 1)


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
    )
    assert run_smcfcs(d, cfg).diagnostics.retries == 0
    assert counts == {"cox_layout": 1, "fit_cox": 2 * 2 * 2}  # chains x sweeps x covariates
    # the layout lives in the run, not in module state
    assert not [name for name, value in vars(fitters).items()
                if not name.startswith("__") and isinstance(value, dict)]
