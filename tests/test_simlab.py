import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import expit
from scipy.stats import norm, t

from smcimpute import simlab
from smcimpute._special import t_quantile
from smcimpute.dataset import Column, Dataset, VariableKind, VariableRole
from smcimpute.engines import EngineFailure
from smcimpute.fitters import fit_cox, fit_linear, fit_logistic
from smcimpute.formula import design_from_arrays, parse_formula
from smcimpute.rng import stream, subsequence
from smcimpute.simlab import (
    CALIBRATION_DRAWS,
    CALIBRATION_SEED,
    ScenarioConfig,
    _complete_case,
    apply_mar,
    apply_mcar,
    builtin_scenarios,
    calibrate_mar_intercept,
    exp_hazard_times,
    gen_cox,
    gen_interaction,
    gen_quadratic,
    mar_intercept,
    residual_variance,
    run_scenario,
    scenario_truth,
)

BIG = 1_000_000

# frozen before the build from a 10^6-draw oracle (analytic cross-check 0.67227)
COX_EVENT_FRACTION = 0.6723


# ---------------------------------------------------------------------------
# data-generating processes

@pytest.mark.parametrize("dgp, variant", [
    (dgp, variant) for dgp, study in simlab.STUDIES.items() for variant in study.draws])
def test_generating_predictor_is_the_analysed_formula_at_the_true_beta(dgp, variant):
    # data are generated from the model each study analyses; the draw sums the
    # terms one by one, so it agrees with the design matrix up to rounding
    study = simlab.STUDIES[dgp]
    covariates, eta = simlab._draw_linpred(dgp, variant, 500, stream(4, "eta", dgp))
    cols = {c.name: c.values for c in covariates}
    want = design_from_arrays(parse_formula(study.formula), cols, 500) @ np.array(study.beta)
    assert eta.shape == want.shape
    assert np.max(np.abs(eta - want)) <= 1e-12 * np.max(np.abs(want))


def test_a_survival_study_has_no_missing_at_random_calibration():
    # missing at random is defined through the outcome y, which a survival study lacks
    with pytest.raises(ValueError, match="defined through the outcome y"):
        simlab.mar_intercept("cox", None, 0.5)


@pytest.mark.parametrize("variant", ["normal", "lognormal", "normal_mixture"])
def test_quadratic_x_moments(variant):
    d = gen_quadratic(variant, BIG, stream(1, "x", variant))
    x = d.column("x").values
    assert abs(x.mean() - 2.0) < 0.01
    assert abs(x.var() - 1.0) < 0.02


@pytest.mark.parametrize("variant", ["normal", "lognormal", "normal_mixture"])
def test_quadratic_r_squared_is_half(variant):
    d = gen_quadratic(variant, BIG, stream(2, "r2", variant))
    x, y = d.column("x").values, d.column("y").values
    g = 4.0 - 4.0 * x + x * x
    r2 = np.var(g) / np.var(y)
    assert abs(r2 - 0.5) < 0.01


def test_quadratic_normal_residual_variance_is_analytic():
    # Var(-4X + X^2) = Var(Z^2 - 4) = 2 for X = 2 + Z, Z ~ N(0,1)
    assert residual_variance("quadratic", "normal") == pytest.approx(2.0, abs=0.03)


def test_interaction_bvnormal_correlation():
    d = gen_interaction("bvnormal", BIG, stream(3, "corr"))
    x1, x2 = d.column("x1").values, d.column("x2").values
    assert abs(np.corrcoef(x1, x2)[0, 1] - 0.5) < 0.01
    assert abs(x1.mean() - 2.0) < 0.01
    assert abs(x2.var() - 1.0) < 0.02


def test_interaction_bern_normal_conditional_mean():
    d = gen_interaction("bern_normal", BIG, stream(4, "bern"))
    x1, x2 = d.column("x1").values, d.column("x2").values
    assert set(np.unique(x1)) == {0.0, 1.0}
    assert abs(x2[x1 == 1.0].mean() - 1.0) < 0.01
    assert abs(x2[x1 == 0.0].mean()) < 0.01


def test_interaction_quad_conditional_mean_zero_at_two():
    d = gen_interaction("quad_conditional", BIG, stream(5, "quadcond"))
    x1, x2 = d.column("x1").values, d.column("x2").values
    window = np.abs(x1 - 2.0) < 0.05
    assert abs(x2[window].mean()) < 0.02


def test_interaction_r_squared_is_half():
    d = gen_interaction("bvlognormal", BIG, stream(6, "r2i"))
    x1, x2, y = (d.column(c).values for c in ("x1", "x2", "y"))
    g = x1 + x2 + x1 * x2
    assert abs(np.var(g) / np.var(y) - 0.5) < 0.01


def test_exp_hazard_times_mean():
    t = exp_hazard_times(np.zeros(BIG), 0.002, stream(7, "exp"))
    assert abs(t.mean() - 500.0) < 5.0


def test_cox_event_fraction_matches_pinned_oracle():
    d = gen_cox(BIG, stream(8, "cox"))
    assert abs(d.column("d").values.mean() - COX_EVENT_FRACTION) < 0.005


def test_cox_columns_valid():
    d = gen_cox(10_000, stream(9, "coxcols"))
    assert np.all(d.column("w").values > 0.0)
    assert set(np.unique(d.column("d").values)) <= {0.0, 1.0}
    assert d.column("w").role is VariableRole.TIME


def test_generation_is_seed_deterministic():
    a = gen_cox(500, stream(10, "det"))
    b = gen_cox(500, stream(10, "det"))
    for name in ("x1", "x2", "w", "d"):
        np.testing.assert_array_equal(a.column(name).values, b.column(name).values)


# ---------------------------------------------------------------------------
# missingness mechanisms

def test_mcar_keeps_everything_at_one():
    d = gen_quadratic("normal", 2000, stream(11, "mcar1"))
    masked = apply_mcar(d, 1.0, stream(11, "mask1"))
    assert masked.column("x").observed.all()


def test_mcar_fraction():
    d = gen_quadratic("normal", 100_000, stream(12, "mcar2"))
    masked = apply_mcar(d, 0.7, stream(12, "mask2"))
    assert abs(masked.column("x").observed.mean() - 0.7) < 0.005


def test_mcar_masks_independent_across_covariates():
    d = gen_interaction("bvnormal", 100_000, stream(13, "mcar3"))
    masked = apply_mcar(d, 0.7, stream(13, "mask3"))
    m1 = masked.column("x1").observed.astype(float)
    m2 = masked.column("x2").observed.astype(float)
    assert abs(np.corrcoef(m1, m2)[0, 1]) < 0.01


def test_calibrate_mar_intercept_closed_forms():
    y = np.zeros(10)
    assert calibrate_mar_intercept(y, 0.0, 0.7) == pytest.approx(math.log(7.0 / 3.0), abs=1e-9)
    assert calibrate_mar_intercept(y, 0.0, 0.5) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        calibrate_mar_intercept(y, 0.0, 1.5)


def _brentq_intercept(y, alpha1, target_p):
    return brentq(lambda a0: float(np.mean(expit(a0 + alpha1 * y))) - target_p,
                  -60.0, 60.0, xtol=1e-12)


def test_mar_intercepts_of_builtin_scenarios_match_brentq():
    scenarios = [c for c in builtin_scenarios().values() if c.mechanism == "mar"]
    assert len(scenarios) == 8
    for cfg in scenarios:
        gen = gen_quadratic if cfg.dgp == "quadratic" else gen_interaction
        rng = stream(CALIBRATION_SEED, "mar", cfg.dgp, cfg.variant)
        y = gen(cfg.variant, CALIBRATION_DRAWS, rng).column("y").values
        alpha0, alpha1 = mar_intercept(cfg.dgp, cfg.variant, cfg.p_obs)
        assert alpha1 == -1.0 / float(np.std(y))
        assert abs(alpha0 - _brentq_intercept(y, alpha1, cfg.p_obs)) <= 1e-12


@given(
    y=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=60),
    alpha1=st.floats(-3.0, 3.0),
    target_p=st.floats(0.02, 0.98),
)
@settings(max_examples=300, deadline=None)
def test_calibrate_mar_intercept_matches_brentq(y, alpha1, target_p):
    y = np.asarray(y)
    expected = _brentq_intercept(y, alpha1, target_p)
    assert abs(calibrate_mar_intercept(y, alpha1, target_p) - expected) <= 1e-12


@pytest.mark.parametrize("p_obs", [0.7, 0.5])
def test_mar_calibration_hits_marginal_rate(monkeypatch, p_obs):
    calls, monte_carlo = [], simlab._mar_intercept_mc
    monkeypatch.setattr(simlab, "_mar_intercept_mc",
                        lambda *args: calls.append(args) or monte_carlo(*args))
    alpha0, alpha1 = mar_intercept("quadratic", "normal", p_obs)
    # the builtin rate is frozen; any other runs the Monte-Carlo
    assert len(calls) == (p_obs != simlab.P_OBS)
    assert alpha1 < 0
    d = gen_quadratic("normal", BIG, stream(14, "marfresh"))
    masked = apply_mar(d, alpha0, alpha1, stream(14, "marmask"))
    assert abs(masked.column("x").observed.mean() - p_obs) < 0.005


def test_run_scenario_calibrates_the_mar_intercept_once(monkeypatch):
    calls = []
    monkeypatch.setattr(simlab, "_mar_intercept_mc",
                        lambda *args: calls.append(args) or (1.0, -0.2))
    cfg = ScenarioConfig(dgp="quadratic", variant="normal", mechanism="mar", p_obs=0.5,
                         n=60, reps=3, m=2, methods=("cc",), seed=5)
    assert run_scenario(cfg, threads=1).n_used == 3
    assert calls == [("quadratic", "normal", 0.5)]


@pytest.mark.parametrize("reps, threads, workers", [(1, 500, None), (3, 500, 3), (3, 2, 2),
                                                    (5, 1, None)])
def test_run_scenario_starts_no_more_workers_than_replications(monkeypatch, reps, threads,
                                                                workers):
    import concurrent.futures

    sizes = []

    class RecordingPool:
        """Records its worker count and maps in this process, so no process starts."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = ScenarioConfig(dgp="quadratic", variant="normal", mechanism="mcar",
                         n=60, reps=reps, m=2, methods=("cc",), seed=5)
    assert run_scenario(cfg, threads=threads).n_used == reps
    assert sizes == ([] if workers is None else [workers])


def test_a_failed_method_drops_its_replication_from_every_row(monkeypatch):
    smcfcs, calls = simlab.METHODS["smcfcs"], []

    def fails_once(*args):
        calls.append(args)
        if len(calls) == 2:
            raise EngineFailure("imputation 1 failed after 5 retries")
        return smcfcs(*args)

    monkeypatch.setitem(simlab.METHODS, "smcfcs", fails_once)
    cfg = ScenarioConfig(dgp="quadratic", variant="normal", mechanism="mcar",
                         n=60, reps=3, m=2, methods=("cc", "smcfcs"), seed=5)
    summary = run_scenario(cfg, threads=1)
    assert len(calls) == 3
    assert summary.n_used == 2
    assert summary.rows and all(row.n_failed == 1 for row in summary.rows)


def test_calibration_lives_in_the_run_not_in_module_state():
    cached = [name for name in dir(simlab) if hasattr(getattr(simlab, name), "cache_info")]
    assert cached == []


def test_frozen_calibration_constants_equal_the_monte_carlo():
    assert len(simlab._RESIDUAL_VARIANCE) == len(simlab._MAR_INTERCEPT) == 8
    for (dgp, variant), frozen in simlab._RESIDUAL_VARIANCE.items():
        fresh = simlab._residual_variance_mc(dgp, variant)
        assert math.isclose(frozen, fresh, rel_tol=1e-12), (dgp, variant)
    for (dgp, variant), frozen in simlab._MAR_INTERCEPT.items():
        fresh = simlab._mar_intercept_mc(dgp, variant, simlab.P_OBS)
        for a, b in zip(frozen, fresh):
            assert math.isclose(a, b, rel_tol=1e-12), (dgp, variant)


def test_builtin_calibration_allocates_no_monte_carlo_sample():
    src = str(Path(simlab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import tracemalloc\n"
        "from smcimpute import simlab\n"
        "scenarios = simlab.builtin_scenarios().values()\n"
        "tracemalloc.start()\n"
        "for cfg in scenarios:\n"
        "    if cfg.dgp != 'cox':\n"
        "        simlab.residual_variance(cfg.dgp, cfg.variant)\n"
        "    if cfg.mechanism == 'mar':\n"
        "        simlab.mar_intercept(cfg.dgp, cfg.variant, cfg.p_obs)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert int(out.stdout) < 1_000_000


def test_mar_observation_rate_decreases_in_y():
    alpha0, alpha1 = mar_intercept("quadratic", "normal", 0.7)
    d = gen_quadratic("normal", 200_000, stream(15, "marmono"))
    masked = apply_mar(d, alpha0, alpha1, stream(15, "marmonomask"))
    y = masked.column("y").values
    obs = masked.column("x").observed
    deciles = np.quantile(y, np.linspace(0.0, 1.0, 11))
    rates = [
        obs[(y >= deciles[i]) & (y < deciles[i + 1])].mean() for i in range(10)
    ]
    assert all(a > b for a, b in zip(rates[:-1], rates[1:]))


def test_mar_huge_intercept_removes_missingness():
    d = gen_quadratic("normal", 5000, stream(16, "marall"))
    masked = apply_mar(d, 60.0, -0.1, stream(16, "marallmask"))
    assert masked.column("x").observed.all()


# ---------------------------------------------------------------------------
# scenario runner

def test_scenario_summary_structure_and_determinism():
    cfg = ScenarioConfig(
        dgp="quadratic", variant="normal", mechanism="mcar",
        n=250, reps=4, m=3, methods=("fcs_linear", "smcfcs"), seed=77,
    )
    s1 = run_scenario(cfg, threads=1)
    s2 = run_scenario(cfg, threads=2)
    assert s1 == s2
    assert s1.n_used == 4
    row = s1.row("smcfcs", "x^2")
    assert 0.0 <= row.coverage <= 100.0
    assert row.n_failed == 0
    assert row.mc_error_mean == pytest.approx(row.sd / 2.0)


def test_complete_case_unbiased_under_mcar():
    cfg = ScenarioConfig(
        dgp="interaction", variant="bvnormal", mechanism="mcar",
        n=400, reps=60, m=2, methods=("cc",), seed=101,
    )
    s = run_scenario(cfg, threads=2)
    _, _, truth, labels = scenario_truth(cfg)
    for i, label in enumerate(labels):
        row = s.row("cc", label)
        assert abs(row.mean - truth[i]) < 3.0 * row.mc_error_mean + 1e-9


def _scipy_stats_complete_case(family, formula, d, level=0.95):
    """The complete-case fit and the scipy.stats reference quantile."""
    keep = np.ones(d.n, dtype=bool)
    for col in d.partial_covariates():
        keep &= col.observed
    cols = {v: d.column(v).values[keep] for v in formula.variables}
    X = design_from_arrays(formula, cols, int(keep.sum()))
    alpha = 0.5 * (1.0 + level)
    if family == "cox":
        time_name, event_name = formula.response
        fit = fit_cox(X, d.column(time_name).values[keep], d.column(event_name).values[keep])
        return fit, norm.ppf(alpha)
    if family == "logistic":
        return fit_logistic(X, d.column(formula.response).values[keep]), norm.ppf(alpha)
    fit = fit_linear(X, d.column(formula.response).values[keep])
    return fit, t.ppf(alpha, fit.n - fit.k)


def _logistic_outcome_data(n, rng):
    x = rng.normal(size=n)
    y = (rng.random(n) < expit(0.5 + x)).astype(float)
    full = np.ones(n, dtype=bool)
    return Dataset((
        Column("x", VariableKind.CONTINUOUS, VariableRole.PARTIAL_COVARIATE, x, full.copy()),
        Column("y", VariableKind.BINARY, VariableRole.OUTCOME, y, full),
    ))


@pytest.mark.parametrize("family", ["normal_linear", "logistic", "cox"])
def test_complete_case_intervals_use_quantiles_that_match_scipy_stats(family):
    rng = stream(21, "cc", family)
    if family == "normal_linear":
        d, formula = gen_interaction("bvnormal", 300, rng), parse_formula("y ~ x1 + x2 + x1*x2")
    elif family == "logistic":
        d, formula = _logistic_outcome_data(300, rng), parse_formula("y ~ x")
    else:
        d, formula = gen_cox(300, rng), parse_formula("surv(w,d) ~ x1 + x2")
    d = apply_mcar(d, 0.7, stream(21, "ccmask", family))
    beta, low, high = _complete_case(family, formula, d)
    fit, want = _scipy_stats_complete_case(family, formula, d)
    np.testing.assert_array_equal(beta, fit.beta)
    q = t_quantile(fit.df, 0.975)
    if family == "normal_linear":
        assert q == pytest.approx(want, rel=1e-12)
    else:
        assert abs(q - want) <= 2 * np.spacing(want)
    se = np.sqrt(fit.coef_variances())
    np.testing.assert_array_equal(low, beta - q * se)
    np.testing.assert_array_equal(high, beta + q * se)


def test_study_scale_smcfcs_runs_need_no_fallback():
    # at the study designs' scales the rejection sampler never exhausts the
    # default attempt cap
    from smcimpute.engines import EngineConfig, run_smcfcs

    for dgp, variant in (("quadratic", "normal"), ("interaction", "bvnormal"), ("cox", None)):
        cfg = ScenarioConfig(dgp=dgp, variant=variant, mechanism="mcar",
                             n=1000, reps=1, m=2, methods=("smcfcs",), seed=55)
        family, formula, _, _ = scenario_truth(cfg)
        if dgp == "quadratic":
            d = gen_quadratic(variant, cfg.n, stream(55, dgp, "data"))
        elif dgp == "interaction":
            d = gen_interaction(variant, cfg.n, stream(55, dgp, "data"))
        else:
            d = gen_cox(cfg.n, stream(55, dgp, "data"))
        d = apply_mcar(d, 0.7, stream(55, dgp, "mask"))
        engine_cfg = EngineConfig(
            method="smcfcs", m=2, seed=subsequence(55, dgp, "engine"),
            substantive=(family, formula),
        )
        result = run_smcfcs(d, engine_cfg)
        assert sum(result.diagnostics.fallbacks.values()) == 0
        for target in result.diagnostics.proposals:
            assert result.diagnostics.mean_acceptance(target) > 0.0


def test_fcs_linear_keeps_a_study_model_without_intercept(monkeypatch):
    # the study's covariate models go through the one formula-to-spec
    # constructor, so "- 1" reaches the engine as intercept=False
    monkeypatch.setitem(simlab.STUDIES, "quadratic",
                        replace(simlab.STUDIES["quadratic"], fcs_models=("x ~ y - 1",)))
    received = []

    class Stop(Exception):
        pass

    def capture(d, config):
        received.extend(config.covariate_specs)
        raise Stop

    monkeypatch.setattr(simlab, "run_fcs", capture)
    cfg = ScenarioConfig(dgp="quadratic", variant="normal", mechanism="mcar",
                         n=50, reps=1, m=2, methods=("fcs_linear",), seed=3)
    family, formula, _, _ = scenario_truth(cfg)
    d = apply_mcar(gen_quadratic("normal", cfg.n, stream(3, "data")), 0.7, stream(3, "mask"))
    with pytest.raises(Stop):
        simlab.METHODS["fcs_linear"](cfg, family, formula, d, subsequence(3, "fcs"))
    assert [(spec.target, spec.intercept) for spec in received] == [("x", False)]
    assert received[0].formula == parse_formula("x ~ y - 1")


def test_builtin_scenarios_cover_all_studies():
    catalog = builtin_scenarios()
    assert "quad-normal-mcar" in catalog
    assert "quad-lognormal-mar" in catalog
    assert "interact-bvnormal-mar" in catalog
    assert "cox-n1000" in catalog and "cox-n100" in catalog
    assert len([k for k in catalog if k.startswith("quad-")]) == 6
    assert len([k for k in catalog if k.startswith("interact-")]) == 10
    cox = catalog["cox-n1000"]
    assert cox.methods == ("cc", "fcs_linear", "smcfcs")


QUAD_METHODS = ("fcs_linear", "jav", "smcfcs")
INTERACT_METHODS = ("cc", "fcs_linear", "jav", "smcfcs")
COX_METHODS = ("cc", "fcs_linear", "smcfcs")

# name, dgp, variant, mechanism, n, methods, p_obs of every builtin, in order
BUILTIN_SCENARIOS = [
    ("quad-normal-mcar", "quadratic", "normal", "mcar", 1000, QUAD_METHODS, 0.7),
    ("quad-normal-mar", "quadratic", "normal", "mar", 1000, QUAD_METHODS, 0.7),
    ("quad-lognormal-mcar", "quadratic", "lognormal", "mcar", 1000, QUAD_METHODS, 0.7),
    ("quad-lognormal-mar", "quadratic", "lognormal", "mar", 1000, QUAD_METHODS, 0.7),
    ("quad-mixture-mcar", "quadratic", "normal_mixture", "mcar", 1000, QUAD_METHODS, 0.7),
    ("quad-mixture-mar", "quadratic", "normal_mixture", "mar", 1000, QUAD_METHODS, 0.7),
    ("interact-bvnormal-mcar", "interaction", "bvnormal", "mcar", 1000, INTERACT_METHODS, 0.7),
    ("interact-bvnormal-mar", "interaction", "bvnormal", "mar", 1000, INTERACT_METHODS, 0.7),
    ("interact-bvlognormal-mcar", "interaction", "bvlognormal", "mcar", 1000,
     INTERACT_METHODS, 0.7),
    ("interact-bvlognormal-mar", "interaction", "bvlognormal", "mar", 1000,
     INTERACT_METHODS, 0.7),
    ("interact-quadcond-mcar", "interaction", "quad_conditional", "mcar", 1000,
     INTERACT_METHODS, 0.7),
    ("interact-quadcond-mar", "interaction", "quad_conditional", "mar", 1000,
     INTERACT_METHODS, 0.7),
    ("interact-bernnormal-mcar", "interaction", "bern_normal", "mcar", 1000,
     INTERACT_METHODS, 0.7),
    ("interact-bernnormal-mar", "interaction", "bern_normal", "mar", 1000,
     INTERACT_METHODS, 0.7),
    ("interact-bernlognormal-mcar", "interaction", "bern_lognormal", "mcar", 1000,
     INTERACT_METHODS, 0.7),
    ("interact-bernlognormal-mar", "interaction", "bern_lognormal", "mar", 1000,
     INTERACT_METHODS, 0.7),
    ("cox-n1000", "cox", None, "mcar", 1000, COX_METHODS, 0.7),
    ("cox-n100", "cox", None, "mcar", 100, COX_METHODS, 0.7),
]


def test_builtin_scenarios_match_the_pinned_table():
    catalog = builtin_scenarios()
    assert list(catalog) == [row[0] for row in BUILTIN_SCENARIOS]
    for name, dgp, variant, mechanism, n, methods, p_obs in BUILTIN_SCENARIOS:
        cfg = catalog[name]
        got = (cfg.name, cfg.dgp, cfg.variant, cfg.mechanism, cfg.n, cfg.methods, cfg.p_obs)
        assert got == (name, dgp, variant, mechanism, n, methods, p_obs)
        assert (cfg.reps, cfg.m, cfg.seed) == (200, 10, 2012)


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(dgp="quadratic", variant="weird", mechanism="mcar")
    with pytest.raises(ValueError, match="mechanism must be one of 'mcar' for the cox study"):
        ScenarioConfig(dgp="cox", variant=None, mechanism="mar")
    with pytest.raises(ValueError):
        ScenarioConfig(dgp="cox", variant=None, mechanism="mcar", methods=("jav",))
    with pytest.raises(ValueError, match="variant"):
        ScenarioConfig(dgp="cox", variant="bvnormal", mechanism="mcar", methods=("cc", "smcfcs"))
    for methods in ((), ("cc", "cc"), ["smcfcs", "cc", "smcfcs"]):
        with pytest.raises(ValueError, match="non-empty list of distinct method names"):
            ScenarioConfig(dgp="cox", variant=None, mechanism="mcar", methods=methods)


@pytest.mark.parametrize("dgp, variant, methods", [
    ("quadratic", "normal", ("fcs_linear", "jav", "smcfcs")),
    ("interaction", "bvnormal", ("fcs_linear", "jav", "smcfcs")),
    ("cox", None, ("fcs_linear", "smcfcs")),  # the cox study has no jav
])
def test_scenario_methods_default_to_those_the_study_allows(dgp, variant, methods):
    assert ScenarioConfig(dgp=dgp, variant=variant, mechanism="mcar").methods == methods


def test_study_tables_script_rejects_an_unknown_scenario_as_usage_error():
    root = Path(simlab.__file__).resolve().parents[2]
    path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_study_tables.py"), "--scenario", "nope"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert out.returncode == 2
    assert "invalid choice: 'nope'" in out.stderr
    assert all(name in out.stderr for name in builtin_scenarios())
    assert "Traceback" not in out.stderr
