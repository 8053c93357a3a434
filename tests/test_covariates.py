"""The covariate models: a spec's family object fits, draws and samples.

Each test goes through the calls the engines make: the spec's design
(`spec.formula` on the data), `spec.model.fit` and `.draw`, then
`.sample` or `.log_ratio` at the rows' linear predictor.
"""

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import chisquare, kstest

from smcimpute.covariates import CovariateModelSpec, CovariateParams
from smcimpute.dataset import Column, Dataset, VariableKind, VariableRole
from smcimpute.fitters import FitError
from smcimpute.formula import Term, design_from_arrays

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


def linear_spec(target="x", predictors=(Term((("z", 1),)),)):
    return CovariateModelSpec(target=target, family="normal_linear", predictors=predictors)


def logistic_spec():
    return CovariateModelSpec(target="b", family="logistic", predictors=(Term((("z", 1),)),))


def design(spec, cols, n):
    """The covariate model's design on `cols`, as the engines build it."""
    return design_from_arrays(spec.formula, cols, n)


def spec_design(spec, d):
    return design(spec, {v: d.column(v).values for v in spec.formula.variables}, d.n)


def fit_and_draw(spec, X, y, rng):
    """One fit and posterior draw of the covariate model, as each sweep takes it."""
    return spec.model.draw(spec.model.fit(X, y), X, y, rng)


def sample(spec, params, z, rng, size):
    """`size` covariate draws at predictor value `z`."""
    mu = design(spec, {"z": np.full(size, z)}, size) @ params.beta
    return spec.model.sample(params, mu, rng)


def mass(spec, params, z, value):
    """Bernoulli mass of `value` at the single predictor value `z`, as the
    compatible sampler's enumeration weighs a support point."""
    mu = design(spec, {"z": np.array([z])}, 1) @ params.beta
    return float(np.exp(spec.model.log_ratio(params, (np.array([value]),), mu))[0])


def test_target_not_allowed_in_predictors():
    with pytest.raises(ValueError):
        CovariateModelSpec(target="x", family="normal_linear",
                           predictors=(Term((("x", 1),)),))


def test_fit_subjects_equal_when_target_complete():
    rng = np.random.default_rng(0)
    n = 80
    z = rng.normal(size=n)
    x = 1.0 + 0.5 * z + rng.normal(size=n)
    d = dataset([
        ("x", C, PART, x, np.ones(n)),
        ("z", C, COMP, z, np.ones(n)),
    ])
    spec = linear_spec()
    X, obs = spec_design(spec, d), d.column("x").observed
    # smcfcs fits on all subjects, fcs on those with the target observed
    a = fit_and_draw(spec, X, x, np.random.default_rng(7))
    b = fit_and_draw(spec, X[obs], x[obs], np.random.default_rng(7))
    np.testing.assert_array_equal(a.beta, b.beta)
    assert a.sigma2 == b.sigma2


def test_intercept_only_spec_draws_single_coefficient():
    rng = np.random.default_rng(1)
    x = rng.normal(2.0, 1.0, 50)
    d = dataset([("x", C, PART, x, np.ones(50))])
    spec = CovariateModelSpec(target="x", family="normal_linear", predictors=())
    params = fit_and_draw(spec, spec_design(spec, d), x, np.random.default_rng(2))
    assert params.beta.shape == (1,)
    assert params.sigma2 > 0


def test_logistic_all_zero_target_flagged():
    rng = np.random.default_rng(3)
    z = rng.normal(size=40)
    d = dataset([
        ("b", B, PART, np.zeros(40), np.ones(40)),
        ("z", C, COMP, z, np.ones(40)),
    ])
    spec = logistic_spec()
    with pytest.raises(FitError):
        fit_and_draw(spec, spec_design(spec, d), np.zeros(40), np.random.default_rng(4))


def test_sample_degenerate_variance_returns_mean():
    spec = linear_spec()
    params = CovariateParams(beta=np.array([1.0, 2.0]), sigma2=0.0)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    value = sample(spec, params, 3.0, rng, 1)
    assert value == pytest.approx([7.0])
    assert rng.bit_generator.state == state  # nothing is drawn


def test_sample_logistic_limit():
    spec = logistic_spec()
    params = CovariateParams(beta=np.array([0.0, 60.0]))
    draws = sample(spec, params, 1.0, np.random.default_rng(1), 200)
    assert np.all(draws == 1.0)


def test_sample_normal_monte_carlo_mean():
    spec = linear_spec()
    params = CovariateParams(beta=np.array([0.5, 1.5]), sigma2=4.0)
    draws = sample(spec, params, 2.0, np.random.default_rng(2), 10_000)
    # 3 sigma / sqrt(10^4) = 3 * 2 / 100
    assert abs(draws.mean() - 3.5) < 3.0 * 2.0 / 100.0


def test_conditional_density_values():
    spec = logistic_spec()
    params = CovariateParams(beta=np.array([0.0, 0.0]))
    assert mass(spec, params, 1.0, 0.0) == pytest.approx(0.5)
    assert mass(spec, params, 1.0, 1.0) == pytest.approx(0.5)
    tilted = CovariateParams(beta=np.array([0.3, 0.9]))
    assert mass(spec, tilted, 0.7, 1.0) == pytest.approx(expit(0.3 + 0.9 * 0.7))


def test_binary_masses_sum_to_one():
    spec = logistic_spec()
    params = CovariateParams(beta=np.array([0.4, -1.2]))
    for z in (-2.0, 0.0, 1.7):
        total = mass(spec, params, z, 0.0) + mass(spec, params, z, 1.0)
        assert total == pytest.approx(1.0)


def test_normal_samples_match_density_kolmogorov_smirnov():
    spec = linear_spec()
    params = CovariateParams(beta=np.array([1.0, 2.0]), sigma2=2.25)
    draws = sample(spec, params, 0.5, np.random.default_rng(5), 10_000)
    stat = kstest(draws, "norm", args=(2.0, 1.5))
    assert stat.pvalue > 0.001


def test_binary_samples_match_mass_chi_square():
    spec = logistic_spec()
    params = CovariateParams(beta=np.array([0.3, 0.9]))
    z = 0.7
    p1 = expit(0.3 + 0.9 * z)
    draws = sample(spec, params, z, np.random.default_rng(6), 10_000)
    observed = np.array([np.sum(draws == 0.0), np.sum(draws == 1.0)])
    expected = np.array([(1 - p1) * 10_000, p1 * 10_000])
    assert chisquare(observed, expected).pvalue > 0.001


def test_fit_on_all_after_completion_succeeds():
    rng = np.random.default_rng(8)
    n = 60
    z = rng.normal(size=n)
    x = 1.0 + z + rng.normal(size=n)
    obs = rng.random(n) < 0.6
    d = dataset([
        ("x", C, PART, np.where(obs, x, np.nan), obs),
        ("z", C, COMP, z, np.ones(n)),
    ])
    spec = linear_spec()
    X = spec_design(spec, d)
    fit_and_draw(spec, X[obs], x[obs], np.random.default_rng(9))
    filled = d.with_values({"x": np.where(obs, x, 0.0)})
    params = fit_and_draw(spec, X, filled.column("x").values, np.random.default_rng(10))
    assert np.all(np.isfinite(params.beta)) and params.sigma2 > 0
