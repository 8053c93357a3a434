import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcimpute.dataset import Column, Dataset, VariableKind, VariableRole
from smcimpute.fitters import FitError, StepCumHazard
from smcimpute.formula import design_from_arrays, design_matrix, parse_formula, response_arrays
from smcimpute.substantive import FAMILIES, SubstantiveParams, log_ratio_cox

# one-coefficient outcome models: the linear predictor is beta * x
FORMULAS = {
    "normal_linear": parse_formula("y ~ x - 1"),
    "logistic": parse_formula("y ~ x - 1"),
    "cox": parse_formula("surv(t,d) ~ x"),
}


def ratio(family_params, x, **response):
    """Acceptance ratio of one row with predictor x, through the family's
    response parts and log ratio as the compatible sampler computes it.

    `family_params` is a (family name, parameters) pair."""
    family, params = family_params
    model, formula = FAMILIES[family], FORMULAS[family]
    cols = {name: np.array([value], dtype=float) for name, value in response.items()}
    parts = model.y_parts(formula, params, cols, np.arange(1))
    g = design_from_arrays(formula, {"x": np.array([x])}, 1) @ params.beta
    return float(np.exp(model.log_ratio(params, parts, g))[0])


def normal_params(beta, sigma2):
    return "normal_linear", SubstantiveParams(family="normal_linear", beta=np.asarray(beta),
                                              sigma2=sigma2)


def logistic_params(beta):
    return "logistic", SubstantiveParams(family="logistic", beta=np.asarray(beta))


def cox_params(beta, knots, cumvals):
    return "cox", SubstantiveParams(
        family="cox", beta=np.asarray(beta),
        baseline=StepCumHazard(np.asarray(knots), np.asarray(cumvals)),
    )


def test_normal_ratio_exact_fit_is_one():
    p = normal_params([2.0], 1.5)
    assert ratio(p, 3.0, y=2.0 * 3.0) == pytest.approx(1.0)


def test_normal_ratio_half_at_sqrt_2log2_sigmas():
    sigma2 = 0.8
    p = normal_params([0.0], sigma2)
    y = math.sqrt(sigma2) * math.sqrt(2.0 * math.log(2.0))
    assert ratio(p, 1.0, y=y) == pytest.approx(0.5)


def test_normal_ratio_vanishes_in_the_tail():
    p = normal_params([0.0], 1.0)
    assert ratio(p, 1.0, y=1e6) == 0.0


def test_discrete_ratio_half_at_zero():
    p = logistic_params([0.0])
    assert ratio(p, 1.0, y=0) == pytest.approx(0.5)
    assert ratio(p, 1.0, y=1) == pytest.approx(0.5)


def test_discrete_ratio_limit_one():
    p = logistic_params([50.0])
    assert ratio(p, 1.0, y=1) == pytest.approx(1.0)


def test_discrete_ratio_expit_value():
    p = logistic_params([math.log(3.0)])
    assert ratio(p, 1.0, y=1) == pytest.approx(0.75)


def test_cox_censored_before_first_event_is_one():
    p = cox_params([1.0], [5.0], [0.3])
    assert ratio(p, 0.0, t=1.0, d=0) == pytest.approx(1.0)


def test_cox_censored_half_at_log2():
    p = cox_params([0.0], [1.0], [math.log(2.0)])
    assert ratio(p, 7.0, t=2.0, d=0) == pytest.approx(0.5)


def test_cox_censored_vanishes_for_large_predictor():
    p = cox_params([1.0], [1.0], [0.5])
    assert ratio(p, 800.0, t=2.0, d=0) == 0.0


def test_cox_event_bound_attained_at_unit_product():
    # H0(t) * exp(g) = 1 maximizes the event density
    h = 0.37
    g = -math.log(h)
    p = cox_params([1.0], [1.0], [h])
    assert ratio(p, g, t=2.0, d=1) == pytest.approx(1.0)


def test_cox_event_value():
    p = cox_params([0.0], [1.0], [0.5])
    assert ratio(p, 3.0, t=2.0, d=1) == pytest.approx(
        math.exp(1.0 - 0.5) * 0.5
    )


def test_cox_event_vanishes_as_g_decreases():
    p = cox_params([1.0], [1.0], [0.5])
    assert ratio(p, -900.0, t=2.0, d=1) == pytest.approx(0.0)


def test_cox_event_rejects_zero_hazard():
    p = cox_params([1.0], [5.0], [0.3])
    with pytest.raises(FitError, match="event at zero cumulative hazard"):
        ratio(p, 0.0, t=1.0, d=1)  # before the first knot


def test_cox_censored_row_at_zero_hazard_has_log_ratio_zero_where_exp_g_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = log_ratio_cox([0.0, 0.5, 0.0], [0.0, 0.0, 0.0], [800.0, 1.0, 1.0])
    assert out.tolist() == [0.0, -0.5 * np.exp(1.0), 0.0]


def test_normal_ratio_maximized_at_y_equals_g():
    p = normal_params([1.3], 0.7)
    g = 1.3 * 2.0
    eps = 1e-4
    center = ratio(p, 2.0, y=g)
    assert center > ratio(p, 2.0, y=g + eps)
    assert center > ratio(p, 2.0, y=g - eps)


def test_cox_event_ratio_unimodal_in_g():
    h = 0.2
    p = cox_params([1.0], [1.0], [h])
    gs = np.linspace(-6.0, 6.0, 2001)
    vals = np.array([ratio(p, g, t=2.0, d=1) for g in gs])
    peak = gs[vals.argmax()]
    assert abs(peak - (-math.log(h))) < 0.01
    # increasing left of the peak, decreasing right of it
    left = vals[gs < peak - 0.01]
    right = vals[gs > peak + 0.01]
    assert np.all(np.diff(left) > -1e-15)
    assert np.all(np.diff(right) < 1e-15)


def test_logistic_ratios_sum_to_one():
    p = logistic_params([0.83])
    for g in (-4.0, -0.5, 0.0, 2.2):
        total = ratio(p, g / 0.83, y=0) + ratio(p, g / 0.83, y=1)
        assert total == pytest.approx(1.0)


@given(
    y=st.floats(-50, 50),
    g=st.floats(-50, 50),
    sigma2=st.floats(1e-3, 1e3),
    cumhaz=st.floats(1e-6, 50),
)
@settings(max_examples=300)
def test_ratios_are_probabilities(y, g, sigma2, cumhaz):
    pn = normal_params([1.0], sigma2)
    assert 0.0 <= ratio(pn, g, y=y) <= 1.0
    pl = logistic_params([1.0])
    assert 0.0 <= ratio(pl, g, y=1) <= 1.0
    pc = cox_params([1.0], [1.0], [cumhaz])
    assert 0.0 <= ratio(pc, g, t=2.0, d=0) <= 1.0
    assert 0.0 <= ratio(pc, g, t=2.0, d=1) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# posterior draws through the family objects

def _complete_ds(cols):
    out = []
    for name, kind, role, vals in cols:
        vals = np.asarray(vals, dtype=float)
        out.append(Column(name, kind, role, vals, np.ones(vals.size, dtype=bool)))
    return Dataset(tuple(out))


C, B = VariableKind.CONTINUOUS, VariableKind.BINARY
PART, OUT = VariableRole.PARTIAL_COVARIATE, VariableRole.OUTCOME


def fit_and_draw(family, formula, d, rng):
    """One outcome-model posterior draw, as the compatible sampler takes it."""
    model = FAMILIES[family]
    X = design_matrix(formula, d)
    response = model.prepare(*response_arrays(formula, d))
    return model.draw(model.fit(X, response), X, response, rng)


def test_draw_substantive_normal_perfect_fit_degenerate():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    d = _complete_ds([("x", C, PART, x), ("y", C, OUT, 2.0 + 3.0 * x)])
    f = parse_formula("y ~ x")
    # one draw for both roles: the degenerate draw (beta, 0)
    params = fit_and_draw("normal_linear", f, d, np.random.default_rng(0))
    np.testing.assert_allclose(params.beta, [2.0, 3.0], atol=1e-10)
    assert params.sigma2 == 0.0
    # the outcome role's acceptance ratio divides by sigma2, and refuses it
    with pytest.raises(FitError, match="sigma2 must be positive"):
        FAMILIES["normal_linear"].log_ratio(params, (d.column("y").values,), x)


def test_draw_substantive_cox_baseline_jumps_at_event_times():
    rng = np.random.default_rng(1)
    n = 100
    x = rng.normal(size=n)
    w = rng.exponential(1.0, n) + 1e-3
    d_ind = (rng.random(n) < 0.7).astype(float)
    ds = _complete_ds([
        ("x", C, PART, x),
        ("w", C, VariableRole.TIME, w),
        ("d", B, VariableRole.EVENT, d_ind),
    ])
    params = fit_and_draw("cox", parse_formula("surv(w,d) ~ x"), ds, np.random.default_rng(2))
    event_times = np.unique(w[d_ind == 1.0])
    np.testing.assert_array_equal(params.baseline.knots, event_times)


def test_draw_substantive_draws_differ():
    rng = np.random.default_rng(3)
    n = 60
    x = rng.normal(size=n)
    y = 1.0 + x + rng.normal(size=n)
    d = _complete_ds([("x", C, PART, x), ("y", C, OUT, y)])
    f = parse_formula("y ~ x")
    a = fit_and_draw("normal_linear", f, d, np.random.default_rng(4))
    b = fit_and_draw("normal_linear", f, d, np.random.default_rng(5))
    assert not np.array_equal(a.beta, b.beta)


@pytest.mark.parametrize("n", [1, 2, 7, 300, 19_200])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_normal_sample_draws_what_rng_normal_draws(seed, n):
    # mu + sd * standard_normal(n) is rng.normal(mu, sd): same values, and
    # the generator is left in the same state
    mu = np.random.default_rng(100 + seed).normal(0.0, 3.0, n)
    params = SubstantiveParams(family="normal_linear", beta=np.zeros(1), sigma2=0.37 + seed)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = FAMILIES["normal_linear"].sample(params, mu, ours)
    expected = theirs.normal(mu, np.sqrt(params.sigma2))
    assert drawn.tobytes() == expected.tobytes()
    assert ours.bit_generator.state == theirs.bit_generator.state

