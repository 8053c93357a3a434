import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm, t

from smcimpute._special import normal_quantile, t_quantile
from smcimpute.dataset import Column, Dataset, VariableKind, VariableRole
from smcimpute.formula import parse_formula
from smcimpute.pooling import PoolError, fit_each, pool

C = VariableKind.CONTINUOUS
PART, OUT = VariableRole.PARTIAL_COVARIATE, VariableRole.OUTCOME


def test_degenerate_between_variance():
    est = np.full((4, 1), 1.0)
    var = np.full((4, 1), 0.04)
    p = pool(est, var)
    assert p.point[0] == 1.0
    assert p.between_var[0] == 0.0
    assert p.total_var[0] == pytest.approx(0.04)
    # normal-quantile interval when B = 0
    half = norm.ppf(0.975) * 0.2
    assert p.ci_low[0] == pytest.approx(1.0 - half)
    assert p.ci_high[0] == pytest.approx(1.0 + half)


def test_equal_estimates_with_zero_within_variance_have_infinite_df():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = pool([[1.0, 2.0], [1.0, 2.0]], [[0.0, 0.1], [0.0, 0.1]])
    # the B -> 0 limit, not 0/0
    assert np.all(p.df == np.inf)
    assert p.ci_low[0] == p.ci_high[0] == 1.0


def test_hand_computed_pooling():
    est = np.array([[1.0], [2.0], [3.0]])
    var = np.full((3, 1), 0.5)
    p = pool(est, var)
    assert p.point[0] == pytest.approx(2.0)
    assert p.within_var[0] == pytest.approx(0.5)
    assert p.between_var[0] == pytest.approx(1.0)
    assert p.total_var[0] == pytest.approx(0.5 + 4.0 / 3.0)
    # df = (M-1) (1 + W / ((1+1/M) B))^2
    assert p.df[0] == pytest.approx(2.0 * (1.0 + 0.5 / (4.0 / 3.0)) ** 2)


def test_scaling_homogeneity():
    rng = np.random.default_rng(0)
    est = rng.normal(size=(5, 2))
    var = rng.random((5, 2)) + 0.1
    base = pool(est, var)
    scaled = pool(3.0 * est, 9.0 * var)
    np.testing.assert_allclose(scaled.point, 3.0 * base.point)
    np.testing.assert_allclose(scaled.total_var, 9.0 * base.total_var)


def test_pool_needs_two_imputations():
    with pytest.raises(PoolError):
        pool(np.ones((1, 2)), np.ones((1, 2)))


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2, float("nan")])
def test_pool_refuses_a_level_outside_the_unit_interval(level):
    with pytest.raises(PoolError, match=f"^level must be strictly between 0 and 1, not {level}$"):
        pool(np.ones((3, 2)), np.ones((3, 2)), level=level)


@given(
    data=st.lists(
        st.tuples(st.floats(-10, 10), st.floats(0.01, 5.0)),
        min_size=2,
        max_size=12,
    )
)
@example(data=[(0.1, 1.0)] * 3)  # the mean of three 0.1s rounds up an ulp
@settings(max_examples=150)
def test_pool_invariants(data):
    est = np.array([[e] for e, _ in data])
    var = np.array([[v] for _, v in data])
    p = pool(est, var)
    assert p.total_var[0] >= p.within_var[0] - 1e-12
    if np.all(est == est[0]):
        assert p.point[0] == est[0, 0]
        assert p.between_var[0] == 0.0
        assert p.df[0] == np.inf
        assert p.total_var[0] == p.within_var[0]
    if p.between_var[0] > 1e-12 * p.within_var[0]:  # beyond float rounding
        assert p.total_var[0] > p.within_var[0]
    assert p.ci_low[0] <= p.point[0] <= p.ci_high[0]
    # permutation invariance of the point estimate
    perm = np.random.default_rng(0).permutation(len(data))
    p2 = pool(est[perm], var[perm])
    assert p2.point[0] == pytest.approx(p.point[0])


def test_df_grows_as_between_variance_vanishes():
    var = np.full((5, 1), 1.0)
    wide = pool(np.array([[0.0], [1.0], [2.0], [3.0], [4.0]]), var)
    tight = pool(np.array([[0.0], [1e-4], [2e-4], [3e-4], [4e-4]]), var)
    assert tight.df[0] > wide.df[0] > 1.0


def _complete(named):
    cols = []
    for name, vals in named.items():
        vals = np.asarray(vals, dtype=float)
        role = OUT if name == "y" else PART
        cols.append(Column(name, C, role, vals, np.ones(vals.size, dtype=bool)))
    return Dataset(tuple(cols))


def test_fit_each_identical_datasets():
    rng = np.random.default_rng(1)
    x = rng.normal(size=50)
    y = 1.0 + 2.0 * x + rng.normal(size=50)
    d = _complete({"x": x, "y": y})
    est, var = fit_each([d, d, d], "normal_linear", parse_formula("y ~ x"))
    assert est.shape == (3, 2)
    assert np.all(est == est[0])
    assert np.all(var == var[0])


def test_fit_each_reports_failing_imputations():
    rng = np.random.default_rng(2)
    x = rng.normal(size=30)
    good = _complete({"x": x, "y": x + rng.normal(size=30)})
    bad = _complete({"x": np.zeros(30), "y": rng.normal(size=30)})  # rank deficient
    with pytest.raises(PoolError) as info:
        fit_each([good, bad, good], "normal_linear", parse_formula("y ~ x"))
    assert info.value.failed_indices == (2,)


def _cox_imputations(m):
    from smcimpute.engines import EngineConfig, run_fcs
    from smcimpute.simlab import apply_mcar, gen_cox

    d = apply_mcar(gen_cox(200, np.random.default_rng(7)), 0.7, np.random.default_rng(8))
    return run_fcs(d, EngineConfig(method="fcs", m=m, iterations=2, seed=4))


def _count_layout_builds(monkeypatch):
    import smcimpute.fitters as fitters
    import smcimpute.substantive as substantive

    builds, build = [], fitters.cox_layout

    def counting(time, event):
        builds.append(1)
        return build(time, event)

    for module in (fitters, substantive):
        monkeypatch.setattr(module, "cox_layout", counting)
    return builds


def _per_dataset_fits(datasets, formula):
    """Each dataset pooled on its own, so each prepares its own response."""
    fits = [fit_each([d], "cox", formula) for d in datasets]
    return np.concatenate([e for e, _ in fits]), np.concatenate([v for _, v in fits])


def test_fit_each_builds_one_cox_layout_for_imputations_sharing_the_response(monkeypatch):
    result = _cox_imputations(5)
    formula = parse_formula("surv(w,d) ~ x1 + x2")
    expected = _per_dataset_fits(result.datasets, formula)
    builds = _count_layout_builds(monkeypatch)
    est, var = fit_each(result, "cox", formula)
    assert len(builds) == 1
    assert est.tobytes() == expected[0].tobytes()
    assert var.tobytes() == expected[1].tobytes()


def test_fit_each_prepares_each_cox_response_when_time_columns_differ(monkeypatch):
    datasets = list(_cox_imputations(3).datasets)
    w = datasets[1].column("w")
    datasets[1] = Dataset(tuple(
        Column("w", w.kind, w.role, 1.5 * w.values, w.observed) if c.name == "w" else c
        for c in datasets[1].columns
    ))
    formula = parse_formula("surv(w,d) ~ x1 + x2")
    expected = _per_dataset_fits(datasets, formula)
    builds = _count_layout_builds(monkeypatch)
    est, var = fit_each(datasets, "cox", formula)
    assert len(builds) == 3
    assert est.tobytes() == expected[0].tobytes()
    assert var.tobytes() == expected[1].tobytes()
    assert not np.array_equal(est[1], est[0])


def test_fit_each_reports_every_imputation_of_a_survival_time_that_is_not_positive():
    # the time is an outcome column here, so no column check rejects t = 0;
    # the shared layout fails, and each imputation's own fit reports it
    rng = np.random.default_rng(5)
    x = rng.normal(size=20)
    d = _complete({"x": x, "y": np.arange(20.0), "e": np.ones(20)})
    with pytest.raises(PoolError) as info:
        fit_each([d, d], "cox", parse_formula("surv(y,e) ~ x"))
    assert info.value.failed_indices == (1, 2)


def test_fit_each_perfect_fit_zero_variance():
    x = np.arange(1.0, 7.0)
    d = _complete({"x": x, "y": 3.0 * x})
    est, var = fit_each([d, d], "normal_linear", parse_formula("y ~ x"))
    assert np.all(var == 0.0)


@pytest.mark.parametrize("level", [0.9, 0.95, 0.99])
def test_intervals_use_quantiles_that_match_scipy_stats(level):
    rng = np.random.default_rng(3)
    est = rng.normal(size=(6, 4))
    est[:, 1] = 0.5  # B = 0: infinite df, the normal quantile
    est[:, 2] = 1.0 + 1e-9 * np.arange(6)  # tiny B: df near 10^18
    var = rng.random((6, 4)) + 0.5
    p = pool(est, var, level=level)
    assert p.between_var[1] == 0.0 and p.df[2] > 1e15
    alpha = 0.5 * (1.0 + level)
    z = normal_quantile(alpha)
    assert abs(z - norm.ppf(alpha)) <= 2 * np.spacing(z)
    q = np.array([t_quantile(df, alpha) for df in p.df])
    assert p.df[1] == np.inf and q[1] == z
    np.testing.assert_allclose(q, t.ppf(alpha, p.df), rtol=1e-12, atol=0)
    half = q * np.sqrt(p.total_var)
    np.testing.assert_array_equal(p.ci_low, p.point - half)
    np.testing.assert_array_equal(p.ci_high, p.point + half)
