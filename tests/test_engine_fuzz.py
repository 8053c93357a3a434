"""A bounded fuzz of both engines over small random datasets.

Each dataset has 5-60 rows, 1-3 partial covariates of both kinds with 0-90%
of their cells missing, continuous covariates placed at 0, 50 or 1000, and a
normal, logistic or Cox outcome.  Both engines run on each dataset, and
run_fcs also runs on its jav_dataset when the outcome is not Cox, with every
partial covariate and the square of the first as the outcome model's terms.
Only EngineFailure and DataError may escape a run.  A delivered imputation
keeps the observed cells bit for bit, holds no NaN and keeps binary columns
0/1, and the same seed gives the same bytes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from smcimpute.dataset import Column, DataError, Dataset, VariableKind, VariableRole
from smcimpute.engines import (
    EngineConfig,
    EngineFailure,
    default_covariate_specs,
    jav_dataset,
    run_fcs,
    run_smcfcs,
)
from smcimpute.formula import parse_formula

C, B = VariableKind.CONTINUOUS, VariableKind.BINARY
PART = VariableRole.PARTIAL_COVARIATE


@st.composite
def fuzz_cases(draw):
    n = draw(st.integers(5, 60))
    kinds = draw(st.lists(st.sampled_from([B, C]), min_size=1, max_size=3))
    offsets = [draw(st.sampled_from([0.0, 50.0, 1000.0])) if k is C else 0.0 for k in kinds]
    missing = [draw(st.floats(0.0, 0.9)) for _ in kinds]
    family = draw(st.sampled_from(["normal_linear", "logistic", "cox"]))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, kinds, offsets, missing, family, seed


def make_dataset(n, kinds, offsets, missing, family, seed):
    rng = np.random.default_rng(seed)
    cols, eta = [], np.zeros(n)
    for j, (kind, offset, p_miss) in enumerate(zip(kinds, offsets, missing), start=1):
        x = (rng.random(n) < 0.5).astype(float) if kind is B else rng.normal(size=n)
        eta += 0.5 * x
        observed = rng.random(n) >= p_miss
        cols.append(Column(f"x{j}", kind, PART, np.where(observed, x + offset, np.nan), observed))
    full = np.ones(n, dtype=bool)
    if family == "cox":
        t = rng.exponential(1.0, n) / np.exp(eta)
        censor = rng.exponential(2.0, n)
        cols.append(Column("t", C, VariableRole.TIME, np.minimum(t, censor), full))
        cols.append(Column("d", B, VariableRole.EVENT, (t <= censor).astype(float), full))
    elif family == "logistic":
        y = (rng.random(n) < expit(eta)).astype(float)
        cols.append(Column("y", B, VariableRole.OUTCOME, y, full))
    else:
        cols.append(Column("y", C, VariableRole.OUTCOME, rng.normal(eta, 1.0), full))
    return Dataset(tuple(cols))


def run_engine(d, method, family):
    terms = " + ".join(c.name for c in d.partial_covariates())
    response = "surv(t, d)" if family == "cox" else "y"
    outcome = (family, parse_formula(f"{response} ~ {terms}"))
    config = EngineConfig(
        method=method, m=2, iterations=2, seed=5,
        substantive=outcome if method == "smcfcs" else None,
        covariate_specs=default_covariate_specs(d, method),
    )
    try:
        return (run_fcs if method == "fcs" else run_smcfcs)(d, config)
    except (EngineFailure, DataError):
        return None


def check_runs(d, run):
    """The invariants over every column of d, for two calls of `run`."""
    result, again = run(), run()
    assert (result is None) == (again is None)
    if result is None:
        return
    for imputed, repeat in zip(result.datasets, again.datasets):
        for col in d.columns:
            values = imputed.column(col.name).values
            assert values[col.observed].tobytes() == col.values[col.observed].tobytes()
            assert not np.any(np.isnan(values))
            if col.kind is B:
                assert np.all((values == 0.0) | (values == 1.0))
            assert values.tobytes() == repeat.column(col.name).values.tobytes()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=fuzz_cases())
def test_engines_keep_their_invariants_on_random_data(case):
    d = make_dataset(*case)
    family = case[4]
    for method in ("fcs", "smcfcs"):
        check_runs(d, lambda: run_engine(d, method, family))
    if family == "cox":
        return
    names = [c.name for c in d.partial_covariates()]
    dj = jav_dataset(parse_formula(f"y ~ {' + '.join(names)} + {names[0]}^2"), d)
    config = EngineConfig(method="fcs", m=2, iterations=2, seed=5,
                          covariate_specs=default_covariate_specs(dj, "fcs"))

    def run_jav():
        try:
            return run_fcs(dj, config)
        except (EngineFailure, DataError):
            return None

    check_runs(dj, run_jav)
