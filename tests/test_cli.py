import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcimpute.cli import _read_long_csv, _write_long_csv, main, read_schema
from smcimpute.dataset import Column, Dataset, write_csv
from smcimpute.rng import stream
from smcimpute.simlab import apply_mcar, gen_quadratic

SCHEMA = "name,kind,role\nx,continuous,partial_covariate\ny,continuous,outcome\n"


@pytest.fixture
def quad_files(tmp_path):
    d = apply_mcar(gen_quadratic("normal", 400, stream(5, "cli")), 0.7, stream(5, "climask"))
    data = tmp_path / "quad.csv"
    write_csv(d, data)
    schema = tmp_path / "schema.csv"
    schema.write_text(SCHEMA)
    return tmp_path, data, schema


def run(argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def impute_args(data, schema, out, method="smcfcs", m=4, seed=9, extra=()):
    argv = [
        "impute", "--data", data, "--schema", schema, "--method", method,
        "--m", m, "--iter", 5, "--seed", seed, "--out", out,
    ]
    if method == "smcfcs":
        argv += ["--family", "linear", "--smodel", "y ~ x + x^2"]
    return argv + list(extra)


def test_impute_writes_stacked_imputations(quad_files):
    tmp, data, schema = quad_files
    out = tmp / "imp.csv"
    assert run(impute_args(data, schema, out)) == 0
    rows = read_rows(out)
    assert {r["_imp"] for r in rows} == {"1", "2", "3", "4"}
    assert len(rows) == 4 * 400
    assert (tmp / "imp.csv.diag.csv").exists()
    # observed cells constant across _imp
    source = read_rows(data)
    observed = [i for i, r in enumerate(source) if r["x"] != ""]
    by_imp = {}
    for r in rows:
        by_imp.setdefault(r["_imp"], []).append(r["x"])
    for m in ("2", "3", "4"):
        for i in observed:
            assert by_imp[m][i] == by_imp["1"][i]


def test_impute_same_seed_byte_identical(quad_files):
    tmp, data, schema = quad_files
    a, b = tmp / "a.csv", tmp / "b.csv"
    assert run(impute_args(data, schema, a)) == 0
    assert run(impute_args(data, schema, b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_impute_smcfcs_without_smodel_is_usage_error(quad_files):
    tmp, data, schema = quad_files
    code = run(["impute", "--data", data, "--schema", schema, "--method", "smcfcs",
                "--m", 4, "--out", tmp / "x.csv"])
    assert code == 2


def test_impute_engine_abort_exit_code(tmp_path):
    # one observed value in x: every chain fit is rank deficient
    data = tmp_path / "bad.csv"
    lines = ["x,y"] + ["2.0,1.0"] + [f",{float(i)}" for i in range(20)]
    data.write_text("\n".join(lines) + "\n")
    schema = tmp_path / "schema.csv"
    schema.write_text(SCHEMA)
    code = run(["impute", "--data", data, "--schema", schema, "--method", "fcs",
                "--m", 2, "--seed", 1, "--out", tmp_path / "o.csv"])
    assert code == 3


def test_analyze_pipeline_recovers_quadratic_coefficient(quad_files):
    tmp, data, schema = quad_files
    imp = tmp / "imp.csv"
    pooled = tmp / "pooled.csv"
    assert run(impute_args(data, schema, imp, m=10)) == 0
    assert run(["analyze", "--data", imp, "--schema", schema, "--family", "linear",
                "--smodel", "y ~ x + x^2", "--out", pooled]) == 0
    rows = {r["term"]: r for r in read_rows(pooled)}
    row = rows["x^2"]
    assert float(row["ci_low"]) <= 1.0 <= float(row["ci_high"])


def test_analyze_single_imputation_is_usage_error(quad_files, tmp_path):
    tmp, data, schema = quad_files
    imp = tmp / "one.csv"
    assert run(impute_args(data, schema, imp, m=1)) == 0
    code = run(["analyze", "--data", imp, "--schema", schema, "--family", "linear",
                "--smodel", "y ~ x + x^2", "--out", tmp / "p.csv"])
    assert code == 2


def test_analyze_identical_imputations_zero_between_variance(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=50)
    y = 1.0 + x + rng.normal(size=50)
    lines = ["_imp,x,y"]
    for m in (1, 2, 3):
        for xi, yi in zip(x, y):
            lines.append(f"{m},{float(xi)!r},{float(yi)!r}")
    data = tmp_path / "long.csv"
    data.write_text("\n".join(lines) + "\n")
    schema = tmp_path / "schema.csv"
    schema.write_text(SCHEMA)
    pooled = tmp_path / "pooled.csv"
    assert run(["analyze", "--data", data, "--schema", schema, "--family", "linear",
                "--smodel", "y ~ x", "--out", pooled]) == 0
    rows = read_rows(pooled)
    assert all(r["df"] == "inf" for r in rows)  # B = 0 everywhere


def test_simulate_unknown_builtin_usage_error(tmp_path):
    assert run(["simulate", "--scenario", "never-heard-of-it",
                "--out", tmp_path / "s.csv"]) == 2


def test_simulate_threads_do_not_change_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["simulate", "--scenario", "quad-normal-mcar", "--reps", 3, "--seed", 4]
    assert run(base + ["--threads", 1, "--out", a]) == 0
    assert run(base + ["--threads", 2, "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_ignores_a_threads_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("SMCFCS_THREADS", "two")
    out = tmp_path / "s.csv"
    assert run(["simulate", "--scenario", "quad-normal-mcar", "--reps", 1,
                "--out", out]) == 0
    assert out.exists()


def test_simulate_zero_threads_is_usage_error(tmp_path, capsys):
    code = run(["simulate", "--scenario", "quad-normal-mcar", "--reps", 1,
                "--threads", 0, "--out", tmp_path / "s.csv"])
    assert code == 2
    assert "--threads: must be >= 1" in capsys.readouterr().err


def test_simulate_scenario_json_file(tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(
        '{"dgp": "quadratic", "variant": "normal", "mechanism": "mcar",'
        ' "n": 200, "reps": 2, "m": 2, "methods": ["cc", "smcfcs"], "seed": 12}'
    )
    out = tmp_path / "s.csv"
    assert run(["simulate", "--scenario", cfg, "--out", out]) == 0
    rows = read_rows(out)
    assert {r["method"] for r in rows} == {"cc", "smcfcs"}
    assert {r["parameter"] for r in rows} == {"(intercept)", "x", "x^2"}


@pytest.mark.parametrize("level", ["1.5", "nan", "1", "0", "-0.2"])
def test_analyze_level_outside_unit_interval_is_usage_error(tmp_path, capsys, level):
    data = tmp_path / "long.csv"
    data.write_text("_imp,x,y\n1,0.0,1.0\n1,1.0,2.5\n1,2.0,2.9\n"
                    "2,0.0,1.1\n2,1.0,2.4\n2,2.0,3.2\n")
    schema = tmp_path / "schema.csv"
    schema.write_text(SCHEMA)
    out = tmp_path / "pooled.csv"
    code = run(["analyze", "--data", data, "--schema", schema, "--family", "linear",
                "--smodel", "y ~ x", "--level", level, "--out", out])
    assert code == 2
    assert "--level: must be strictly between 0 and 1" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_zero_reps_is_usage_error(tmp_path, capsys):
    code = run(["simulate", "--scenario", "quad-normal-mcar", "--reps", 0,
                "--out", tmp_path / "s.csv"])
    assert code == 2
    assert "--reps: must be >= 1" in capsys.readouterr().err


def test_simulate_scenario_json_array_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text('["quadratic", "normal"]')
    code = run(["simulate", "--scenario", cfg, "--out", tmp_path / "s.csv"])
    assert code == 2
    assert "--scenario: JSON must be an object" in capsys.readouterr().err


def test_impute_zero_iterations_names_the_iter_flag(quad_files, capsys):
    tmp, data, schema = quad_files
    argv = impute_args(data, schema, tmp / "o.csv")
    argv[argv.index("--iter") + 1] = 0
    assert run(argv) == 2
    assert "--iter: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("smodel, message", [
    ("y ~ x + z", "substantive formula references unknown column 'z'"),
    ("x ~ y", "substantive column x has missing cells"),
    ("q ~ x", "substantive response: unknown column 'q'"),
])
def test_impute_outcome_model_data_error_names_the_smodel_flag(quad_files, capsys,
                                                               smodel, message):
    tmp, data, schema = quad_files
    argv = impute_args(data, schema, tmp / "o.csv")
    argv[argv.index("--smodel") + 1] = smodel
    assert run(argv) == 2
    assert f"--smodel: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("covmodel", ["x ~ x + y", "x ~ x^2"])
def test_impute_covmodel_with_its_target_among_predictors_is_usage_error(
        quad_files, capsys, covmodel):
    tmp, data, schema = quad_files
    argv = impute_args(data, schema, tmp / "o.csv", extra=("--covmodel", covmodel))
    assert run(argv) == 2
    assert "--covmodel: target x may not appear among its predictors" in capsys.readouterr().err


@pytest.mark.parametrize("tail, bad_row, cells", [
    ("\n", 5, 0),  # trailing blank line
    ("2,0.5\n", 5, 2),  # short row
])
def test_analyze_malformed_row_is_usage_error(tmp_path, capsys, tail, bad_row, cells):
    data = tmp_path / "long.csv"
    data.write_text("_imp,x,y\n1,0.0,1.0\n1,1.0,2.5\n2,0.0,1.1\n" + tail)
    schema = tmp_path / "schema.csv"
    schema.write_text(SCHEMA)
    code = run(["analyze", "--data", data, "--schema", schema, "--family", "linear",
                "--smodel", "y ~ x", "--out", tmp_path / "pooled.csv"])
    assert code == 2
    assert f"row {bad_row} has {cells} cells, expected 3" in capsys.readouterr().err


def test_analyze_smodel_with_unknown_column_is_usage_error(tmp_path, capsys):
    data = tmp_path / "long.csv"
    data.write_text("_imp,x,y\n1,0.0,1.0\n1,1.0,2.5\n2,0.0,1.1\n2,1.0,2.4\n")
    schema = tmp_path / "schema.csv"
    schema.write_text(SCHEMA)
    code = run(["analyze", "--data", data, "--schema", schema, "--family", "linear",
                "--smodel", "y ~ x + z", "--out", tmp_path / "pooled.csv"])
    assert code == 2
    assert "--smodel: formula references unknown column 'z'" in capsys.readouterr().err


def test_analyze_unequal_imputation_lengths_is_usage_error(tmp_path, capsys):
    data = tmp_path / "long.csv"
    data.write_text("_imp,x,y\n1,0.0,1.0\n1,1.0,2.5\n1,2.0,2.9\n2,0.0,1.1\n2,1.0,2.4\n")
    schema = tmp_path / "schema.csv"
    schema.write_text(SCHEMA)
    code = run(["analyze", "--data", data, "--schema", schema, "--family", "linear",
                "--smodel", "y ~ x", "--out", tmp_path / "pooled.csv"])
    assert code == 2
    assert "_imp 2 has 2 rows, _imp 1 has 3" in capsys.readouterr().err


def test_impute_repeated_header_name_is_usage_error(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("x,x,y\n1.0,2.0,0.5\n,1.0,1.5\n")
    schema = tmp_path / "schema.csv"
    schema.write_text(SCHEMA)
    code = run(["impute", "--data", data, "--schema", schema, "--method", "fcs",
                "--m", 2, "--out", tmp_path / "o.csv"])
    assert code == 2
    assert "'x' appears twice in the header" in capsys.readouterr().err


def test_long_csv_blocks_come_in_ascending_imp_order(tmp_path):
    data = tmp_path / "long.csv"
    data.write_text("_imp,x,y\n2,20.0,1.0\n1,10.0,2.0\n2,21.0,3.0\n1,11.0,4.0\n")
    schema = tmp_path / "schema.csv"
    schema.write_text(SCHEMA)
    first, second = _read_long_csv(data, read_schema(schema))
    assert list(first.column("x").values) == [10.0, 11.0]
    assert list(first.column("y").values) == [2.0, 4.0]
    assert list(second.column("x").values) == [20.0, 21.0]


EXTREMES = (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308)


@given(
    m=st.integers(min_value=2, max_value=4),
    columns=st.lists(
        st.lists(st.one_of(st.sampled_from(EXTREMES),
                           st.floats(allow_nan=False, allow_infinity=False)),
                 min_size=5, max_size=5),
        min_size=8, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_long_csv_round_trip_is_bit_exact(m, columns, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("long")
    (tmp / "schema.csv").write_text(SCHEMA)
    schema = read_schema(tmp / "schema.csv")
    full = np.ones(5, dtype=bool)
    datasets = [
        Dataset(tuple(Column(name, kind, role, np.array(columns[2 * k + j]), full)
                      for j, (name, kind, role) in enumerate(schema)))
        for k in range(m)
    ]
    _write_long_csv(tmp / "long.csv", datasets, ["x", "y"])
    back = _read_long_csv(tmp / "long.csv", schema)
    assert len(back) == m
    for d, d2 in zip(datasets, back):
        for name in ("x", "y"):
            assert d.column(name).values.tobytes() == d2.column(name).values.tobytes()


def test_reading_a_long_csv_holds_little_beyond_its_numbers(tmp_path):
    n, m = 20_000, 5
    rng = np.random.default_rng(3)
    y = rng.normal(size=n)
    lines = ["_imp,x,y"]
    for k in range(1, m + 1):
        lines += [f"{k},{a!r},{b!r}" for a, b in zip(rng.normal(size=n).tolist(), y.tolist())]
    data = tmp_path / "long.csv"
    data.write_text("\n".join(lines) + "\n")
    del lines
    schema = tmp_path / "schema.csv"
    schema.write_text(SCHEMA)
    schema = read_schema(schema)
    payload = m * n * 3 * 8  # float64 cells, _imp included
    tracemalloc.start()
    try:
        datasets = _read_long_csv(data, schema)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(datasets) == m and datasets[0].n == n
    assert peak < 3 * payload
