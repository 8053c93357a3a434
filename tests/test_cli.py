import contextlib
import csv
import io
import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smcimpute.cli import _read_long_csv, _write_long_csv, main, read_schema
from smcimpute.dataset import (
    DEFAULT_MISSING_TOKENS,
    Column,
    Dataset,
    VariableKind,
    VariableRole,
    write_csv,
)
from smcimpute.fitters import NON_FINITE
from smcimpute.formula import parse_formula
from smcimpute.rng import stream
from smcimpute.simlab import apply_mcar, gen_cox, gen_interaction, gen_quadratic

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


@pytest.mark.parametrize("method, flags, error", [
    ("fcs", ["--smodel", "y ~ x + x^2"], "--smodel: only --method smcfcs takes an outcome model"),
    ("fcs", ["--family", "linear"], "--family: only --method smcfcs takes an outcome model"),
    # even a family that smcfcs would refuse for this response
    ("fcs", ["--family", "cox", "--smodel", "y ~ x + x^2"],
     "--smodel: only --method smcfcs takes an outcome model"),
    ("smcfcs", ["--family", "linear"], "--smodel: required when --method smcfcs"),
    ("smcfcs", ["--smodel", "y ~ x"], "--family: required when --method smcfcs"),
])
def test_an_outcome_model_is_given_exactly_when_the_method_is_smcfcs(quad_files, capsys,
                                                                      method, flags, error):
    tmp, data, schema = quad_files
    out = tmp / "o.csv"
    assert run(["impute", "--data", data, "--schema", schema, "--method", method, "--m", 2,
                "--iter", 1, "--out", out, *flags]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


def test_impute_partial_covariate_with_no_observed_value_is_an_engine_failure(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("x,y\n" + "".join(f",{0.5 * i}\n" for i in range(20)))
    schema = tmp_path / "schema.csv"
    schema.write_text(SCHEMA)
    assert run(["impute", "--data", data, "--schema", schema, "--method", "smcfcs",
                "--family", "linear", "--smodel", "y ~ x", "--m", 2, "--iter", 1,
                "--out", tmp_path / "o.csv"]) == 3
    assert capsys.readouterr().err.splitlines() == ["failure: column x has no observed values"]
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("method, extra", [
    ("smcfcs", ["--family", "linear", "--smodel", "y ~ x + bp"]),
    ("fcs", ["--covmodel", "x ~ bp"]),
])
def test_impute_a_binary_covariate_whose_predictor_sits_far_from_zero(tmp_path, method, extra):
    # logit P(x = 1) = 0.3 (bp - 130) with bp ~ N(130, 3): the covariate
    # model's intercept is about -39
    rng = stream(5, "bp")
    n = 500
    bp = rng.normal(130.0, 3.0, n)
    x = (rng.random(n) < 1.0 / (1.0 + np.exp(-0.3 * (bp - 130.0)))).astype(float)
    y = rng.normal(x + 0.1 * (bp - 130.0), 1.0)
    full = np.ones(n, dtype=bool)
    d = apply_mcar(Dataset((
        Column("x", VariableKind.BINARY, VariableRole.PARTIAL_COVARIATE, x, full),
        Column("bp", VariableKind.CONTINUOUS, VariableRole.COMPLETE_COVARIATE, bp, full),
        Column("y", VariableKind.CONTINUOUS, VariableRole.OUTCOME, y, full),
    )), 0.7, stream(5, "bp", "mask"))
    data, schema, out = tmp_path / "bp.csv", tmp_path / "schema.csv", tmp_path / "imp.csv"
    write_csv(d, data)
    schema.write_text("name,kind,role\nx,binary,partial_covariate\n"
                      "bp,continuous,complete_covariate\ny,continuous,outcome\n")
    assert run(["impute", "--data", data, "--schema", schema, "--method", method,
                "--m", 5, "--seed", 1, "--out", out, *extra]) == 0
    assert {r["x"] for r in read_rows(out)} == {"0.0", "1.0"}


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


def test_impute_and_analyze_outputs_take_the_umask(quad_files):
    tmp, data, schema = quad_files
    previous = os.umask(0o022)
    try:
        assert run(impute_args(data, schema, tmp / "imp.csv", m=2)) == 0
        assert run(["analyze", "--data", tmp / "imp.csv", "--schema", schema,
                    "--family", "linear", "--smodel", "y ~ x + x^2",
                    "--out", tmp / "pooled.csv"]) == 0
    finally:
        os.umask(previous)
    for name in ("imp.csv", "imp.csv.diag.csv", "pooled.csv"):
        assert (tmp / name).stat().st_mode & 0o777 == 0o644


def test_impute_refuses_an_out_whose_diagnostics_path_is_a_directory(tmp_path, monkeypatch,
                                                                     capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "imp.csv.diag.csv").mkdir()
    argv = ["impute", "--data", "absent.csv", "--schema", "absent.csv", "--method", "fcs",
            "--out", "imp.csv"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: argument --out: ") and "OUT.diag.csv" in err
    assert len(err.splitlines()) == 1
    assert [p.name for p in tmp_path.rglob("*")] == ["imp.csv.diag.csv"]  # no file written


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


def test_impute_logistic_outcome_that_is_not_0_1_is_usage_error(quad_files, capsys):
    # y is continuous: rejected at set-up, before any chain runs
    tmp, data, schema = quad_files
    argv = impute_args(data, schema, tmp / "o.csv")
    argv[argv.index("--family") + 1] = "logistic"
    argv[argv.index("--smodel") + 1] = "y ~ x"
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: --smodel: substantive response: logistic response must be 0/1"]
    assert not (tmp / "o.csv").exists()


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


@pytest.mark.parametrize("family, smodel, message", [
    ("linear", "y ~ x + z", "formula references unknown column 'z'"),
    ("linear", "q ~ x", "response: unknown column 'q'"),
    ("cox", "surv(a,b) ~ x", "response: unknown column 'a'"),
], ids=["rhs", "response", "surv-response"])
def test_analyze_smodel_with_unknown_column_is_usage_error(tmp_path, capsys,
                                                           family, smodel, message):
    data = tmp_path / "long.csv"
    data.write_text("_imp,x,y\n1,0.0,1.0\n1,1.0,2.5\n2,0.0,1.1\n2,1.0,2.4\n")
    schema = tmp_path / "schema.csv"
    schema.write_text(SCHEMA)
    code = run(["analyze", "--data", data, "--schema", schema, "--family", family,
                "--smodel", smodel, "--out", tmp_path / "pooled.csv"])
    assert code == 2
    assert f"error: --smodel: {message}" in capsys.readouterr().err
    assert not (tmp_path / "pooled.csv").exists()


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


def set_cell(data, column, cell):
    """Replace the first observed cell of `column` in the CSV file `data`."""
    lines = data.read_text().splitlines()
    j = lines[0].split(",").index(column)
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if cells[j]:
            cells[j] = cell
            lines[i] = ",".join(cells)
            break
    data.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("column, cell, method", [
    ("y", "inf", "fcs"),
    ("y", "-inf", "smcfcs"),
    ("x", "inf", "smcfcs"),
    ("x", "-Infinity", "analyze"),
])
def test_an_infinite_data_cell_is_refused_naming_the_data_flag(quad_files, capsys,
                                                                column, cell, method):
    tmp, data, schema = quad_files
    if method == "analyze":
        assert run(impute_args(data, schema, tmp / "imp.csv", m=2)) == 0
        data = tmp / "imp.csv"
    set_cell(data, column, cell)
    argv = (["analyze", "--data", data, "--schema", schema, "--family", "linear",
             "--smodel", "y ~ x", "--out", tmp / "o.csv"] if method == "analyze"
            else impute_args(data, schema, tmp / "o.csv", method=method))
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: --data: column {column}: an observed value is infinite")
    assert not (tmp / "o.csv").exists()


@pytest.mark.parametrize("command", ["impute", "analyze"])
def test_a_nan_data_cell_is_refused_naming_the_data_flag(quad_files, capsys, command):
    # "nan" is missing only when given as a --missing-token
    tmp, data, schema = quad_files
    if command == "analyze":
        assert run(impute_args(data, schema, tmp / "imp.csv", m=2)) == 0
        data = tmp / "imp.csv"
    set_cell(data, "x", "nan")
    lines = data.read_text().splitlines()
    row = next(i for i, line in enumerate(lines, start=1) if "nan" in line.split(","))
    argv = (["analyze", "--data", data, "--schema", schema, "--family", "linear",
             "--smodel", "y ~ x", "--out", tmp / "o.csv"] if command == "analyze"
            else impute_args(data, schema, tmp / "o.csv", method="fcs"))
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: --data: {data}: row {row}: unparseable cell 'nan' in column x: "
        "not a number or a missing token")
    assert not (tmp / "o.csv").exists()
    if command == "impute":
        assert run(argv + ["--missing-token", "", "--missing-token", "nan"]) == 0


def test_impute_whose_covariate_fit_overflows_is_an_engine_failure_without_a_warning(
        quad_files, capsys):
    # x ~ y on an x of 1e200: the residual sum of squares overflows to inf,
    # which must not pass for a perfect fit with no imputation variance
    tmp, data, schema = quad_files
    set_cell(data, "x", "1e200")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(impute_args(data, schema, tmp / "o.csv", method="fcs")) == 3
    assert capsys.readouterr().err.startswith("failure: ")
    assert not (tmp / "o.csv").exists()


@pytest.mark.parametrize("command", ["impute", "analyze"])
def test_an_outcome_term_that_overflows_is_a_numeric_failure_without_a_warning(
        quad_files, capsys, command):
    # x^2 of an x of 1e200 overflows to inf: a non-finite matrix, not rank deficiency
    tmp, data, schema = quad_files
    if command == "analyze":
        assert run(impute_args(data, schema, tmp / "imp.csv", m=2)) == 0
        data = tmp / "imp.csv"
    set_cell(data, "x", "1e200")
    argv = (["analyze", "--data", data, "--schema", schema, "--family", "linear",
             "--smodel", "y ~ x + x^2", "--out", tmp / "o.csv"] if command == "analyze"
            else impute_args(data, schema, tmp / "o.csv"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 3
    failure = ("substantive fit failed for imputations [1]" if command == "analyze"
               else "imputation 1 failed after 5 retries")
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"failure: {failure}: {NON_FINITE}")
    assert not (tmp / "o.csv").exists()


@pytest.mark.parametrize("subcommand, flag, formula, term", [
    ("impute", "--smodel", "y ~ x + x", "x"),
    ("impute", "--smodel", "y ~ x*x + x^2", "x^2"),
    ("impute", "--covmodel", "x ~ y + y", "y"),
    ("analyze", "--smodel", "y ~ x + x", "x"),
])
def test_a_formula_that_repeats_a_term_is_refused_naming_its_flag(quad_files, capsys,
                                                                   subcommand, flag, formula,
                                                                   term):
    tmp, data, schema = quad_files
    if subcommand == "analyze":
        assert run(impute_args(data, schema, tmp / "imp.csv", m=2)) == 0
        argv = ["analyze", "--data", tmp / "imp.csv", "--schema", schema, "--family", "linear",
                "--smodel", formula, "--out", tmp / "o.csv"]
    else:
        argv = impute_args(data, schema, tmp / "o.csv")
        if flag == "--smodel":
            argv[argv.index("--smodel") + 1] = formula
        else:
            argv += [flag, formula]
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: argument {flag}: term {term} appears twice")
    assert not (tmp / "o.csv").exists()


def test_impute_negative_seed_names_the_seed_flag(quad_files, capsys):
    tmp, data, schema = quad_files
    assert run(impute_args(data, schema, tmp / "o.csv", seed=-1)) == 2
    assert "--seed: must be >= 0" in capsys.readouterr().err


def test_simulate_negative_seed_names_the_seed_flag(tmp_path, capsys):
    code = run(["simulate", "--scenario", "quad-normal-mcar", "--reps", 1, "--seed", -1,
                "--out", tmp_path / "s.csv"])
    assert code == 2
    assert "--seed: must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("methods", 5), ("methods", [1]), ("reps", 1.5), ("n", "abc"), ("n", 0),
    ("m", 1), ("seed", -1), ("seed", True),
    ("p_obs", "x"), ("dgp", 3), ("variant", ["normal"]), ("mechanism", None), ("name", 7),
    ("variant", "bvnormal"),  # a variant of another study: the cox study has none
    ("methods", []), ("methods", ["cc", "cc"]),
])
def test_simulate_bad_scenario_json_field_is_usage_error(tmp_path, capsys, field, value):
    raw = {"dgp": "cox", "variant": None, "mechanism": "mcar", "n": 200,
           "reps": 2, "m": 2, "methods": ["cc"], "seed": 12, field: value}
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "s.csv"
    assert run(["simulate", "--scenario", cfg, "--out", out]) == 2
    assert f"--scenario: {field} must be" in capsys.readouterr().err
    assert not out.exists()


def test_impute_data_error_under_default_specs_names_the_schema_flag(tmp_path, capsys):
    # an event column without a time column: the default chained-equations
    # specs condition on the cumulative hazard, which needs both
    data = tmp_path / "d.csv"
    data.write_text("x,z,d\n1.0,0.3,1\n,1.2,0\n0.5,-0.4,1\n2.0,0.1,0\n")
    schema = tmp_path / "schema.csv"
    schema.write_text("name,kind,role\nx,continuous,partial_covariate\n"
                      "z,continuous,complete_covariate\nd,binary,event\n")
    code = run(["impute", "--data", data, "--schema", schema, "--method", "fcs",
                "--m", 2, "--out", tmp_path / "o.csv"])
    assert code == 2
    err = capsys.readouterr().err
    assert "--schema: covariate model conditions on _cumhaz" in err
    assert "--covmodel" not in err


@pytest.mark.parametrize("generate, method, given, default", [
    (lambda rng: gen_cox(200, rng), ["--method", "fcs"], "x1 ~ x2 + d",
     "x2 ~ x1 + d + _cumhaz"),
    (lambda rng: gen_interaction("bvnormal", 200, rng),
     ["--method", "smcfcs", "--family", "linear", "--smodel", "y ~ x1 + x2 + x1*x2"],
     "x1 ~ 1", "x2 ~ x1"),
    (lambda rng: gen_interaction("bvnormal", 200, rng), ["--method", "fcs"], "x1 ~ x2",
     "x2 ~ x1 + y"),
], ids=["cox-fcs", "interaction-smcfcs", "interaction-fcs"])
def test_a_covariate_without_its_own_covmodel_gets_its_default_model(tmp_path, generate,
                                                                     method, given, default):
    d = apply_mcar(generate(stream(6, "cli")), 0.7, stream(6, "climask"))
    data, schema = tmp_path / "d.csv", tmp_path / "schema.csv"
    write_csv(d, data)
    schema.write_text("name,kind,role\n" + "".join(
        f"{c.name},{c.kind.value},{c.role.value}\n" for c in d.columns))
    outputs = []
    for covmodels in ([given], [given, default]):
        out = tmp_path / f"o{len(covmodels)}.csv"
        assert run(["impute", "--data", data, "--schema", schema, *method, "--m", 2,
                    "--iter", 3, "--out", out,
                    *(arg for text in covmodels for arg in ("--covmodel", text))]) == 0
        outputs.append((out.read_bytes(), (tmp_path / f"{out.name}.diag.csv").read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("covmodels, message", [
    (["x ~ y", "x ~ 1"], "duplicate covariate spec for x"),
    (["y ~ x"], "covariate spec for non-sampled column 'y'"),
])
def test_a_repeated_or_non_sampled_covmodel_is_refused_naming_the_flag(quad_files, capsys,
                                                                       covmodels, message):
    tmp, data, schema = quad_files
    out = tmp / "o.csv"
    extra = [arg for text in covmodels for arg in ("--covmodel", text)]
    assert run(impute_args(data, schema, out, method="fcs", extra=extra)) == 2
    assert capsys.readouterr().err == f"error: --covmodel: {message}\n"
    assert not out.exists()


def test_schema_that_names_a_column_twice_is_refused_as_a_schema_error(quad_files, capsys):
    tmp, data, schema = quad_files
    schema.write_text(SCHEMA + "y,continuous,outcome\n")
    out = tmp / "o.csv"
    assert run(impute_args(data, schema, out, method="fcs")) == 2
    assert capsys.readouterr().err == "error: --schema: column y is named twice\n"
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    (SCHEMA.replace("partial_covariate", "partial_covariate,extra"),
     "row 2 has 4 cells, expected 3"),
    (SCHEMA + "z\n", "row 4 has 1 cells, expected 3"),
    (SCHEMA.replace("\ny,", "\n\ny,"), "row 3 has 0 cells, expected 3"),
    ("name,kind,role,name\nq,continuous,partial_covariate,x\nq,continuous,outcome,y\n",
     "column 'name' appears twice in the header"),
], ids=["long-row", "short-row", "blank-row", "repeated-header"])
def test_schema_row_of_the_wrong_width_or_repeated_header_name_is_refused(quad_files, capsys,
                                                                          text, message):
    tmp, data, schema = quad_files
    schema.write_text(text)
    out = tmp / "o.csv"
    assert run(impute_args(data, schema, out, method="fcs", m=2)) == 2
    assert capsys.readouterr().err == f"error: --schema: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("covmodel, flag", [((), "--schema"), (("--covmodel", "x ~ y"),
                                                               "--covmodel")])
def test_impute_smcfcs_covariate_model_may_not_condition_on_the_response(quad_files, capsys,
                                                                        covmodel, flag):
    # y is declared a complete covariate, but the outcome model makes it the response
    tmp, data, schema = quad_files
    schema.write_text(SCHEMA.replace("y,continuous,outcome", "y,continuous,complete_covariate"))
    out = tmp / "o.csv"
    assert run(impute_args(data, schema, out, extra=covmodel)) == 2
    assert capsys.readouterr().err == (f"error: {flag}: smcfcs covariate model for x must not "
                                       "condition on outcome-derived column 'y'\n")
    assert not out.exists()


INTERACT_SCHEMA = ("name,kind,role\nx1,continuous,partial_covariate\n"
                   "x2,continuous,partial_covariate\ny,continuous,{y_role}\n")


def interact_files(tmp, y_role):
    """Two partial covariates and y, whose schema role is `y_role`."""
    data, schema = tmp / "interact.csv", tmp / "interact.schema.csv"
    write_csv(apply_mcar(gen_interaction("bvnormal", 200, stream(1, "ci")), 0.7,
                         stream(1, "mask")), data)
    schema.write_text(INTERACT_SCHEMA.format(y_role=y_role))
    return data, schema


def test_a_refused_default_model_names_the_schema_flag_beside_a_given_covmodel(tmp_path,
                                                                               capsys):
    # x2 gets its default smcfcs model, x2 ~ x1 + y, from the schema's roles
    data, schema = interact_files(tmp_path, "complete_covariate")
    out = tmp_path / "o.csv"
    assert run(["impute", "--data", data, "--schema", schema, "--method", "smcfcs",
                "--family", "linear", "--smodel", "y ~ x1 + x2", "--covmodel", "x1 ~ x2",
                "--m", 2, "--out", out]) == 2
    assert capsys.readouterr().err == ("error: --schema: smcfcs covariate model for x2 must "
                                       "not condition on outcome-derived column 'y'\n")
    assert not out.exists()


def test_a_given_covmodel_on_cumhaz_without_time_and_event_names_the_covmodel_flag(
        tmp_path, capsys):
    data, schema = tmp_path / "d.csv", tmp_path / "schema.csv"
    data.write_text("x,z,y\n1.0,0.3,1.2\n,1.2,0.4\n0.5,-0.4,2.2\n2.0,0.1,0.9\n")
    schema.write_text("name,kind,role\nx,continuous,partial_covariate\n"
                      "z,continuous,complete_covariate\ny,continuous,outcome\n")
    assert run(["impute", "--data", data, "--schema", schema, "--method", "fcs", "--m", 2,
                "--covmodel", "x ~ z + _cumhaz", "--out", tmp_path / "o.csv"]) == 2
    assert capsys.readouterr().err == ("error: --covmodel: covariate model conditions on "
                                       "_cumhaz, which needs time and event columns\n")


COVMODELS = {"x1 ~ x2": "x1", "x1 ~ x2 + y": "x1", "x2 ~ x1": "x2", "x2 ~ y": "x2"}


@given(y_role=st.sampled_from(["outcome", "complete_covariate"]),
       covmodels=st.lists(st.sampled_from(sorted(COVMODELS)), unique=True))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_fuzz_a_covariate_model_refusal_names_the_flag_of_the_model_at_fault(
        y_role, covmodels, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("blame")
    data, schema = interact_files(tmp, y_role)
    code, err = run_quietly(["impute", "--data", data, "--schema", schema, "--method", "smcfcs",
                             "--family", "linear", "--smodel", "y ~ x1 + x2", "--m", 1,
                             "--iter", 1, "--out", tmp / "o.csv",
                             *(arg for text in covmodels for arg in ("--covmodel", text))])
    targets = [COVMODELS[text] for text in covmodels]
    if len(set(targets)) < len(targets) or any(text.endswith("y") for text in covmodels):
        assert code == 2 and err.startswith("error: --covmodel: ")
    elif y_role == "complete_covariate" and len(set(targets)) < 2:
        # a partial covariate without a --covmodel gets a default model on y
        assert code == 2 and err.startswith("error: --schema: ")
    else:
        assert code in (0, 3), err


def test_schema_reserves_the_cumhaz_column(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("x,w,d,_cumhaz\n1.0,2.0,1,0.5\n,1.0,0,0.1\n0.5,3.0,1,0.9\n")
    schema = tmp_path / "schema.csv"
    schema.write_text("name,kind,role\nx,continuous,partial_covariate\nw,continuous,time\n"
                      "d,binary,event\n_cumhaz,continuous,complete_covariate\n")
    code = run(["impute", "--data", data, "--schema", schema, "--method", "fcs",
                "--m", 2, "--out", tmp_path / "o.csv"])
    assert code == 2
    assert "--schema: column name _cumhaz is reserved" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["x,1", 'x"1', "x\n1", "x\r1"],
                         ids=["comma", "quote", "newline", "return"])
def test_schema_refuses_a_name_the_csv_writers_would_split(tmp_path, capsys, name):
    # the long CSV's header is written unquoted, so `analyze` could not read it back
    rows = [["name", "kind", "role"], [name, "continuous", "partial_covariate"],
            ["y", "continuous", "outcome"]]
    schema = tmp_path / "schema.csv"
    with open(schema, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    data = tmp_path / "d.csv"
    with open(data, "w", newline="") as fh:
        csv.writer(fh).writerows([[name, "y"], ["1.0", "2.0"], ["", "3.0"], ["2.0", "4.0"]])
    out = tmp_path / "o.csv"
    code = run(["impute", "--data", data, "--schema", schema, "--method", "fcs",
                "--m", 2, "--out", out])
    assert code == 2
    assert (f"error: --schema: column name {name!r} contains a comma, quote or line break"
            in capsys.readouterr().err)
    assert not out.exists()


def test_impute_fcs_with_an_event_but_no_time_column_is_usage_error(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("x,d\n1.0,1\n,0\n0.5,1\n2.0,0\n")
    schema = tmp_path / "schema.csv"
    schema.write_text("name,kind,role\nx,continuous,partial_covariate\nd,binary,event\n")
    out = tmp_path / "o.csv"
    code = run(["impute", "--data", data, "--schema", schema, "--method", "fcs",
                "--m", 2, "--out", out])
    assert code == 2
    assert "_cumhaz, which needs time and event columns" in capsys.readouterr().err
    assert not out.exists()


def test_long_csv_blocks_come_in_ascending_imp_order(tmp_path):
    data = tmp_path / "long.csv"
    data.write_text("_imp,x,y\n2,20.0,1.0\n1,10.0,2.0\n2,21.0,3.0\n1,11.0,4.0\n")
    schema = tmp_path / "schema.csv"
    schema.write_text(SCHEMA)
    first, second = _read_long_csv(data, read_schema(schema))
    assert list(first.column("x").values) == [10.0, 11.0]
    assert list(first.column("y").values) == [2.0, 4.0]
    assert list(second.column("x").values) == [20.0, 21.0]


def test_long_csv_splits_unsorted_blocks_with_gaps_in_imp(tmp_path):
    data = tmp_path / "long.csv"
    data.write_text("_imp,x,y\n7,70.0,1.0\n3,30.0,2.0\n7,71.0,3.0\n"
                    "3,31.0,4.0\n7,72.0,5.0\n3,32.0,6.0\n")
    schema = tmp_path / "schema.csv"
    schema.write_text(SCHEMA)
    first, second = _read_long_csv(data, read_schema(schema))
    assert first.column("x").values.tolist() == [30.0, 31.0, 32.0]
    assert first.column("y").values.tolist() == [2.0, 4.0, 6.0]
    assert second.column("x").values.tolist() == [70.0, 71.0, 72.0]
    assert second.column("y").values.tolist() == [1.0, 3.0, 5.0]


def test_long_csv_unequal_unsorted_blocks_name_the_shortest_and_longest(tmp_path, capsys):
    data = tmp_path / "long.csv"
    data.write_text("_imp,x,y\n7,0.0,1.0\n1,0.0,1.0\n3,0.0,1.0\n7,1.0,2.0\n"
                    "1,1.0,2.0\n7,2.0,3.0\n")
    schema = tmp_path / "schema.csv"
    schema.write_text(SCHEMA)
    code = run(["analyze", "--data", data, "--schema", schema, "--family", "linear",
                "--smodel", "y ~ x", "--out", tmp_path / "pooled.csv"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --data: imputations differ in length: _imp 3 has 1 rows, _imp 7 has 3\n")


def test_long_csv_with_only_a_header_has_no_imputations(tmp_path, capsys):
    data = tmp_path / "long.csv"
    data.write_text("_imp,x,y\n")
    schema = tmp_path / "schema.csv"
    schema.write_text(SCHEMA)
    assert _read_long_csv(data, read_schema(schema)) == []
    code = run(["analyze", "--data", data, "--schema", schema, "--family", "linear",
                "--smodel", "y ~ x", "--out", tmp_path / "pooled.csv"])
    assert code == 2
    assert "pooling needs at least 2 imputations" in capsys.readouterr().err


BOM = b"\xef\xbb\xbf"


def test_schema_file_with_a_utf8_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(SCHEMA)
    marked.write_bytes(BOM + SCHEMA.encode())
    assert read_schema(marked) == read_schema(plain)


def test_scenario_json_with_a_utf8_byte_order_mark(tmp_path):
    scenario = tmp_path / "tiny.json"
    scenario.write_bytes(BOM + json.dumps({
        "dgp": "quadratic", "variant": "normal", "mechanism": "mcar",
        "n": 50, "reps": 1, "m": 2, "methods": ["cc"]}).encode())
    assert run(["simulate", "--scenario", scenario, "--out", tmp_path / "s.csv"]) == 0
    assert (tmp_path / "s.csv").read_text().startswith("scenario,method")


def test_long_csv_with_a_utf8_byte_order_mark(tmp_path):
    data = tmp_path / "long.csv"
    data.write_bytes(BOM + b"_imp,x,y\n1,10.0,2.0\n2,20.0,1.0\n")
    schema = tmp_path / "schema.csv"
    schema.write_text(SCHEMA)
    first, second = _read_long_csv(data, read_schema(schema))
    assert first.column("x").values.tolist() == [10.0]
    assert second.column("x").values.tolist() == [20.0]


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


# ---------------------------------------------------------------------------
# usage errors: exit code 2 and one error line, argparse's own errors included

@pytest.mark.parametrize("argv, flag", [
    (["impute", "--data", "d.csv", "--schema", "s.csv", "--method", "fcs", "--m", "abc",
      "--out", "o.csv"], "--m"),
    (["impute", "--data", "d.csv", "--schema", "s.csv", "--method", "fcs", "--m", "0",
      "--out", "o.csv"], "--m"),
    (["impute", "--data", "d.csv", "--schema", "s.csv", "--method", "fcs"], "--out"),
    ([], "subcommand"),
    (["analyze", "--data", "d.csv", "--schema", "s.csv", "--family", "linear",
      "--smodel", "y ~ x", "--level", "2", "--out", "p.csv"], "--level"),
    (["impute", "--data", "d.csv", "--schema", "s.csv", "--method", "smcfcs",
      "--family", "linear", "--smodel", "y ~ + x", "--out", "o.csv"], "--smodel"),
])
def test_usage_error_returns_2_with_one_error_line_naming_the_flag(capsys, argv, flag):
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and flag in lines[0]


@pytest.mark.parametrize("out", ["missing_dir/o.csv", "adir", "adir/", ""])
@pytest.mark.parametrize("argv", [
    ["impute", "--data", "absent.csv", "--schema", "absent.csv", "--method", "fcs"],
    ["analyze", "--data", "absent.csv", "--schema", "absent.csv", "--family", "linear",
     "--smodel", "y ~ x"],
    ["simulate", "--scenario", "absent.json"],
])
def test_out_is_checked_before_any_input_is_read(tmp_path, monkeypatch, capsys, argv, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    assert main(argv + ["--out", out]) == 2
    assert capsys.readouterr().err.startswith(
        "error: argument --out: must name a file in an existing directory")


@pytest.mark.parametrize("family, smodel", [
    ("cox", "y ~ x"),
    ("cox", "y ~ x1 + x2"),
    ("linear", "surv(w,d) ~ x1"),
])
def test_impute_outcome_family_mismatch_names_the_smodel_flag(quad_files, capsys,
                                                             family, smodel):
    tmp, data, schema = quad_files
    argv = impute_args(data, schema, tmp / "o.csv")
    argv[argv.index("--family") + 1] = family
    argv[argv.index("--smodel") + 1] = smodel
    assert run(argv) == 2
    assert ("--smodel: formula response does not match the outcome family"
            in capsys.readouterr().err)


def test_impute_smcfcs_with_a_partial_covariate_named_psi(tmp_path):
    rng = np.random.default_rng(11)
    n = 80
    psi = (rng.random(n) < 0.5).astype(float)
    x2 = rng.normal(size=n)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(psi + x2)))).astype(float)
    lines = ["_psi,x2,y"] + [f"{'' if i % 4 == 0 else repr(a)},{b!r},{c!r}"
                             for i, (a, b, c) in enumerate(zip(psi.tolist(), x2.tolist(),
                                                               y.tolist()))]
    data = tmp_path / "d.csv"
    data.write_text("\n".join(lines) + "\n")
    schema = tmp_path / "schema.csv"
    schema.write_text("name,kind,role\n_psi,binary,partial_covariate\n"
                      "x2,continuous,complete_covariate\ny,binary,outcome\n")
    out = tmp_path / "o.csv"
    assert run(["impute", "--data", data, "--schema", schema, "--method", "smcfcs",
                "--family", "logistic", "--smodel", "y ~ _psi + x2", "--m", 2, "--iter", 3,
                "--out", out]) == 0
    rows = read_rows(out)
    assert {r["_psi"] for r in rows} <= {"0.0", "1.0"}


def test_simulate_cox_scenario_json_without_methods_runs_the_cox_methods(tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text('{"dgp": "cox", "variant": null, "mechanism": "mcar", "n": 200,'
                   ' "reps": 2, "m": 2}')
    out = tmp_path / "s.csv"
    assert run(["simulate", "--scenario", cfg, "--out", out]) == 0
    assert {r["method"] for r in read_rows(out)} == {"fcs_linear", "smcfcs"}


@pytest.mark.parametrize("flag, content, message", [
    ("--schema", b"\xff\xfe", "can't decode byte 0xff"),
    ("--schema", b"name,kind,role\nx,continuous," + b"a" * 200_000, "field larger than"),
    ("--scenario", b"\xff\xfe", "bad JSON: 'utf-8' codec can't decode"),
    ("--scenario", b"[" * 100_000, "bad JSON: maximum recursion depth exceeded"),
    ("--scenario", None, "Is a directory"),
], ids=["schema-not-utf8", "schema-huge-field", "scenario-not-utf8", "scenario-too-deep",
        "scenario-directory"])
def test_unreadable_schema_or_scenario_file_is_usage_error(tmp_path, capsys, flag, content,
                                                           message):
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    if flag == "--schema":
        data = tmp_path / "d.csv"
        data.write_text("x,y\n1.0,2.0\n,1.0\n")
        argv = ["impute", "--data", data, "--schema", path, "--method", "fcs"]
    else:
        argv = ["simulate", "--scenario", path]
    assert run(argv + ["--out", tmp_path / "o.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ") and message in err

# ---------------------------------------------------------------------------
# fuzz: malformed flag values, schema files, CSV cells and scenario JSON give
# exit code 2 or 3 and never an exception, SystemExit included

def run_quietly(argv):
    """(exit code, stderr) of main(argv); SystemExit fails the test."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = run(argv)
    except SystemExit as exc:
        pytest.fail(f"main raised SystemExit({exc.code}) for {argv!r}")
    return code, err.getvalue()


def rejected_by(convert):
    def rejects(text):
        try:
            convert(text)
        except ValueError:  # FormulaError included
            return True
        return False
    return rejects


TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=30)
BAD_COUNT = st.one_of(st.integers(max_value=0).map(str), TEXT.filter(rejected_by(int)))
BAD_FORMULA = TEXT.filter(rejected_by(parse_formula))
BAD_FLAG_VALUES = {
    ("impute", "--m"): BAD_COUNT,
    ("impute", "--iter"): BAD_COUNT,
    ("impute", "--seed"): st.one_of(st.integers(max_value=-1).map(str),
                                    TEXT.filter(rejected_by(int))),
    ("impute", "--method"): TEXT.filter(lambda t: t not in ("fcs", "smcfcs")),
    ("impute", "--family"): TEXT.filter(lambda t: t not in ("linear", "logistic", "cox")),
    ("impute", "--smodel"): BAD_FORMULA,
    ("impute", "--covmodel"): st.one_of(BAD_FORMULA, st.just("surv(w,d) ~ x")),
    ("analyze", "--level"): st.one_of(
        st.floats().filter(lambda p: not 0.0 < p < 1.0).map(repr),
        TEXT.filter(rejected_by(float))),
    ("analyze", "--smodel"): BAD_FORMULA,
    ("simulate", "--reps"): BAD_COUNT,
    ("simulate", "--threads"): BAD_COUNT,
    ("simulate", "--seed"): st.integers(max_value=-1).map(str),
}
VALID_ARGV = {
    "impute": ["impute", "--data", "d.csv", "--schema", "s.csv", "--method", "smcfcs",
               "--family", "linear", "--smodel", "y ~ x", "--out", "o.csv"],
    "analyze": ["analyze", "--data", "d.csv", "--schema", "s.csv", "--family", "linear",
                "--smodel", "y ~ x", "--out", "p.csv"],
    "simulate": ["simulate", "--scenario", "quad-normal-mcar", "--out", "s.csv"],
}


@given(case=st.sampled_from(sorted(BAD_FLAG_VALUES)).flatmap(
    lambda key: st.tuples(st.just(key), BAD_FLAG_VALUES[key])))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_fuzz_malformed_flag_value_is_a_usage_error(case):
    (subcommand, flag), value = case
    code, err = run_quietly(VALID_ARGV[subcommand] + [flag, value])
    assert code == 2
    assert err.startswith("error: ") and flag in err


SCHEMA_CELL = st.one_of(
    st.sampled_from(["x", "y", "_imp", "_cumhaz", "continuous", "binary",
                     "partial_covariate", "outcome"]),
    TEXT,
)


@st.composite
def schema_with_a_bad_kind(draw):
    rows = draw(st.lists(st.lists(SCHEMA_CELL, max_size=4), max_size=4))
    bad_kind = draw(TEXT.filter(lambda t: t not in ("continuous", "binary")))
    rows.insert(draw(st.integers(0, len(rows))), ["x", bad_kind, "outcome"])
    text = io.StringIO()
    csv.writer(text).writerows([["name", "kind", "role"], *rows])
    return text.getvalue().encode()


@given(content=st.one_of(st.binary(max_size=60), schema_with_a_bad_kind()))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_fuzz_malformed_schema_file_is_a_usage_error(content, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("schema")
    (tmp / "d.csv").write_text("x,y\n1.0,2.0\n,1.0\n2.0,0.5\n")
    (tmp / "schema.csv").write_bytes(content)
    code, err = run_quietly(["impute", "--data", tmp / "d.csv", "--schema", tmp / "schema.csv",
                             "--method", "fcs", "--m", 1, "--out", tmp / "o.csv"])
    assert code == 2
    assert err.startswith("error: --schema: ")


BAD_CELL = TEXT.filter(lambda t: t not in DEFAULT_MISSING_TOKENS).filter(rejected_by(float))
DATA_CELL = st.one_of(st.floats().map(repr), st.sampled_from(DEFAULT_MISSING_TOKENS), BAD_CELL)


@st.composite
def csv_with_a_bad_cell(draw, header):
    rows = draw(st.lists(st.lists(DATA_CELL, min_size=len(header), max_size=len(header)),
                         min_size=1, max_size=5))
    row = draw(st.integers(0, len(rows) - 1))
    rows[row][draw(st.integers(0, len(header) - 1))] = draw(BAD_CELL)
    text = io.StringIO()
    csv.writer(text).writerows([header, *rows])
    return text.getvalue().encode()


@given(subcommand=st.sampled_from(["impute", "analyze"]), data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_fuzz_malformed_data_file_is_a_usage_error(subcommand, data, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("data")
    (tmp / "schema.csv").write_text(SCHEMA)
    header = ["x", "y"] if subcommand == "impute" else ["_imp", "x", "y"]
    content = data.draw(st.one_of(st.binary(max_size=60), csv_with_a_bad_cell(header)))
    (tmp / "d.csv").write_bytes(content)
    argv = [subcommand, "--data", tmp / "d.csv", "--schema", tmp / "schema.csv",
            "--out", tmp / "o.csv"]
    argv += (["--method", "fcs", "--m", 1] if subcommand == "impute"
             else ["--family", "linear", "--smodel", "y ~ x"])
    code, err = run_quietly(argv)
    assert code == 2
    assert err.startswith("error: ")


JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), TEXT),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
)
NOT_AN_INTEGER = JSON.filter(lambda v: isinstance(v, bool) or not isinstance(v, int))
NOT_A_STRING = JSON.filter(lambda v: v is not None and not isinstance(v, str))
BAD_SCENARIO_FIELDS = {
    "n": st.one_of(NOT_AN_INTEGER, st.integers(max_value=0)),
    "reps": st.one_of(NOT_AN_INTEGER, st.integers(max_value=0)),
    "m": st.one_of(NOT_AN_INTEGER, st.integers(max_value=1)),
    "seed": st.one_of(NOT_AN_INTEGER, st.integers(max_value=-1)),
    "p_obs": JSON.filter(lambda v: isinstance(v, bool) or not isinstance(v, (int, float))
                         or not 0.0 < v < 1.0),
    "dgp": st.one_of(NOT_A_STRING, TEXT.filter(lambda t: t not in ("quadratic", "interaction",
                                                                   "cox"))),
    "variant": st.one_of(NOT_A_STRING, TEXT),
    "mechanism": st.one_of(NOT_A_STRING, TEXT.filter(lambda t: t != "mcar")),
    "name": st.one_of(NOT_A_STRING, st.sampled_from(["a,b", 'a"b', "a\nb"])),
    "methods": st.one_of(NOT_A_STRING.filter(lambda v: not isinstance(v, list)),
                         st.lists(JSON.filter(lambda v: v not in ("cc", "fcs_linear", "smcfcs")),
                                  min_size=1, max_size=3),
                         st.just([]), st.sampled_from(["cc", "fcs_linear", "smcfcs"]).map(
                             lambda method: [method, method])),
}


GOOD_SCENARIO = {"dgp": "cox", "variant": None, "mechanism": "mcar", "n": 50, "reps": 1,
                 "m": 2, "methods": ["cc"]}


def scenario_with(field, value):
    return json.dumps({**GOOD_SCENARIO, field: value}).encode()


@st.composite
def scenario_with_a_bad_field(draw):
    field = draw(st.sampled_from(sorted(BAD_SCENARIO_FIELDS)) | TEXT.filter(
        lambda t: t not in GOOD_SCENARIO and t not in ("seed", "p_obs", "name")))
    return scenario_with(field, draw(BAD_SCENARIO_FIELDS.get(field, JSON)))


@given(content=st.one_of(st.binary(max_size=60), JSON.map(json.dumps).map(str.encode),
                         scenario_with_a_bad_field()))
# each field's boundary values, which a draw spread over every field seldom reaches
@example(content=scenario_with("methods", []))
@example(content=scenario_with("methods", ["cc", "cc"]))
@example(content=scenario_with("m", 1))
@example(content=scenario_with("n", 0))
@example(content=scenario_with("reps", 0))
@example(content=scenario_with("seed", -1))
@example(content=scenario_with("p_obs", 1.0))
@example(content=scenario_with("p_obs", True))
@example(content=scenario_with("name", "a,b"))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_fuzz_malformed_scenario_json_is_a_usage_error(content, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("scenario")
    (tmp / "scenario.json").write_bytes(content)
    code, err = run_quietly(["simulate", "--scenario", tmp / "scenario.json",
                             "--out", tmp / "s.csv"])
    assert code == 2
    assert err.startswith("error: --scenario: ")
    assert not (tmp / "s.csv").exists()


SMODEL_NAME = st.sampled_from(["x", "z", "y", "b", "t", "e", "q", "w"])  # no column q or w
SMODEL_TERM = st.one_of(
    st.sampled_from(["1", "-1"]),
    st.lists(st.tuples(SMODEL_NAME, st.sampled_from(["", "^2", "^3"])).map("".join),
             min_size=1, max_size=3).map("*".join),
)
SMODEL = st.tuples(
    st.one_of(SMODEL_NAME, st.tuples(SMODEL_NAME, SMODEL_NAME).map("surv({0[0]},{0[1]})".format)),
    st.lists(SMODEL_TERM, min_size=1, max_size=3).map(" + ".join),
).map(" ~ ".join)


@pytest.fixture(scope="module")
def smodel_files(tmp_path_factory):
    """A 40-row dataset with every column kind and role, its schema, and two
    completed copies of it in the long format `analyze` reads."""
    tmp = tmp_path_factory.mktemp("smodel")
    rng = np.random.default_rng(24)
    n = 40
    full, observed = np.ones(n, dtype=bool), rng.random(n) < 0.7
    x = rng.normal(size=n)
    columns = [
        ("x", VariableKind.CONTINUOUS, VariableRole.PARTIAL_COVARIATE, x),
        ("z", VariableKind.CONTINUOUS, VariableRole.COMPLETE_COVARIATE, rng.normal(size=n)),
        ("y", VariableKind.CONTINUOUS, VariableRole.OUTCOME, x + rng.normal(size=n)),
        ("b", VariableKind.BINARY, VariableRole.OUTCOME, (rng.random(n) < 0.5).astype(float)),
        ("t", VariableKind.CONTINUOUS, VariableRole.TIME, rng.exponential(size=n)),
        ("e", VariableKind.BINARY, VariableRole.EVENT, (rng.random(n) < 0.7).astype(float)),
    ]
    complete = Dataset(tuple(Column(name, kind, role, values, full)
                             for name, kind, role, values in columns))
    write_csv(Dataset(tuple(
        Column(c.name, c.kind, c.role, np.where(observed, c.values, np.nan), observed)
        if c.name == "x" else c for c in complete.columns)), tmp / "d.csv")
    _write_long_csv(tmp / "long.csv", [complete, complete], complete.names)
    (tmp / "schema.csv").write_text("name,kind,role\n" + "".join(
        f"{name},{kind.value},{role.value}\n" for name, kind, role, _ in columns))
    return tmp


@given(family=st.sampled_from(["linear", "logistic", "cox"]), smodel=SMODEL)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_fuzz_smodel_over_present_and_absent_columns_exits_with_a_code(smodel_files, family,
                                                                       smodel):
    tmp = smodel_files
    flags = ["--schema", tmp / "schema.csv", "--family", family, "--smodel", smodel]
    for argv in (["analyze", "--data", tmp / "long.csv", "--out", tmp / "p.csv"],
                 ["impute", "--data", tmp / "d.csv", "--method", "smcfcs", "--m", 2,
                  "--iter", 1, "--out", tmp / "o.csv"]):
        code, _ = run_quietly(argv + flags)
        assert code in (0, 2, 3)
