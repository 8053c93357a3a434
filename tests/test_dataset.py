import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcimpute.dataset import (
    CHUNK_ROWS,
    Column,
    DataError,
    Dataset,
    VariableKind,
    VariableRole,
    atomic_write_text,
    format_values,
    missingness_order,
    read_csv,
    write_csv,
    write_table,
)

C, B = VariableKind.CONTINUOUS, VariableKind.BINARY
PART, COMP, OUT = (
    VariableRole.PARTIAL_COVARIATE,
    VariableRole.COMPLETE_COVARIATE,
    VariableRole.OUTCOME,
)


def make_dataset(cols):
    return Dataset(tuple(Column(*c) for c in cols))


def simple_schema():
    return [("a", C, PART), ("b", B, PART), ("y", C, OUT)]


def test_read_csv_parses_missing_tokens(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,y\n1.5,,0\n2.0,1,3\n")
    d = read_csv(path, simple_schema(), missing_tokens={""})
    assert d.n == 2
    a = d.column("a")
    assert a.values[0] == 1.5 and a.observed[0]
    b = d.column("b")
    assert np.isnan(b.values[0]) and not b.observed[0]
    assert b.values[1] == 1.0 and b.observed[1]


def test_read_csv_skips_a_utf8_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with one
    path = tmp_path / "d.csv"
    path.write_bytes(b"\xef\xbb\xbfa,b,y\n1.5,,0\n2.0,1,3\n")
    d = read_csv(path, simple_schema(), missing_tokens={""})
    assert d.names == ("a", "b", "y")
    assert d.column("a").values.tolist() == [1.5, 2.0]


@pytest.mark.parametrize("text, column", [
    ("a,b,y\n1.5,,0\ninf,1,3\n", "a"),
    ("a,b,y\n1.5,,0\n-Infinity,1,3\n", "a"),
    ("a,b,y\n1.5,,-inf\n2.0,1,3\n", "y"),
])
def test_read_csv_refuses_an_infinite_observed_cell(tmp_path, text, column):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=f"^column {column}: an observed value is infinite$"):
        read_csv(path, simple_schema())


def test_read_csv_missing_in_outcome_rejected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,y\n1.0,0,NA\n")
    with pytest.raises(DataError):
        read_csv(path, simple_schema())


def test_read_csv_binary_out_of_range(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,y\n1.0,2,0.5\n")
    with pytest.raises(DataError):
        read_csv(path, simple_schema())


def test_read_csv_unknown_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,y,zzz\n1.0,0,0.5,1\n")
    with pytest.raises(DataError, match="unknown column"):
        read_csv(path, simple_schema())


def test_read_csv_unparseable_cell(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,y\nhello,0,0.5\n")
    with pytest.raises(DataError, match="unparseable"):
        read_csv(path, simple_schema())


@st.composite
def datasets(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
    a_vals = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
    a_obs = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    a_vals = np.where(a_obs, a_vals, np.nan)
    b_vals = np.array([draw(st.sampled_from([0.0, 1.0])) for _ in range(n)])
    b_obs = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    b_vals = np.where(b_obs, b_vals, np.nan)
    y_vals = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
    return make_dataset([
        ("a", C, PART, a_vals, a_obs),
        ("b", B, PART, b_vals, b_obs),
        ("y", C, OUT, y_vals, np.ones(n, dtype=bool)),
    ])


@given(d=datasets())
@settings(max_examples=60, deadline=None)
def test_write_read_round_trip_bit_exact(d, tmp_path_factory):
    path = tmp_path_factory.mktemp("rt") / "d.csv"
    write_csv(d, path)
    back = read_csv(path, [(c.name, c.kind, c.role) for c in d.columns])
    for col, col2 in zip(d.columns, back.columns):
        assert np.array_equal(col.observed, col2.observed)
        assert np.array_equal(col.values, col2.values, equal_nan=True)


# values whose repr must survive a write and a read-back bit for bit
EXTREMES = (-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308)


@given(
    values=st.lists(
        st.one_of(st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False)),
        min_size=1, max_size=12),
    observed=st.lists(st.booleans(), min_size=12, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_round_trip_keeps_extreme_values_and_missing_cells(values, observed, tmp_path_factory):
    n = len(values)
    obs = np.array(observed[:n])
    a = np.where(obs, values, np.nan)
    d = make_dataset([("a", C, PART, a, obs), ("y", C, OUT, values, np.ones(n, dtype=bool))])
    path = tmp_path_factory.mktemp("rt") / "d.csv"
    write_csv(d, path)
    back = read_csv(path, [(c.name, c.kind, c.role) for c in d.columns])
    assert np.array_equal(back.column("a").observed, obs)
    for name in ("a", "y"):
        # bit patterns, so -0.0 and 0.0 differ
        assert d.column(name).values.tobytes() == back.column(name).values.tobytes()


def test_one_column_round_trip_keeps_a_missing_cell(tmp_path):
    obs = np.array([True, False, True])
    d = make_dataset([("a", C, PART, np.array([1.5, np.nan, -2.0]), obs)])
    path = tmp_path / "d.csv"
    write_csv(d, path)
    assert path.read_text() == 'a\n1.5\n""\n-2.0\n'
    back = read_csv(path, [("a", C, PART)])
    assert np.array_equal(back.column("a").observed, obs)
    assert back.column("a").values.tobytes() == d.column("a").values.tobytes()
    # a blank line in a data file stays an error
    path.write_text("a\n1.5\n\n-2.0\n")
    with pytest.raises(DataError, match="row 3 has 0 cells, expected 1"):
        read_csv(path, [("a", C, PART)])


def test_read_csv_rejects_repeated_header_name(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,a,b,y\n1.0,2.0,0,0.5\n")
    with pytest.raises(DataError, match="'a' appears twice"):
        read_csv(path, simple_schema())


def test_read_csv_row_numbers_run_across_chunks(tmp_path):
    rows = ["1.0,0,0.5"] * (CHUNK_ROWS + 3)
    rows[CHUNK_ROWS + 1] = "1.0,0"
    path = tmp_path / "d.csv"
    path.write_text("a,b,y\n" + "\n".join(rows) + "\n")
    with pytest.raises(DataError, match=f"row {CHUNK_ROWS + 3} has 2 cells, expected 3"):
        read_csv(path, simple_schema())
    rows[CHUNK_ROWS + 1] = "1.0,0,oops"
    path.write_text("a,b,y\n" + "\n".join(rows) + "\n")
    with pytest.raises(DataError, match=f"row {CHUNK_ROWS + 3}: unparseable cell 'oops' in column y"):
        read_csv(path, simple_schema())


@pytest.mark.parametrize("cell", ["nan", "NaN", "-nan"])
def test_read_csv_refuses_a_nan_cell_unless_it_is_a_missing_token(tmp_path, cell):
    # the NaN lands in the second chunk, after a first chunk that holds tokens
    rows = ["NA,0,0.5"] * (CHUNK_ROWS + 3)
    rows[CHUNK_ROWS + 1] = f"{cell},0,0.5"
    path = tmp_path / "d.csv"
    path.write_text("a,b,y\n" + "\n".join(rows) + "\n")
    with pytest.raises(DataError, match=f"row {CHUNK_ROWS + 3}: unparseable cell '{cell}' "
                                        "in column a: not a number or a missing token$"):
        read_csv(path, simple_schema())
    d = read_csv(path, simple_schema(), missing_tokens=("NA", cell))
    assert not d.column("a").observed.any()


def test_read_csv_numeric_missing_token(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,y\n-99,1,0.5\n2.0,-99,3\n")
    d = read_csv(path, simple_schema(), missing_tokens=("-99",))
    assert list(d.column("a").observed) == [False, True]
    assert list(d.column("b").observed) == [True, False]


def test_read_csv_header_only_gives_empty_dataset(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,y\n")
    assert read_csv(path, simple_schema()).n == 0


def test_read_csv_undecodable_bytes_are_a_data_error(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b"a,b,y\n\xff\xfe,0,0.5\n")
    with pytest.raises(DataError):
        read_csv(path, simple_schema())


def test_write_table_writes_a_str_as_it_is_and_a_number_by_its_repr(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ("kind", "n", "value"), [("a", 3, 0.1), ("", -2, float("nan"))],
                blocks=[[["b", "c"], ["1", "2"], format_values(np.array([1e-300, -0.0]))]])
    assert path.read_text() == "kind,n,value\na,3,0.1\n,-2,nan\nb,1,1e-300\nc,2,-0.0\n"


def test_atomic_write_text_failing_chunks_leave_no_file(tmp_path):
    def chunks():
        yield "a,b\n"
        yield "1,2\n"
        raise RuntimeError("formatting failed")

    target = tmp_path / "out.csv"
    with pytest.raises(RuntimeError, match="formatting failed"):
        atomic_write_text(target, chunks())
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_text_joins_chunks(tmp_path):
    target = tmp_path / "out.csv"
    atomic_write_text(target, iter(["a,b\n", "1,2\n"]))
    assert target.read_text() == "a,b\n1,2\n"
    atomic_write_text(target, "whole\n")
    assert target.read_text() == "whole\n"


def test_atomic_write_text_gives_the_mode_of_a_new_file_under_the_umask(tmp_path):
    target = tmp_path / "out.csv"
    previous = os.umask(0o022)
    try:
        atomic_write_text(target, "a\n")
        assert target.stat().st_mode & 0o777 == 0o644
        os.umask(0o077)
        atomic_write_text(target, "b\n")  # replacing a file applies the umask again
        assert target.stat().st_mode & 0o777 == 0o600
    finally:
        os.umask(previous)


def test_records_that_hold_arrays_compare_by_identity():
    a, b = (Column("x", C, PART, np.zeros(3), np.ones(3, dtype=bool)) for _ in range(2))
    assert a == a and a != b
    assert len({a, b, a}) == 2  # hashable, by identity


# a completed view is Dataset.with_values, as the engines build their results


def test_completed_view_no_missing_identity():
    d = make_dataset([("a", C, PART, [1.0, 2.0], [True, True])])
    v = d.with_values({})
    assert np.array_equal(v.column("a").values, [1.0, 2.0])


def test_completed_view_fills_and_keeps_mask():
    d = make_dataset([("a", C, PART, [1.0, np.nan], [True, False])])
    v = d.with_values({"a": [1.0, 3.2]})
    assert v.column("a").values[1] == 3.2
    assert not v.column("a").observed[1]
    assert not any(np.isnan(c.values).any() for c in v.columns)


def test_completed_view_shape_mismatch():
    d = make_dataset([("a", C, PART, [1.0, np.nan], [True, False])])
    with pytest.raises(DataError):
        d.with_values({"a": [1.0]})
    with pytest.raises(DataError):
        d.with_values({"a": [1.0, 2.0, 3.0]})


def test_missingness_order_sorts_by_missing_count():
    n = 12
    x1 = np.full(n, np.nan)
    x1[:2] = 1.0  # 10 missing
    x2 = np.full(n, 1.0)
    x2[:3] = np.nan  # 3 missing
    d = make_dataset([
        ("x1", C, PART, x1, ~np.isnan(x1)),
        ("x2", C, PART, x2, ~np.isnan(x2)),
    ])
    assert missingness_order(d) == ["x2", "x1"]


def test_missingness_order_tie_keeps_schema_order():
    d = make_dataset([
        ("x1", C, PART, [np.nan, 1.0], [False, True]),
        ("x2", C, PART, [1.0, np.nan], [True, False]),
    ])
    assert missingness_order(d) == ["x1", "x2"]


def test_missingness_order_of_a_dataset_with_no_partial_covariate_is_empty():
    d = make_dataset([("z", C, COMP, [1.0, 2.0], [True, True]),
                      ("y", C, OUT, [0.5, 1.5], [True, True])])
    assert missingness_order(d) == []


def test_missingness_order_single():
    d = make_dataset([("x", C, PART, [np.nan], [False])])
    assert missingness_order(d) == ["x"]


def test_event_column_must_be_binary():
    with pytest.raises(DataError):
        make_dataset([("d", B, VariableRole.EVENT, [0.0, 2.0], [True, True])])


def test_time_column_strictly_positive():
    with pytest.raises(DataError):
        make_dataset([("w", C, VariableRole.TIME, [1.0, 0.0], [True, True])])


def test_a_column_checks_its_binary_values_when_built():
    with pytest.raises(DataError, match=r"binary column b contains values outside \{0, 1\}"):
        Column("b", B, PART, np.array([0.0, 2.0]), np.array([True, True]))
    # an unobserved but filled cell, as in a completed view, is checked too
    with pytest.raises(DataError, match="outside"):
        Column("b", B, PART, np.array([1.0, 0.5]), np.array([True, False]))


def test_a_column_checks_its_times_when_built():
    for bad in (0.0, -1.0):
        with pytest.raises(DataError, match="time column w must be strictly positive"):
            Column("w", C, VariableRole.TIME, np.array([1.0, bad]), np.array([True, True]))


def test_complete_roles_forbid_missing():
    with pytest.raises(DataError):
        make_dataset([("z", C, COMP, [1.0, np.nan], [True, False])])


def test_duplicate_names_rejected():
    with pytest.raises(DataError):
        make_dataset([
            ("a", C, PART, [1.0], [True]),
            ("a", C, PART, [1.0], [True]),
        ])


def test_with_values_guards_observed_cells():
    d = make_dataset([("a", C, PART, [1.0, np.nan], [True, False])])
    out = d.with_values({"a": np.array([1.0, 9.0])})
    assert out.column("a").values[1] == 9.0
    with pytest.raises(DataError):
        d.with_values({"a": np.array([2.0, 9.0])})
