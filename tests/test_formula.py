import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smcimpute.dataset import Column, Dataset, VariableKind, VariableRole
from smcimpute.formula import (
    FormulaError,
    ModelFormula,
    Term,
    design_matrix,
    parse_formula,
    response_arrays,
    term_column_name,
)

C = VariableKind.CONTINUOUS
PART, OUT = VariableRole.PARTIAL_COVARIATE, VariableRole.OUTCOME


def complete(named_values):
    cols = []
    for name, vals in named_values.items():
        vals = np.asarray(vals, dtype=float)
        role = OUT if name == "y" else PART
        cols.append(Column(name, C, role, vals, np.ones(vals.size, dtype=bool)))
    return Dataset(tuple(cols))


def test_parse_quadratic():
    f = parse_formula("y ~ x + x^2")
    assert f.response == "y"
    assert f.intercept
    assert f.terms == (Term((("x", 1),)), Term((("x", 2),)))


def test_parse_interaction():
    f = parse_formula("y ~ x1 + x2 + x1*x2")
    assert f.terms[-1] == Term((("x1", 1), ("x2", 1)))


def test_parse_survival_pair():
    f = parse_formula("surv(w,d) ~ x1 + x2")
    assert f.response == ("w", "d")
    assert f.is_survival and not f.intercept


def test_whitespace_insensitive():
    assert parse_formula("y~x+x^2") == parse_formula("  y ~ x  +  x ^ 2 ")


def test_powers_consolidated():
    assert parse_formula("y ~ x*x") == parse_formula("y ~ x^2")


def test_factor_order_canonical():
    assert parse_formula("y ~ b*a") == parse_formula("y ~ a*b")


@pytest.mark.parametrize("text, term", [
    ("y ~ x + x", "x"),
    ("y ~ x*x + x^2", "x^2"),
    ("y ~ a*b + x + b*a - 1", "a*b"),
    ("x ~ y + y", "y"),
    ("surv(w,d) ~ x1 + x2 + x1", "x1"),
])
def test_a_repeated_term_is_refused_by_name(text, term):
    # two equal terms would give two equal design columns, and every fit would fail
    with pytest.raises(FormulaError, match=rf"^term {re.escape(term)} appears twice$"):
        parse_formula(text)


def test_intercept_removal_and_explicit():
    assert not parse_formula("y ~ x - 1").intercept
    assert parse_formula("y ~ 1 + x").intercept
    assert parse_formula("y ~ 1").terms == ()


def test_power_zero_rejected():
    with pytest.raises(FormulaError, match="power 0"):
        parse_formula("y ~ x^0")


def test_syntax_error_reports_position():
    with pytest.raises(FormulaError, match="position"):
        parse_formula("y ~ x + + z")


def test_unknown_token():
    with pytest.raises(FormulaError, match="unknown token"):
        parse_formula("y ~ x + $z")


@pytest.mark.parametrize("text, token, position", [("y ~ x^\u0662", "\u0662", 6),
                                                   ("y ~ \u0661 + x", "\u0661", 4)])
def test_a_digit_outside_0_to_9_is_an_unknown_token(text, token, position):
    # Arabic-Indic digits: int() reads them, so a \d token would parse x^2 and 1
    with pytest.raises(FormulaError, match=f"^unknown token '{token}' at position {position}$"):
        parse_formula(text)


def test_survival_intercept_rejected():
    with pytest.raises(FormulaError):
        parse_formula("surv(w,d) ~ 1 + x")


# ---------------------------------------------------------------------------
# the earlier tokenizer and recursive-descent parser, kept as a reference:
# parse_formula must accept the same strings and raise the same messages

_REF_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_.]*)|(?P<int>\d+)|(?P<op>[~+\-*^(),]))"
)


def _ref_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _REF_TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise FormulaError(f"unknown token {stripped[0]!r} at position {at}")
        tokens.append((match.lastgroup, match.group(match.lastgroup), match.start(match.lastgroup)))
        pos = match.end()
    return tokens


class _RefParser:
    def __init__(self, text):
        self.text = text
        self.tokens = _ref_tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def take(self, kind=None, value=None):
        tok_kind, tok_value, tok_pos = self.peek()
        if tok_kind is None:
            raise FormulaError(f"unexpected end of formula at position {tok_pos}")
        if kind is not None and tok_kind != kind or value is not None and tok_value != value:
            raise FormulaError(f"unexpected token {tok_value!r} at position {tok_pos}")
        self.i += 1
        return tok_value

    def at_op(self, value):
        kind, val, _ = self.peek()
        return kind == "op" and val == value

    def parse(self):
        response = self._response()
        self.take("op", "~")
        terms = []
        intercept_flag = None
        while True:
            if self.at_op("-"):
                self.take()
                tok_kind, tok_value, tok_pos = self.peek()
                if tok_kind != "int" or tok_value != "1":
                    raise FormulaError(f"'-' only allowed before 1, at position {tok_pos}")
                self.take()
                intercept_flag = False
            else:
                kind, val, pos = self.peek()
                if kind == "int":
                    if val != "1":
                        raise FormulaError(f"bare integer {val} at position {pos}; only 1 allowed")
                    self.take()
                    intercept_flag = True
                else:
                    terms.append(self._term())
            if self.at_op("+"):
                self.take()
                continue
            if self.at_op("-"):
                continue
            break
        kind, val, pos = self.peek()
        if kind is not None:
            raise FormulaError(f"unexpected token {val!r} at position {pos}")
        if isinstance(response, tuple):
            if intercept_flag:
                raise FormulaError("a survival formula cannot carry an intercept")
            intercept = False
        else:
            intercept = True if intercept_flag is None else intercept_flag
        return ModelFormula(response=response, terms=tuple(terms), intercept=intercept)

    def _response(self):
        name = self.take("ident")
        if name == "surv" and self.at_op("("):
            self.take()
            time_name = self.take("ident")
            self.take("op", ",")
            event_name = self.take("ident")
            self.take("op", ")")
            return (time_name, event_name)
        return name

    def _term(self):
        factors = [self._factor()]
        while self.at_op("*"):
            self.take()
            factors.append(self._factor())
        return Term(tuple(factors))

    def _factor(self):
        name = self.take("ident")
        if self.at_op("^"):
            self.take()
            kind, val, pos = self.peek()
            if kind != "int":
                raise FormulaError(f"expected integer power at position {pos}")
            self.take()
            power = int(val)
            if power == 0:
                raise FormulaError(f"power 0 not allowed at position {pos}")
            return (name, power)
        return (name, 1)


def _outcome(parse, text):
    """The parsed formula, or the error's type and message; any other
    exception fails the test."""
    try:
        return parse(text)
    except ValueError as exc:  # FormulaError, or int() on an over-long power
        return type(exc), str(exc)


FORMULA_PIECES = "y x x1 w d surv ( ) , ~ + - * ^ 0 1 2 00 $".split() + [" ", "\t"]


@given(st.lists(st.sampled_from(FORMULA_PIECES), max_size=16).map("".join))
@settings(max_examples=1000, deadline=None)
# one string for each error message, besides the random ones
@example("")
@example("y ~ x + $z")
@example("y ~ x^0")
@example("y ~ x^+")
@example("y ~ x - 2")
@example("y ~ 00 + x")
@example("y ~ x x")
@example("surv(w,d) ~ 1 + x")
def test_parser_matches_the_reference_parser(text):
    assert _outcome(parse_formula, text) == _outcome(lambda t: _RefParser(t).parse(), text)


@given(st.sampled_from(["y ~ x + x^2", "y ~ x1*x2 - 1", "surv(w,d) ~ x1 + x2", "y ~ 1 + x"]),
       st.lists(st.tuples(st.integers(0, 20), st.integers(0, 1),
                          st.sampled_from(FORMULA_PIECES + [""])), max_size=3))
@settings(max_examples=500, deadline=None)
def test_parser_matches_the_reference_parser_near_valid_formulas(text, edits):
    # small edits of valid formulas reach the deeper error branches more often:
    # each replaces `width` characters at `at` with a piece (or deletes them)
    for at, width, piece in edits:
        text = text[:at] + piece + text[at + width:]
    assert _outcome(parse_formula, text) == _outcome(lambda t: _RefParser(t).parse(), text)


def test_design_matrix_quadratic_row():
    d = complete({"x": [2.0], "y": [0.0]})
    X = design_matrix(parse_formula("y ~ x + x^2"), d)
    assert np.array_equal(X, [[1.0, 2.0, 4.0]])


def test_design_matrix_interaction_row():
    d = complete({"x1": [3.0], "x2": [0.0], "y": [0.0]})
    X = design_matrix(parse_formula("y ~ x1 + x2 + x1*x2"), d)
    assert np.array_equal(X, [[1.0, 3.0, 0.0, 0.0]])


def test_design_matrix_intercept_only():
    d = complete({"y": [1.0, 2.0, 3.0]})
    X = design_matrix(parse_formula("y ~ 1"), d)
    assert np.array_equal(X, [[1.0], [1.0], [1.0]])


def test_design_matrix_rejects_missing_cells():
    d = Dataset((
        Column("x", C, PART, np.array([1.0, np.nan]), np.array([True, False])),
        Column("y", C, OUT, np.array([0.0, 0.0]), np.ones(2, dtype=bool)),
    ))
    with pytest.raises(FormulaError, match="missing"):
        design_matrix(parse_formula("y ~ x"), d)


def test_design_matrix_unknown_variable():
    d = complete({"y": [1.0]})
    with pytest.raises(FormulaError, match="unknown column"):
        design_matrix(parse_formula("y ~ q"), d)


@pytest.mark.parametrize("text, absent", [("q ~ y", "q"), ("surv(y,e) ~ x", "e")])
def test_response_arrays_names_an_absent_response_column(text, absent):
    d = complete({"y": [1.0]})
    with pytest.raises(FormulaError, match=f"^response: unknown column '{absent}'$"):
        response_arrays(parse_formula(text), d)


def test_linearity_in_power_one_variable():
    rng = np.random.default_rng(0)
    f = parse_formula("y ~ x + x^2 + x*z + z")
    base = {"x": rng.normal(size=5), "z": rng.normal(size=5), "y": np.zeros(5)}
    X1 = design_matrix(f, complete(base))
    doubled = dict(base, x=2.0 * base["x"])
    X2 = design_matrix(f, complete(doubled))
    # columns: intercept, x, x^2, x*z, z
    np.testing.assert_allclose(X2[:, 1], 2.0 * X1[:, 1])
    np.testing.assert_allclose(X2[:, 2], 4.0 * X1[:, 2])
    np.testing.assert_allclose(X2[:, 3], 2.0 * X1[:, 3])
    np.testing.assert_allclose(X2[:, 4], X1[:, 4])
    np.testing.assert_allclose(X2[:, 0], X1[:, 0])


def test_changing_v_touches_only_v_columns():
    rng = np.random.default_rng(1)
    f = parse_formula("y ~ x + z + x*z + z^2")
    base = {"x": rng.normal(size=6), "z": rng.normal(size=6), "y": np.zeros(6)}
    X1 = design_matrix(f, complete(base))
    shifted = dict(base, x=base["x"] + 1.0)
    X2 = design_matrix(f, complete(shifted))
    # x enters columns 1 (x) and 3 (x*z) only
    assert not np.array_equal(X1[:, 1], X2[:, 1])
    assert np.array_equal(X1[:, 2], X2[:, 2])
    assert not np.array_equal(X1[:, 3], X2[:, 3])
    assert np.array_equal(X1[:, 4], X2[:, 4])


def test_term_column_name():
    assert term_column_name(Term((("x", 2),))) == "x_pow2"
    assert term_column_name(Term((("x1", 1), ("x2", 1)))) == "x1_times_x2"
