"""Model-formula parsing and design-matrix construction.

Grammar (whitespace-insensitive):

    formula  := response "~" term ("+" term)*
    response := ident | "surv" "(" ident "," ident ")"
    term     := "1" | "-" "1" | factor ("*" factor)*
    factor   := ident ("^" uint)?

A bare "1" turns the intercept on explicitly, "-1" removes it.  Repeated
variables inside a term are consolidated by summing powers (x*x == x^2), and
factors are kept in alphabetical order so equal terms compare equal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "Term",
    "ModelFormula",
    "FormulaError",
    "parse_formula",
    "design_matrix",
    "design_from_arrays",
    "response_arrays",
    "term_column_name",
]


class FormulaError(ValueError):
    """Syntax or validation error in a model formula."""


@dataclass(frozen=True)
class Term:
    """Product of integer powers of variables, e.g. x1*x2^2."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        consolidated: dict[str, int] = {}
        for name, power in self.factors:
            if power < 1:
                raise FormulaError(f"power must be >= 1 in term factor {name}^{power}")
            consolidated[name] = consolidated.get(name, 0) + power
        object.__setattr__(
            self, "factors", tuple(sorted(consolidated.items()))
        )

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.factors)

    @property
    def is_linear(self) -> bool:
        """A single variable at power one."""
        return len(self.factors) == 1 and self.factors[0][1] == 1

    def label(self) -> str:
        return "*".join(
            name if power == 1 else f"{name}^{power}" for name, power in self.factors
        )

    def evaluate(self, cols: Mapping[str, np.ndarray]) -> np.ndarray:
        out = None
        for name, power in self.factors:
            piece = cols[name] if power == 1 else cols[name] ** power
            out = piece if out is None else out * piece
        return out


@dataclass(frozen=True)
class ModelFormula:
    response: str | tuple[str, str]  # outcome name, or (time, event) pair
    terms: tuple[Term, ...]
    intercept: bool

    @property
    def is_survival(self) -> bool:
        return isinstance(self.response, tuple)

    @property
    def variables(self) -> tuple[str, ...]:
        seen: list[str] = []
        for t in self.terms:
            for v in t.variables:
                if v not in seen:
                    seen.append(v)
        return tuple(seen)

    def labels(self) -> list[str]:
        """Coefficient labels in design-matrix column order."""
        out = ["(intercept)"] if self.intercept else []
        out.extend(t.label() for t in self.terms)
        return out

    def __str__(self) -> str:
        if self.is_survival:
            lhs = f"surv({self.response[0]},{self.response[1]})"
        else:
            lhs = self.response
        if self.terms:
            rhs = " + ".join(t.label() for t in self.terms)
        else:
            rhs = "1" if self.intercept else ""
        if not self.intercept and not self.is_survival:
            rhs = f"{rhs} - 1" if rhs else "-1"
        return f"{lhs} ~ {rhs}"


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_.]*)|(?P<int>\d+)|(?P<op>[~+\-*^(),]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise FormulaError(f"unknown token {stripped[0]!r} at position {at}")
        if match.lastgroup is None:
            break
        tokens.append((match.lastgroup, match.group(match.lastgroup), match.start(match.lastgroup)))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def take(self, kind=None, value=None):
        tok_kind, tok_value, tok_pos = self.peek()
        if tok_kind is None:
            raise FormulaError(f"unexpected end of formula at position {tok_pos}")
        if kind is not None and tok_kind != kind or value is not None and tok_value != value:
            raise FormulaError(
                f"unexpected token {tok_value!r} at position {tok_pos}"
            )
        self.i += 1
        return tok_value

    def at_op(self, value) -> bool:
        kind, val, _ = self.peek()
        return kind == "op" and val == value

    def parse(self) -> ModelFormula:
        response = self._response()
        self.take("op", "~")
        terms: list[Term] = []
        intercept_flag: bool | None = None
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
                continue  # "- 1" handled at the top of the loop
            break
        kind, val, pos = self.peek()
        if kind is not None:
            raise FormulaError(f"unexpected token {val!r} at position {pos}")
        survival = isinstance(response, tuple)
        if survival:
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

    def _term(self) -> Term:
        factors = [self._factor()]
        while self.at_op("*"):
            self.take()
            factors.append(self._factor())
        return Term(tuple(factors))

    def _factor(self) -> tuple[str, int]:
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


def parse_formula(text: str) -> ModelFormula:
    """Parse a formula string; raises FormulaError with a position on bad input."""
    return _Parser(text).parse()


def term_column_name(t: Term) -> str:
    """Column name for a derived term, e.g. x^2 -> x_pow2, x1*x2 -> x1_times_x2."""
    return "_times_".join(
        name if power == 1 else f"{name}_pow{power}" for name, power in t.factors
    )


def design_from_arrays(
    terms: Sequence[Term],
    intercept: bool,
    cols: Mapping[str, np.ndarray],
    n: int,
) -> np.ndarray:
    """Design matrix from named value arrays (intercept column first)."""
    pieces = []
    if intercept:
        pieces.append(np.ones(n))
    for t in terms:
        pieces.append(np.broadcast_to(t.evaluate(cols), (n,)))
    if not pieces:
        return np.empty((n, 0))
    return np.column_stack(pieces)


def _check_complete(cols, names, n_where):
    for name in names:
        if np.any(np.isnan(cols[name])):
            raise FormulaError(f"column {name} has missing cells; {n_where} needs complete data")


def design_matrix(f: ModelFormula, d) -> np.ndarray:
    """Evaluate the formula's right-hand side on a completed dataset."""
    for v in f.variables:
        if not d.has_column(v):
            raise FormulaError(f"formula references unknown column {v!r}")
    cols = {v: d.column(v).values for v in f.variables}
    _check_complete(cols, f.variables, "design_matrix")
    return design_from_arrays(f.terms, f.intercept, cols, d.n)


def response_arrays(f: ModelFormula, d) -> tuple[np.ndarray, ...]:
    """Response data: (y,) for a plain outcome, (time, event) for survival."""
    names = f.response if f.is_survival else (f.response,)
    cols = {name: d.column(name).values for name in names}
    _check_complete(cols, names, "response")
    return tuple(cols[name] for name in names)
