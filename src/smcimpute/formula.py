"""Model-formula parsing and design-matrix construction.

Grammar (whitespace-insensitive):

    formula  := response "~" term ("+" term)*
    response := ident | "surv" "(" ident "," ident ")"
    term     := "1" | "-" "1" | factor ("*" factor)*
    factor   := ident ("^" uint)?

A bare "1" turns the intercept on explicitly, "-1" removes it.  Repeated
variables inside a term are consolidated by summing powers (x*x == x^2), and
factors are kept in alphabetical order so equal terms compare equal.  A
formula names each term once: a repeated term (x + x, or x*x + x^2) would
give two equal design columns, so `ModelFormula` refuses it.

`parse_formula` is the one parser: it reads the tokens with one regular
expression, whose last alternative catches any character that starts no
token, then walks them once.  A formula is the one statement of a model:
the engines, pooling and the CLI fit it, and the simulation lab generates
its data from it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

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

    def __post_init__(self):
        for i, term in enumerate(self.terms):
            if term in self.terms[:i]:
                raise FormulaError(f"term {term.label()} appears twice")

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


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_.]*)|(?P<int>[0-9]+)|(?P<op>[~+\-*^(),])|(?P<unknown>\S))"
)


def parse_formula(text: str) -> ModelFormula:
    """Parse a formula string; raises FormulaError with a position on bad input."""
    # (kind, text, position); an operator's kind is the operator itself
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        value, pos = match[kind], match.start(kind)
        if kind == "unknown":
            raise FormulaError(f"unknown token {value!r} at position {pos}")
        tokens.append((value if kind == "op" else kind, value, pos))
    tokens.append((None, None, len(text)))
    i = 0

    def take(kind):
        nonlocal i
        tok_kind, value, pos = tokens[i]
        if tok_kind is None:
            raise FormulaError(f"unexpected end of formula at position {pos}")
        if tok_kind != kind:
            raise FormulaError(f"unexpected token {value!r} at position {pos}")
        i += 1
        return value

    response = take("ident")
    if response == "surv" and tokens[i][0] == "(":
        _, time_name, _, event_name, _ = [take(k) for k in ("(", "ident", ",", "ident", ")")]
        response = (time_name, event_name)
    take("~")
    terms: list[Term] = []
    intercept_flag: bool | None = None
    while True:
        kind, value, pos = tokens[i]
        if kind == "-":
            kind, value, pos = tokens[i + 1]
            if (kind, value) != ("int", "1"):
                raise FormulaError(f"'-' only allowed before 1, at position {pos}")
            i, intercept_flag = i + 2, False
        elif kind == "int":
            if value != "1":
                raise FormulaError(f"bare integer {value} at position {pos}; only 1 allowed")
            i, intercept_flag = i + 1, True
        else:  # factor ("*" factor)*
            factors = []
            while True:
                name, power = take("ident"), 1
                if tokens[i][0] == "^":
                    kind, value, pos = tokens[i + 1]
                    if kind != "int":
                        raise FormulaError(f"expected integer power at position {pos}")
                    i, power = i + 2, int(value)
                    if power == 0:
                        raise FormulaError(f"power 0 not allowed at position {pos}")
                factors.append((name, power))
                if tokens[i][0] != "*":
                    break
                i += 1
            terms.append(Term(tuple(factors)))
        if tokens[i][0] == "+":
            i += 1
        elif tokens[i][0] != "-":  # "- 1" is read at the top of the loop
            break
    kind, value, pos = tokens[i]
    if kind is not None:
        raise FormulaError(f"unexpected token {value!r} at position {pos}")
    survival = isinstance(response, tuple)
    if survival and intercept_flag:
        raise FormulaError("a survival formula cannot carry an intercept")
    intercept = not survival and intercept_flag is not False
    return ModelFormula(response=response, terms=tuple(terms), intercept=intercept)


def term_column_name(t: Term) -> str:
    """Column name for a derived term, e.g. x^2 -> x_pow2, x1*x2 -> x1_times_x2."""
    return "_times_".join(
        name if power == 1 else f"{name}_pow{power}" for name, power in t.factors
    )


def design_from_arrays(f: ModelFormula, cols: Mapping[str, np.ndarray], n: int) -> np.ndarray:
    """The right-hand side of `f` on named value arrays (intercept column first)."""
    X = np.empty((n, f.intercept + len(f.terms)))
    if f.intercept:
        X[:, 0] = 1.0
    for j, t in enumerate(f.terms, start=int(f.intercept)):
        X[:, j] = t.evaluate(cols)
    return X


def _complete_columns(d, names, unknown: str, where: str) -> dict[str, np.ndarray]:
    """The named columns' values; FormulaError names an absent or incomplete one."""
    for name in names:
        if not d.has_column(name):
            raise FormulaError(f"{unknown} {name!r}")
    cols = {name: d.column(name).values for name in names}
    for name in names:
        if np.any(np.isnan(cols[name])):
            raise FormulaError(f"column {name} has missing cells; {where} needs complete data")
    return cols


def design_matrix(f: ModelFormula, d) -> np.ndarray:
    """Evaluate the formula's right-hand side on a completed dataset."""
    cols = _complete_columns(d, f.variables, "formula references unknown column",
                             "design_matrix")
    return design_from_arrays(f, cols, d.n)


def response_arrays(f: ModelFormula, d) -> tuple[np.ndarray, ...]:
    """Response data: (y,) for a plain outcome, (time, event) for survival."""
    names = f.response if f.is_survival else (f.response,)
    cols = _complete_columns(d, names, "response: unknown column", "response")
    return tuple(cols[name] for name in names)
