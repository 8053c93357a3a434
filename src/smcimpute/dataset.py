"""Rectangular dataset with explicit missingness and variable metadata.

Values are stored as float64 throughout (binary columns included); a missing
cell holds NaN and has its observed-mask entry set to False.  The mask is the
authoritative record of missingness: a completed view keeps mask entries
False while carrying filled-in values.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "VariableKind",
    "VariableRole",
    "Column",
    "Dataset",
    "DataError",
    "DEFAULT_MISSING_TOKENS",
    "read_csv",
    "check_row_lengths",
    "write_csv",
    "completed_view",
    "missingness_order",
    "atomic_write_text",
]

DEFAULT_MISSING_TOKENS = ("", "NA", ".")

# roles whose columns must be fully observed
_COMPLETE_ROLES = frozenset(
    {"complete_covariate", "outcome", "time", "event"}
)


class DataError(ValueError):
    """Invalid data, schema, or fill supplied to the dataset layer."""


class VariableKind(str, Enum):
    CONTINUOUS = "continuous"
    BINARY = "binary"


class VariableRole(str, Enum):
    PARTIAL_COVARIATE = "partial_covariate"
    COMPLETE_COVARIATE = "complete_covariate"
    OUTCOME = "outcome"
    TIME = "time"
    EVENT = "event"


@dataclass(frozen=True)
class Column:
    name: str
    kind: VariableKind
    role: VariableRole
    values: np.ndarray  # float64, NaN where unobserved
    observed: np.ndarray  # bool

    def __post_init__(self):
        object.__setattr__(self, "kind", VariableKind(self.kind))
        object.__setattr__(self, "role", VariableRole(self.role))
        values = np.asarray(self.values, dtype=float)
        observed = np.asarray(self.observed, dtype=bool)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "observed", observed)
        if values.ndim != 1 or observed.shape != values.shape:
            raise DataError(f"column {self.name}: values/observed shape mismatch")
        if np.any(np.isnan(values) & observed):
            raise DataError(f"column {self.name}: NaN marked as observed")

    @property
    def n_missing(self) -> int:
        return int(np.sum(~self.observed))

    def validate(self):
        filled = self.values[~np.isnan(self.values)]
        if self.kind is VariableKind.BINARY and filled.size:
            if not np.all((filled == 0.0) | (filled == 1.0)):
                raise DataError(f"binary column {self.name} contains values outside {{0, 1}}")
        if self.role in (VariableRole.EVENT,):
            obs = self.values[self.observed]
            if obs.size and not np.all((obs == 0.0) | (obs == 1.0)):
                raise DataError(f"event column {self.name} must be 0/1")
        if self.role is VariableRole.TIME:
            obs = self.values[self.observed]
            if obs.size and not np.all(obs > 0.0):
                raise DataError(f"time column {self.name} must be strictly positive")
        if self.role.value in _COMPLETE_ROLES and self.n_missing:
            raise DataError(
                f"column {self.name} has role {self.role.value} and may not contain missing values"
            )


@dataclass(frozen=True)
class Dataset:
    columns: tuple[Column, ...]

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise DataError("duplicate column names")
        lengths = {c.values.shape[0] for c in self.columns}
        if len(lengths) > 1:
            raise DataError("columns differ in length")
        for col in self.columns:
            col.validate()

    @property
    def n(self) -> int:
        return self.columns[0].values.shape[0] if self.columns else 0

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise DataError(f"unknown column {name!r}")

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)

    def partial_covariates(self) -> tuple[Column, ...]:
        return tuple(c for c in self.columns if c.role is VariableRole.PARTIAL_COVARIATE)

    def values_map(self) -> dict[str, np.ndarray]:
        """Copy of all column value arrays, keyed by name."""
        return {c.name: c.values.copy() for c in self.columns}

    def is_complete(self) -> bool:
        return all(not np.any(np.isnan(c.values)) for c in self.columns)

    def with_values(self, new_values: Mapping[str, np.ndarray]) -> "Dataset":
        """Dataset with replaced value arrays; masks and metadata are kept.

        Observed cells must be left untouched by the caller; this is checked.
        """
        cols = []
        for col in self.columns:
            if col.name in new_values:
                vals = np.asarray(new_values[col.name], dtype=float)
                same = vals[col.observed] == col.values[col.observed]
                if not np.all(same):
                    raise DataError(f"column {col.name}: observed cells were modified")
                cols.append(Column(col.name, col.kind, col.role, vals, col.observed.copy()))
            else:
                cols.append(col)
        return Dataset(tuple(cols))


def _parse_cell(text: str, missing_tokens: Iterable[str]) -> float:
    if text in missing_tokens:
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise DataError(f"unparseable cell {text!r}") from None


def check_row_lengths(path, rows, width: int) -> None:
    """Reject the first data row (after a one-line header) without `width` cells."""
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"{path}: row {i + 2} has {len(row)} cells, expected {width}")


def read_csv(
    path,
    schema: Sequence[tuple[str, VariableKind, VariableRole]],
    missing_tokens: Iterable[str] = DEFAULT_MISSING_TOKENS,
) -> Dataset:
    """Load a CSV file against a (name, kind, role) schema.

    The header must contain exactly the schema's column names; cells equal to
    a missing token become missing (mask False).  Missingness is rejected in
    columns whose role requires complete observation.
    """
    missing_tokens = set(missing_tokens)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        schema_names = [name for name, _, _ in schema]
        unknown = [h for h in header if h not in schema_names]
        if unknown:
            raise DataError(f"{path}: unknown column {unknown[0]!r}")
        absent = [n for n in schema_names if n not in header]
        if absent:
            raise DataError(f"{path}: column {absent[0]!r} missing from header")
        positions = {name: header.index(name) for name in schema_names}
        rows = list(reader)
    check_row_lengths(path, rows, len(header))

    n = len(rows)
    cols = []
    for name, kind, role in schema:
        pos = positions[name]
        values = np.empty(n)
        for i, row in enumerate(rows):
            values[i] = _parse_cell(row[pos], missing_tokens)
        observed = ~np.isnan(values)
        cols.append(Column(name, kind, role, values, observed))
    return Dataset(tuple(cols))


def _format_cell(value: float, observed: bool, missing_token: str) -> str:
    if not observed:
        return missing_token
    return repr(float(value))


def write_csv(d: Dataset, path, missing_token: str = "") -> None:
    """Write a dataset; unobserved cells come out as the missing token.

    Values are formatted with repr so a read-back reproduces them bit-exactly.
    """
    lines = [",".join(d.names)]
    for i in range(d.n):
        lines.append(
            ",".join(
                _format_cell(c.values[i], bool(c.observed[i]), missing_token)
                for c in d.columns
            )
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def atomic_write_text(path, text: str) -> None:
    """Write a file via temp-and-rename so readers never see a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def completed_view(d: Dataset, fill: Mapping[str, Sequence[float]]) -> Dataset:
    """Dataset with every missing cell filled from `fill`; masks unchanged.

    `fill` maps a column name to the values for that column's missing cells in
    ascending row order, one value per missing cell.
    """
    for name in fill:
        if not d.has_column(name):
            raise DataError(f"fill references unknown column {name!r}")
    cols = []
    for col in d.columns:
        miss = ~col.observed
        n_miss = int(miss.sum())
        supplied = np.asarray(fill.get(col.name, ()), dtype=float)
        if supplied.shape[0] != n_miss:
            raise DataError(
                f"column {col.name}: fill supplies {supplied.shape[0]} values "
                f"for {n_miss} missing cells"
            )
        values = col.values.copy()
        values[miss] = supplied
        cols.append(Column(col.name, col.kind, col.role, values, col.observed.copy()))
    return Dataset(tuple(cols))


def missingness_order(d: Dataset) -> list[str]:
    """Partial covariates ordered by ascending missing count (ties keep schema order)."""
    partial = d.partial_covariates()
    if not partial:
        raise DataError("dataset has no partial covariates")
    return [c.name for c in sorted(partial, key=lambda c: c.n_missing)]
