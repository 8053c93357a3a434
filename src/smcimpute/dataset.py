"""Rectangular dataset with explicit missingness and variable metadata.

Values are stored as float64 throughout (binary columns included); a missing
cell holds NaN and has its observed-mask entry set to False.  The mask is the
authoritative record of missingness: a completed view keeps mask entries
False while carrying filled-in values.

A column is checked once, when it is built: `Column.__post_init__` runs every
per-column check (shape, NaN marked observed, 0/1 values of binary and event
columns, positive times, no missing cells in a complete role).  A `Dataset`
checks only what concerns its set of columns, unique names and equal
lengths, so a dataset rebuilt from existing columns, such as a completed
view, does not check them again.
"""

from __future__ import annotations

import csv
import os
import tempfile
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "VariableKind",
    "VariableRole",
    "Column",
    "Dataset",
    "DataError",
    "DEFAULT_MISSING_TOKENS",
    "CHUNK_ROWS",
    "read_table",
    "read_csv",
    "format_values",
    "format_rows",
    "write_csv",
    "missingness_order",
    "atomic_write_text",
    "check_csv_name",
]

DEFAULT_MISSING_TOKENS = ("", "NA", ".")

# rows held as Python strings at once while a CSV file is read or written
CHUNK_ROWS = 4096

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
        filled = ~np.isnan(values)
        if np.any(~filled & observed):
            raise DataError(f"column {self.name}: NaN marked as observed")
        if self.kind is VariableKind.BINARY and not _zero_one(values[filled]):
            raise DataError(f"binary column {self.name} contains values outside {{0, 1}}")
        if self.role is VariableRole.EVENT and not _zero_one(values[observed]):
            raise DataError(f"event column {self.name} must be 0/1")
        if self.role is VariableRole.TIME and not np.all(values[observed] > 0.0):
            raise DataError(f"time column {self.name} must be strictly positive")
        if self.role.value in _COMPLETE_ROLES and not observed.all():
            raise DataError(
                f"column {self.name} has role {self.role.value} and may not contain missing values"
            )

    @property
    def n_missing(self) -> int:
        return int(np.sum(~self.observed))


def _zero_one(values) -> bool:
    return bool(np.all((values == 0.0) | (values == 1.0)))


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

    def with_values(self, new_values: Mapping[str, np.ndarray]) -> "Dataset":
        """Dataset with replaced value arrays; masks and metadata are kept.

        Observed cells must be left untouched by the caller; this is checked.
        A column not named in `new_values` is the same `Column` object here.
        """
        cols = []
        for col in self.columns:
            if col.name in new_values:
                vals = np.asarray(new_values[col.name], dtype=float)
                if vals.shape != col.values.shape:
                    raise DataError(f"column {col.name}: {vals.shape[0]} values for {self.n} rows")
                same = vals[col.observed] == col.values[col.observed]
                if not np.all(same):
                    raise DataError(f"column {col.name}: observed cells were modified")
                cols.append(Column(col.name, col.kind, col.role, vals, col.observed.copy()))
            else:
                cols.append(col)
        return Dataset(tuple(cols))


def read_table(path, check_header, missing_tokens: Iterable[str] = ()):
    """The header and the float64 columns of a CSV file, read in chunks of rows.

    `check_header(header)` runs before any data row is read.  A cell equal to
    one of `missing_tokens` becomes NaN.  At most CHUNK_ROWS rows exist as
    Python objects at once: each cell is parsed straight into an array('d')
    column, which becomes numpy without a copy.  Raises DataError for an
    empty file, a header that names a column twice, a row of the wrong
    width, a cell that is not a number, or a file the csv module rejects.
    """
    as_nan = dict.fromkeys(missing_tokens, "nan")
    with open(path, newline="", encoding="utf-8-sig") as fh:  # a BOM is skipped
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            repeated = [h for i, h in enumerate(header) if h in header[:i]]
            if repeated:
                raise DataError(f"{path}: column {repeated[0]!r} appears twice in the header")
            check_header(header)
            width = len(header)
            columns = [array("d") for _ in header]
            first_row = 2  # line 1 is the header
            while chunk := list(islice(reader, CHUNK_ROWS)):
                if set(map(len, chunk)) != {width}:
                    i = next(i for i, row in enumerate(chunk) if len(row) != width)
                    raise DataError(f"{path}: row {first_row + i} has {len(chunk[i])} cells, "
                                    f"expected {width}")
                for name, column, cells in zip(header, columns, zip(*chunk)):
                    # as_nan.get(cell, cell) turns a missing token into "nan"
                    try:
                        column.extend(map(float, map(as_nan.get, cells, cells)))
                    except ValueError:
                        _raise_unparseable(path, name, cells, first_row, as_nan)
                first_row += len(chunk)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise DataError(f"{path}: {exc}") from None
    return header, [np.frombuffer(column, dtype=float) for column in columns]


def _raise_unparseable(path, name, cells, first_row, as_nan):
    for i, cell in enumerate(cells):
        try:
            float(as_nan.get(cell, cell))
        except ValueError:
            raise DataError(f"{path}: row {first_row + i}: unparseable cell {cell!r} "
                            f"in column {name}") from None


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
    schema_names = [name for name, _, _ in schema]

    def check_header(header):
        unknown = [h for h in header if h not in schema_names]
        if unknown:
            raise DataError(f"{path}: unknown column {unknown[0]!r}")
        absent = [n for n in schema_names if n not in header]
        if absent:
            raise DataError(f"{path}: column {absent[0]!r} missing from header")

    header, columns = read_table(path, check_header, missing_tokens)
    by_name = dict(zip(header, columns))
    return Dataset(tuple(
        Column(name, kind, role, by_name[name], ~np.isnan(by_name[name]))
        for name, kind, role in schema
    ))


def check_csv_name(what: str, name: str) -> None:
    """ValueError unless `name` can be a CSV cell as written: the writers join
    cells with commas and quote none, so a reader would split it."""
    if any(c in name for c in ',"\r\n'):
        raise ValueError(f"{what} {name!r} contains a comma, quote or line break")


def format_values(values: np.ndarray) -> list[str]:
    """The repr of each value, which reads back bit-exactly."""
    return list(map(repr, values.tolist()))


def format_rows(columns: Sequence[Sequence[str]]) -> str:
    """CSV lines, each ending in a newline, from equal-length columns of cells."""
    return "\n".join(map(",".join, zip(*columns))) + "\n"


def write_csv(d: Dataset, path) -> None:
    """Write a dataset; unobserved cells come out empty.

    Values are formatted with repr so a read-back reproduces them bit-exactly.
    The rows go to the file CHUNK_ROWS at a time.
    """
    def chunks():
        yield ",".join(d.names) + "\n"
        for start in range(0, d.n, CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            columns = []
            for col in d.columns:
                cells = format_values(col.values[rows])
                for i in np.flatnonzero(~col.observed[rows]).tolist():
                    cells[i] = ""
                columns.append(cells)
            yield format_rows(columns)

    atomic_write_text(path, chunks())


def atomic_write_text(path, text: str | Iterable[str]) -> None:
    """Write a string, or an iterable of string chunks, via temp-and-rename so
    readers never see a partial file.  If a chunk cannot be produced, the
    temp file is removed and `path` is left as it was."""
    chunks = [text] if isinstance(text, str) else text
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def missingness_order(d: Dataset) -> list[str]:
    """Partial covariates ordered by ascending missing count (ties keep schema order)."""
    partial = d.partial_covariates()
    if not partial:
        raise DataError("dataset has no partial covariates")
    return [c.name for c in sorted(partial, key=lambda c: c.n_missing)]
