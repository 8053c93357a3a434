"""Command-line front end: impute, analyze, simulate.

Exit codes: 0 success, 2 usage or validation error, 3 numeric or engine
failure.  `main` returns 2 for every usage error, argparse's own included,
and prints it as one `error: ...` line.  Each flag's value is checked by its
argparse `type`; the commands check only what needs a second flag or the
data.  All file outputs are written atomically (temp file + rename) as
UTF-8, and a write that fails is an `--out` error, exit 2.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace

import numpy as np

from .dataset import (
    CHUNK_ROWS,
    DEFAULT_MISSING_TOKENS,
    Column,
    DataError,
    Dataset,
    VariableKind,
    VariableRole,
    check_csv_name,
    format_values,
    read_csv,
    read_table,
    write_table,
)
from .engines import (
    CUMHAZ,
    CovariateModelError,
    EngineConfig,
    EngineFailure,
    SubstantiveModelError,
    run_fcs,
    run_smcfcs,
)
from .fitters import FitError, run_lengths
from .formula import FormulaError, parse_formula
from .pooling import PoolError, fit_each, pool
from .substantive import CovariateModelSpec

__all__ = ["main"]

FAMILY_FLAGS = {"linear": "normal_linear", "logistic": "logistic", "cox": "cox"}


class CliError(Exception):
    """Validation failure; maps to exit code 2."""


def _fail(flag: str, message: str):
    raise CliError(f"{flag}: {message}")


def _write_out(write, *args):
    """Call a writer of --out's files; an OSError it raises is an --out error."""
    try:
        write(*args)
    except OSError as exc:
        _fail("--out", str(exc))


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors as CliError instead of exiting."""

    def error(self, message):
        raise CliError(message)


def _flag_type(convert, valid=lambda value: True, reason=""):
    """An argparse `type`: `convert` the text, then refuse what `valid` rejects."""
    def parse(text):
        try:
            value = convert(text)
        except FormulaError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not valid(value):
            raise argparse.ArgumentTypeError(reason)
        return value

    parse.__name__ = convert.__name__  # argparse names it: "invalid int value: 'abc'"
    return parse


_COUNT = _flag_type(int, lambda n: n >= 1, "must be >= 1")
_SEED = _flag_type(int, lambda n: n >= 0, "must be >= 0")
_LEVEL = _flag_type(float, lambda p: 0.0 < p < 1.0, "must be strictly between 0 and 1")
_FORMULA = _flag_type(parse_formula)
_COVMODEL = _flag_type(parse_formula, lambda f: not f.is_survival,
                       "covariate model target must be a single column")


def _names_a_file(path):
    return not os.path.isdir(path or ".") and os.path.isdir(os.path.dirname(path) or ".")


# checked before any data is read, so a bad path costs no imputation
_OUT = _flag_type(str, _names_a_file, "must name a file in an existing directory")
# impute writes its diagnostics beside the output, to OUT.diag.csv
_IMPUTE_OUT = _flag_type(str, lambda path: _names_a_file(path)
                         and not os.path.isdir(f"{path}.diag.csv"),
                         "must name a file in an existing directory, "
                         "and OUT.diag.csv must not be a directory")


# ---------------------------------------------------------------------------
# schema and data files

def read_schema(path):
    """Schema CSV with header name,kind,role, in any order, and three cells a row."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header, rows = next(reader, []), list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        _fail("--schema", str(exc))
    repeated = [h for i, h in enumerate(header) if h in header[:i]]
    if repeated:
        _fail("--schema", f"column {repeated[0]!r} appears twice in the header")
    if set(header) != {"name", "kind", "role"}:
        _fail("--schema", "header must be exactly: name,kind,role")
    schema = []
    for number, cells in enumerate(rows, start=2):  # row 1 is the header
        if len(cells) != 3:
            _fail("--schema", f"row {number} has {len(cells)} cells, expected 3")
        row = dict(zip(header, cells))
        try:
            kind = VariableKind(row["kind"])
            role = VariableRole(row["role"])
            check_csv_name("column name", row["name"])
        except ValueError as exc:
            _fail("--schema", str(exc))
        if row["name"] in ("_imp", CUMHAZ):
            _fail("--schema", f"column name {row['name']} is reserved")
        if any(row["name"] == entry[0] for entry in schema):
            _fail("--schema", f"column {row['name']} is named twice")
        schema.append((row["name"], kind, role))
    if not schema:
        _fail("--schema", "no columns defined")
    return schema


def _load_dataset(args, schema):
    tokens = tuple(args.missing_token) if args.missing_token else DEFAULT_MISSING_TOKENS
    try:
        return read_csv(args.data, schema, missing_tokens=tokens)
    except (OSError, DataError) as exc:
        _fail("--data", str(exc))


def _write_long_csv(path, datasets, names):
    def blocks():
        for index, d in enumerate(datasets, start=1):
            values = [d.column(name).values for name in names]
            for start in range(0, d.n, CHUNK_ROWS):
                rows = slice(start, start + CHUNK_ROWS)
                label = [str(index)] * (min(d.n, start + CHUNK_ROWS) - start)
                yield [label] + [format_values(v[rows]) for v in values]

    write_table(path, ["_imp", *names], blocks=blocks())


def _read_long_csv(path, schema):
    """One completed Dataset per _imp value, in ascending _imp order."""
    schema_by_name = {name: (kind, role) for name, kind, role in schema}

    def check_header(header):
        if "_imp" not in header:
            _fail("--data", "long-format file needs an _imp column")
        unknown = [h for h in header if h != "_imp" and h not in schema_by_name]
        if unknown:
            _fail("--schema", f"column {unknown[0]!r} in data has no schema entry")

    try:
        header, columns = read_table(path, check_header)
    except (OSError, DataError) as exc:
        _fail("--data", str(exc))
    imp = columns[header.index("_imp")]
    bad = ~np.isfinite(imp) | (imp != np.floor(imp))
    if bad.any():
        _fail("--data", f"bad _imp value {float(imp[bad][0])!r}")
    if np.any(imp[1:] < imp[:-1]):
        order = np.argsort(imp, kind="stable")
        imp = imp[order]
        columns = [values[order] for values in columns]
    starts, counts = run_lengths(imp)
    labels = imp[starts]
    if counts.size and counts.min() != counts.max():
        _fail("--data", f"imputations differ in length: _imp {labels[counts.argmin()]:.0f} "
                        f"has {counts.min()} rows, _imp {labels[counts.argmax()]:.0f} "
                        f"has {counts.max()}")
    datasets = []
    for start, n in zip(starts.tolist(), counts.tolist()):
        try:
            datasets.append(Dataset(tuple(
                Column(name, *schema_by_name[name], values[start:start + n],
                       np.ones(n, dtype=bool))
                for name, values in zip(header, columns) if name != "_imp"
            )))
        except DataError as exc:
            _fail("--data", str(exc))
    return datasets


# ---------------------------------------------------------------------------
# impute

def cmd_impute(args) -> int:
    schema = read_schema(args.schema)
    d = _load_dataset(args, schema)
    for flag, value in (("--smodel", args.smodel), ("--family", args.family)):
        if (value is None) == (args.method == "smcfcs"):
            _fail(flag, "required when --method smcfcs" if value is None
                  else "only --method smcfcs takes an outcome model")
    substantive = (FAMILY_FLAGS[args.family], args.smodel) if args.smodel else None
    try:
        specs = tuple(CovariateModelSpec.from_formula(f, d) for f in args.covmodel)
    except ValueError as exc:
        _fail("--covmodel", str(exc))
    # the engine's exception type says which model, and so which flag, is at fault
    try:
        config = EngineConfig(method=args.method, m=args.m, iterations=args.iter,
                              seed=args.seed, substantive=substantive, covariate_specs=specs)
        result = (run_fcs if args.method == "fcs" else run_smcfcs)(d, config)
    except (FormulaError, SubstantiveModelError) as exc:
        _fail("--smodel", str(exc))
    except CovariateModelError as exc:
        _fail("--covmodel", str(exc))
    except DataError as exc:  # a default covariate model, which the schema's roles chose
        _fail("--schema", str(exc))
    _write_out(_write_long_csv, args.out, result.datasets, d.names)
    try:
        result.diagnostics.write_csv(f"{args.out}.diag.csv")
    except OSError as exc:
        os.unlink(args.out)  # a failed --out leaves neither file
        _fail("--out", str(exc))
    for name in sorted(result.diagnostics.proposals):
        rate = result.diagnostics.mean_acceptance(name)
        print(f"{name}: mean acceptance {rate:.3f}, "
              f"fallbacks {result.diagnostics.fallbacks.get(name, 0)}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# analyze

def cmd_analyze(args) -> int:
    schema = read_schema(args.schema)
    datasets = _read_long_csv(args.data, schema)
    if len(datasets) < 2:
        _fail("--data", "pooling needs at least 2 imputations")
    family = FAMILY_FLAGS[args.family]
    print(
        "note: estimates from imputed data are reliable only when the imputation "
        "model is compatible with, or richer than, the model fitted here",
        file=sys.stderr,
    )
    try:
        estimates, variances = fit_each(datasets, family, args.smodel)
    except FormulaError as exc:
        _fail("--smodel", str(exc))
    pooled = pool(estimates, variances, level=args.level, terms=args.smodel.labels())
    _write_out(pooled.write_csv, args.out)
    return 0


# ---------------------------------------------------------------------------
# simulate: the simulation lab is imported only here, so impute and analyze
# do not load it

def _load_scenario(args):
    import json

    from .simlab import ScenarioConfig, builtin_scenarios

    catalog = builtin_scenarios()
    if args.scenario in catalog:
        cfg = catalog[args.scenario]
    elif os.path.exists(args.scenario):
        try:
            with open(args.scenario, encoding="utf-8-sig") as fh:
                raw = json.load(fh)
        except OSError as exc:
            _fail("--scenario", str(exc))
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, nested too deep
            _fail("--scenario", f"bad JSON: {exc}")
        if not isinstance(raw, dict):
            _fail("--scenario", "JSON must be an object of ScenarioConfig fields")
        raw.setdefault("name", os.path.splitext(os.path.basename(args.scenario))[0])
        try:
            cfg = ScenarioConfig(**raw)
        except (TypeError, ValueError) as exc:
            _fail("--scenario", str(exc))
    else:
        _fail("--scenario", f"unknown scenario {args.scenario!r} "
                            f"(builtins: {', '.join(sorted(catalog))})")
    if args.reps is not None:
        cfg = replace(cfg, reps=args.reps)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def cmd_simulate(args) -> int:
    from .simlab import run_scenario

    cfg = _load_scenario(args)
    summary = run_scenario(cfg, threads=args.threads)
    _write_out(summary.write_csv, args.out)
    print(f"{cfg.name}: {summary.n_used}/{summary.n_reps} replications pooled",
          file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="smcimpute",
        description="Multiple imputation of partially observed regression covariates",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("impute", help="impute a dataset, writing stacked imputations")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--method", required=True, choices=("fcs", "smcfcs"))
    p.add_argument("--m", type=_COUNT, default=10)
    p.add_argument("--iter", type=_COUNT, default=None)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", required=True, type=_IMPUTE_OUT)
    p.add_argument("--family", choices=tuple(FAMILY_FLAGS))
    p.add_argument("--smodel", type=_FORMULA)
    p.add_argument("--covmodel", type=_COVMODEL, action="append", default=[])
    p.add_argument("--missing-token", action="append", default=[])
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("analyze", help="fit a model to stacked imputations and pool")
    p.add_argument("--data", required=True, help="long-format CSV with an _imp column")
    p.add_argument("--schema", required=True)
    p.add_argument("--family", required=True, choices=tuple(FAMILY_FLAGS))
    p.add_argument("--smodel", required=True, type=_FORMULA)
    p.add_argument("--level", type=_LEVEL, default=0.95)
    p.add_argument("--out", required=True, type=_OUT)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="run a simulation scenario")
    p.add_argument("--scenario", required=True, help="builtin name or JSON config path")
    p.add_argument("--reps", type=_COUNT, default=None)
    p.add_argument("--seed", type=_SEED, default=None)
    p.add_argument("--threads", type=_COUNT, default=1)
    p.add_argument("--out", required=True, type=_OUT)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EngineFailure, FitError, PoolError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
