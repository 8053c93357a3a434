"""Command-line front end: impute, analyze, simulate.

Exit codes: 0 success, 2 usage or validation error, 3 numeric or engine
failure.  `main` returns 2 for every usage error, argparse's own included,
and prints it as one `error: ...` line.  Each flag's value is checked by its
argparse `type`; the commands check only what needs a second flag or the
data.  All file outputs are written atomically (temp file + rename).
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
    atomic_write_text,
    check_csv_name,
    format_rows,
    format_values,
    read_csv,
    read_table,
)
from .engines import (
    CUMHAZ,
    EngineConfig,
    EngineFailure,
    SubstantiveModelError,
    default_covariate_specs,
    run_fcs,
    run_smcfcs,
)
from .fitters import FitError, run_lengths
from .formula import FormulaError, parse_formula
from .pooling import PoolError, fit_each, pool
from .substantive import CovariateModelSpec, outcome_family

__all__ = ["main"]

FAMILY_FLAGS = {"linear": "normal_linear", "logistic": "logistic", "cox": "cox"}


class CliError(Exception):
    """Validation failure; maps to exit code 2."""


def _fail(flag: str, message: str):
    raise CliError(f"{flag}: {message}")


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
# checked before any data is read, so a bad path costs no imputation
_OUT = _flag_type(str, lambda path: not os.path.isdir(path or ".")
                  and os.path.isdir(os.path.dirname(path) or "."),
                  "must name a file in an existing directory")


# ---------------------------------------------------------------------------
# schema and data files

def read_schema(path):
    """Schema CSV with header name,kind,role."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            header, rows = reader.fieldnames, list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        _fail("--schema", str(exc))
    if header is None or set(header) != {"name", "kind", "role"}:
        _fail("--schema", "header must be exactly: name,kind,role")
    schema = []
    for row in rows:
        try:
            kind = VariableKind(row["kind"])
            role = VariableRole(row["role"])
            check_csv_name("column name", row["name"])
        except ValueError as exc:
            _fail("--schema", str(exc))
        if row["name"] in ("_imp", CUMHAZ):
            _fail("--schema", f"column name {row['name']} is reserved")
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
    def chunks():
        yield ",".join(["_imp", *names]) + "\n"
        for index, d in enumerate(datasets, start=1):
            values = [d.column(name).values for name in names]
            for start in range(0, d.n, CHUNK_ROWS):
                rows = slice(start, start + CHUNK_ROWS)
                label = [str(index)] * (min(d.n, start + CHUNK_ROWS) - start)
                yield format_rows([label] + [format_values(v[rows]) for v in values])

    atomic_write_text(path, chunks())


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
        _fail("--data", f"bad _imp value {imp[bad][0]!r}")
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

def _covariate_specs_from_flags(args, d):
    if not args.covmodel:
        return default_covariate_specs(d, args.method)
    try:
        return tuple(CovariateModelSpec.from_formula(f, d) for f in args.covmodel)
    except ValueError as exc:
        _fail("--covmodel", str(exc))


def cmd_impute(args) -> int:
    schema = read_schema(args.schema)
    d = _load_dataset(args, schema)
    substantive = None
    if args.method == "smcfcs":
        if not args.smodel:
            _fail("--smodel", "required when --method smcfcs")
        if not args.family:
            _fail("--family", "required when --method smcfcs")
        substantive = (FAMILY_FLAGS[args.family], args.smodel)
        try:
            outcome_family(*substantive)
        except FormulaError as exc:
            _fail("--smodel", str(exc))
    config = EngineConfig(
        method=args.method,
        m=args.m,
        iterations=args.iter,
        seed=args.seed,
        substantive=substantive,
        covariate_specs=_covariate_specs_from_flags(args, d),
    )
    run = run_fcs if args.method == "fcs" else run_smcfcs
    try:
        result = run(d, config)
    except SubstantiveModelError as exc:
        _fail("--smodel", str(exc))
    except DataError as exc:
        # with the default specs the data's columns are what the models lack
        _fail("--covmodel" if args.covmodel else "--schema", str(exc))
    _write_long_csv(args.out, result.datasets, d.names)
    atomic_write_text(f"{args.out}.diag.csv", result.diagnostics.to_csv_text())
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
    atomic_write_text(args.out, pooled.to_csv_text())
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
    atomic_write_text(args.out, summary.to_csv_text())
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
    p.add_argument("--out", required=True, type=_OUT)
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
