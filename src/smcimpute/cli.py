"""Command-line front end: impute, analyze, simulate.

Exit codes: 0 success, 2 usage or validation error, 3 numeric or engine
failure.  All file outputs are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import csv
import json
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
    format_rows,
    format_values,
    read_csv,
    read_table,
)
from .engines import (
    EngineConfig,
    EngineFailure,
    SubstantiveModelError,
    default_covariate_specs,
    run_fcs,
    run_smcfcs,
)
from .fitters import FitError
from .formula import FormulaError, parse_formula
from .pooling import PoolError, fit_each, pool
from .simlab import ScenarioConfig, builtin_scenarios, run_scenario
from .substantive import CovariateModelSpec, covariate_family

__all__ = ["main"]

FAMILY_FLAGS = {"linear": "normal_linear", "logistic": "logistic", "cox": "cox"}
CUMHAZ_NAME = "_cumhaz"  # reserved helper column for chained equations on survival data


class CliError(Exception):
    """Validation failure; maps to exit code 2."""


def _fail(flag: str, message: str):
    raise CliError(f"{flag}: {message}")


# ---------------------------------------------------------------------------
# schema and data files

def read_schema(path):
    """Schema CSV with header name,kind,role."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        _fail("--schema", str(exc))
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or set(reader.fieldnames) != {"name", "kind", "role"}:
            _fail("--schema", "header must be exactly: name,kind,role")
        schema = []
        for row in reader:
            try:
                kind = VariableKind(row["kind"])
                role = VariableRole(row["role"])
            except ValueError as exc:
                _fail("--schema", str(exc))
            if row["name"] == "_imp":
                _fail("--schema", "column name _imp is reserved")
            schema.append((row["name"], kind, role))
    if not schema:
        _fail("--schema", "no columns defined")
    return schema


def _load_dataset(args, schema):
    tokens = tuple(args.missing_token) if args.missing_token else DEFAULT_MISSING_TOKENS
    try:
        return read_csv(args.data, schema, missing_tokens=tokens)
    except OSError as exc:
        _fail("--data", str(exc))
    except DataError as exc:
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
    labels, starts, counts = np.unique(imp, return_index=True, return_counts=True)
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
        cumhaz = None
        if args.method == "fcs" and any(
            c.role is VariableRole.TIME for c in d.columns
        ):
            cumhaz = CUMHAZ_NAME
        return default_covariate_specs(d, args.method, cumhaz_column=cumhaz), cumhaz
    specs = []
    cumhaz = None
    for text in args.covmodel:
        try:
            f = parse_formula(text)
        except FormulaError as exc:
            _fail("--covmodel", str(exc))
        if f.is_survival:
            _fail("--covmodel", "covariate model target must be a single column")
        target = f.response
        if not d.has_column(target):
            _fail("--covmodel", f"unknown target column {target!r}")
        if any(v == CUMHAZ_NAME for t in f.terms for v in t.variables):
            cumhaz = CUMHAZ_NAME
        try:
            specs.append(CovariateModelSpec(
                target=target, family=covariate_family(d.column(target).kind),
                predictors=f.terms, intercept=f.intercept,
            ))
        except ValueError as exc:
            _fail("--covmodel", str(exc))
    return tuple(specs), cumhaz


def cmd_impute(args) -> int:
    schema = read_schema(args.schema)
    d = _load_dataset(args, schema)
    if args.m < 1:
        _fail("--m", "must be >= 1")
    if args.iter is not None and args.iter < 1:
        _fail("--iter", "must be >= 1")
    if args.method == "smcfcs":
        if not args.smodel:
            _fail("--smodel", "required when --method smcfcs")
        if not args.family:
            _fail("--family", "required when --method smcfcs")
        try:
            formula = parse_formula(args.smodel)
        except FormulaError as exc:
            _fail("--smodel", str(exc))
        substantive = (FAMILY_FLAGS[args.family], formula)
    else:
        substantive = None
    specs, cumhaz = _covariate_specs_from_flags(args, d)
    try:
        config = EngineConfig(
            method=args.method,
            m=args.m,
            iterations=args.iter,
            seed=args.seed,
            substantive=substantive,
            covariate_specs=specs,
            cumhaz_column=cumhaz,
        )
    except ValueError as exc:
        _fail("--method", str(exc))
    try:
        if args.method == "fcs":
            result = run_fcs(d, config)
        else:
            result = run_smcfcs(d, config)
    except SubstantiveModelError as exc:
        _fail("--smodel", str(exc))
    except DataError as exc:
        _fail("--covmodel", str(exc))
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
    if not 0.0 < args.level < 1.0:
        _fail("--level", "must be strictly between 0 and 1")
    schema = read_schema(args.schema)
    datasets = _read_long_csv(args.data, schema)
    if len(datasets) < 2:
        _fail("--data", "pooling needs at least 2 imputations")
    try:
        formula = parse_formula(args.smodel)
    except FormulaError as exc:
        _fail("--smodel", str(exc))
    family = FAMILY_FLAGS[args.family]
    print(
        "note: estimates from imputed data are reliable only when the imputation "
        "model is compatible with, or richer than, the model fitted here",
        file=sys.stderr,
    )
    try:
        estimates, variances = fit_each(datasets, family, formula)
    except FormulaError as exc:
        _fail("--smodel", str(exc))
    pooled = pool(estimates, variances, level=args.level, terms=formula.labels())
    atomic_write_text(args.out, pooled.to_csv_text())
    return 0


# ---------------------------------------------------------------------------
# simulate

def _load_scenario(args) -> ScenarioConfig:
    if args.reps is not None and args.reps < 1:
        _fail("--reps", "must be >= 1")
    catalog = builtin_scenarios()
    if args.scenario in catalog:
        cfg = catalog[args.scenario]
    elif os.path.exists(args.scenario):
        with open(args.scenario) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                _fail("--scenario", f"bad JSON: {exc}")
        if not isinstance(raw, dict):
            _fail("--scenario", "JSON must be an object of ScenarioConfig fields")
        raw.setdefault("name", os.path.splitext(os.path.basename(args.scenario))[0])
        if "methods" in raw:
            raw["methods"] = tuple(raw["methods"])
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
    cfg = _load_scenario(args)
    if args.threads < 1:
        _fail("--threads", "must be >= 1")
    summary = run_scenario(cfg, threads=args.threads)
    atomic_write_text(args.out, summary.to_csv_text())
    print(f"{cfg.name}: {summary.n_used}/{summary.n_reps} replications pooled",
          file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smcimpute",
        description="Multiple imputation of partially observed regression covariates",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("impute", help="impute a dataset, writing stacked imputations")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--method", required=True, choices=("fcs", "smcfcs"))
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--iter", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--family", choices=tuple(FAMILY_FLAGS))
    p.add_argument("--smodel")
    p.add_argument("--covmodel", action="append", default=[])
    p.add_argument("--missing-token", action="append", default=[])
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("analyze", help="fit a model to stacked imputations and pool")
    p.add_argument("--data", required=True, help="long-format CSV with an _imp column")
    p.add_argument("--schema", required=True)
    p.add_argument("--family", required=True, choices=tuple(FAMILY_FLAGS))
    p.add_argument("--smodel", required=True)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="run a simulation scenario")
    p.add_argument("--scenario", required=True, help="builtin name or JSON config path")
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EngineFailure, FitError, PoolError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
