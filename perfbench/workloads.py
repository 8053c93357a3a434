"""The benchmark's workloads: seeded inputs, the ops that call the program, output checks.

Every op calls a public entry point of smcimpute through its module
attribute (`simlab.run_scenario`, `cli.main`), so a traced run sees the
same calls through its wrappers.  Inputs depend only on the benchmark seed
and the op index.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import replace

import numpy as np

from setup_probe import SCENARIOS

# cli-n100k sizes
CLI_ROWS = 100_000
CLI_M = 5
CLI_P_OBS = 0.7  # 30% of each partial covariate's cells missing completely at random

IMPUTE_SCHEMA = (
    ("x1", "binary", "partial_covariate"),
    ("x2", "continuous", "partial_covariate"),
    ("y", "continuous", "outcome"),
)
ANALYZE_SCHEMA = (
    ("x1", "binary", "partial_covariate"),
    ("x2", "continuous", "partial_covariate"),
    ("w", "continuous", "time"),
    ("d", "binary", "event"),
)


class OpFailure(Exception):
    """An op that returned without raising but failed: non-zero exit, excluded
    replication, or an output check.  `key` groups failures in the record."""

    def __init__(self, key, message):
        super().__init__(message)
        self.key = key


def op_seed(seed: int, index: int) -> int:
    """The program's seed for op `index` of a run with benchmark seed `seed`."""
    return seed * 1_000_000 + index


# ---------------------------------------------------------------------------
# simulation workloads

class SimWorkload:
    """One replication of a builtin scenario per op, cycling through methods."""

    # op kind -> lab method
    METHOD = {"fcs": "fcs_linear", "jav": "jav", "smcfcs": "smcfcs"}

    def __init__(self, scenario, kinds, seed):
        from smcimpute import simlab

        self.simlab = simlab
        self.cfg = simlab.builtin_scenarios()[scenario]
        self.kinds = kinds
        self.seed = seed
        self.smcfcs_estimates: list[list[float]] = []

    def run(self, kind, index):
        cfg = replace(self.cfg, reps=1, seed=op_seed(self.seed, index),
                      methods=(self.METHOD[kind],))
        return self.simlab.run_scenario(cfg, threads=1)

    def check(self, kind, summary):
        if summary.n_used == 0:
            raise OpFailure("excluded", "the lab excluded the replication (n_used == 0)")
        means = [row.mean for row in summary.rows]
        if not all(math.isfinite(v) for v in means):
            raise OpFailure("check", f"non-finite pooled estimate {means}")
        if kind == "smcfcs":
            self.smcfcs_estimates.append(means)

    def finish(self) -> list[str]:
        """Run-level check: the mean smcfcs estimate of each coefficient lies
        within 4 Monte-Carlo standard errors of the scenario's truth.  fcs and
        jav are biased by design and get only the per-op finiteness check."""
        est = np.asarray(self.smcfcs_estimates)
        if est.shape[0] < 2:
            return []
        _, _, truth, labels = self.simlab.scenario_truth(self.cfg)
        mean = est.mean(axis=0)
        se = est.std(axis=0, ddof=1) / math.sqrt(est.shape[0])
        return [
            f"smcfcs {label}: mean {m:.4f} is {abs(m - t) / s:.1f} MC SEs from truth {t}"
            for label, m, t, s in zip(labels, mean, truth, se)
            if abs(m - t) > 4.0 * s
        ]


# ---------------------------------------------------------------------------
# command-line workload

def _format(values) -> list[str]:
    return [repr(v) for v in np.asarray(values, dtype=float).tolist()]


def _write_table(path, header, columns):
    lines = [",".join(header)]
    lines.extend(",".join(cells) for cells in zip(*columns))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_schema(path, schema):
    _write_table(path, ("name", "kind", "role"), list(zip(*schema)))


def write_cli_inputs(directory, seed, n=CLI_ROWS, m=CLI_M):
    """Write the cli-n100k input files for `seed` into `directory`.

    impute.csv: n rows of the interaction design with a binary x1, cells of
    x1 and x2 missing completely at random.  analyze_long.csv: m completed
    copies of one survival dataset, observed cells kept and missing cells
    drawn from the generating law, stacked with an _imp column.
    """
    from smcimpute import simlab

    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    d = simlab.apply_mcar(simlab.gen_interaction("bern_normal", n, rng), CLI_P_OBS, rng)
    columns = []
    for name, _, _ in IMPUTE_SCHEMA:
        col = d.column(name)
        cells = _format(np.where(col.observed, col.values, 0.0))
        columns.append([c if o else "" for c, o in zip(cells, col.observed.tolist())])
    _write_table(os.path.join(directory, "impute.csv"), [s[0] for s in IMPUTE_SCHEMA], columns)
    _write_schema(os.path.join(directory, "impute_schema.csv"), IMPUTE_SCHEMA)

    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    d = simlab.apply_mcar(simlab.gen_cox(n, rng), CLI_P_OBS, rng)
    x1, x2 = d.column("x1"), d.column("x2")
    w, event = _format(d.column("w").values), _format(d.column("d").values)
    imp, c1, c2 = [], [], []
    for k in range(1, m + 1):
        x1_k = np.where(x1.observed, x1.values, (rng.random(n) < 0.5).astype(float))
        x2_k = np.where(x2.observed, x2.values, rng.normal(x1_k, 1.0))
        imp += [str(k)] * n
        c1 += _format(x1_k)
        c2 += _format(x2_k)
    _write_table(os.path.join(directory, "analyze_long.csv"), ("_imp", "x1", "x2", "w", "d"),
                 [imp, c1, c2, w * m, event * m])
    _write_schema(os.path.join(directory, "analyze_schema.csv"), ANALYZE_SCHEMA)


def call_cli(argv):
    """cli.main(argv) with standard error captured: (exit code, stderr text).

    An exception that escapes main propagates to the caller.
    """
    from smcimpute import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def exit_failure(code, stderr):
    lines = [line for line in stderr.splitlines() if line.strip()]
    return OpFailure(f"exit {code}", lines[-1] if lines else "")


def check_pooled_csv(path):
    """The pooled table is finite with df > 0 (df = inf is the program's
    documented limit when the between-imputation variance is zero)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if header != ["term", "estimate", "std_error", "df", "ci_low", "ci_high"] or not rows:
        raise OpFailure("check", f"pooled CSV has header {header} and {len(rows)} rows")
    for row in rows:
        est, se, df, lo, hi = (float(v) for v in row[1:])
        if not all(math.isfinite(v) for v in (est, se, lo, hi)) or not df > 0:
            raise OpFailure("check", f"pooled row {row} is not finite with df > 0")


class CliWorkload:
    """Alternates `impute` and `analyze` through cli.main on the files of
    write_cli_inputs."""

    kinds = ("impute", "analyze")

    def __init__(self, directory, seed, m=CLI_M):
        self.dir = directory
        self.seed = seed
        self.m = m
        self.data = os.path.join(directory, "impute.csv")
        raw = np.genfromtxt(self.data, delimiter=",", skip_header=1)
        self.input_values = raw.reshape(-1, len(IMPUTE_SCHEMA))
        self.imputed = os.path.join(directory, "imputed.csv")
        self.pooled = os.path.join(directory, "pooled.csv")

    def run(self, kind, index):
        if kind == "impute":
            out = self.imputed
            argv = ["impute", "--data", self.data,
                    "--schema", os.path.join(self.dir, "impute_schema.csv"),
                    "--method", "smcfcs", "--family", "linear",
                    "--smodel", "y ~ x1 + x2 + x1*x2", "--m", str(self.m), "--iter", "10",
                    "--seed", str(op_seed(self.seed, index)), "--out", out]
        else:
            out = self.pooled
            argv = ["analyze", "--data", os.path.join(self.dir, "analyze_long.csv"),
                    "--schema", os.path.join(self.dir, "analyze_schema.csv"),
                    "--family", "cox", "--smodel", "surv(w,d) ~ x1 + x2", "--out", out]
        if os.path.exists(out):
            os.unlink(out)
        return call_cli(argv)

    def check(self, kind, output):
        code, stderr = output
        if code != 0:
            raise exit_failure(code, stderr)
        if kind == "analyze":
            check_pooled_csv(self.pooled)
        else:
            self._check_imputed()

    def _check_imputed(self):
        """M x n rows, observed cells unchanged, no NaN, binary columns 0/1."""
        with open(self.imputed) as fh:
            header = fh.readline().strip()
        expected = ",".join(["_imp"] + [s[0] for s in IMPUTE_SCHEMA])
        if header != expected:
            raise OpFailure("check", f"imputed header {header!r}, expected {expected!r}")
        table = np.loadtxt(self.imputed, delimiter=",", skiprows=1, ndmin=2)
        n = self.input_values.shape[0]
        if table.shape != (self.m * n, len(IMPUTE_SCHEMA) + 1):
            raise OpFailure("check", f"imputed table has shape {table.shape}, "
                                     f"expected {(self.m * n, len(IMPUTE_SCHEMA) + 1)}")
        if np.isnan(table).any():
            raise OpFailure("check", "imputed table contains NaN")
        observed = ~np.isnan(self.input_values)
        for k in range(1, self.m + 1):
            block = table[(k - 1) * n:k * n]
            if not np.all(block[:, 0] == k):
                raise OpFailure("check", f"imputation {k} rows are not contiguous")
            values = block[:, 1:]
            if not np.array_equal(values[observed], self.input_values[observed]):
                raise OpFailure("check", f"imputation {k} changed observed cells")
            for j, (_, kind, _) in enumerate(IMPUTE_SCHEMA):
                if kind == "binary" and not np.isin(values[:, j], (0.0, 1.0)).all():
                    raise OpFailure("check", f"imputation {k}: binary column outside 0/1")

    def finish(self) -> list[str]:
        return []


# ---------------------------------------------------------------------------

WORKLOADS = ("sim-interact", "sim-cox", "cli-n100k")
SIM_KINDS = {"sim-interact": ("fcs", "jav", "smcfcs"), "sim-cox": ("fcs", "smcfcs")}


def make_workload(workload, directory, seed):
    if workload == "cli-n100k":
        return CliWorkload(directory, seed)
    return SimWorkload(SCENARIOS[workload], SIM_KINDS[workload], seed)
