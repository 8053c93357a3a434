#!/usr/bin/env python3
"""Write the fixed-seed output set and print a sha256 prefix for each file.

    python scripts/fixed_seed_digests.py OUTDIR

The set is 44 files: the CSV inputs of four datasets (linear quad, n=400;
logistic with two partial covariates, n=300; Cox, n=300; a binary x whose
logit is 0.3 (bp - 130) with bp ~ N(130, 3) complete, n=300), `impute --m 5
--iter 5 --seed 3` of each with smcfcs and, except for the bp data, with fcs,
plus their `.diag.csv` files, the same fcs impute of the Cox and bp data with
explicit `--covmodel`s (one Cox model conditions on `_cumhaz`) plus its
`.diag.csv`, `analyze` of each smcfcs output, and `simulate --reps 2 --seed 7
--threads 1` of every builtin scenario.  The bp data keeps a covariate far
from zero, where a logistic intercept is about -39.  Each line of output is
`name sha256[:12]`.  Two runs, or two versions of the package, produce the
same bytes exactly when they print the same lines; run an older checkout
through this script by putting its `src` on PYTHONPATH.
"""

import argparse
import hashlib
from pathlib import Path

import numpy as np
from scipy.special import expit

from smcimpute.cli import main as cli_main
from smcimpute.dataset import Column, Dataset, VariableKind, VariableRole, write_csv
from smcimpute.rng import stream
from smcimpute.simlab import apply_mcar, builtin_scenarios, gen_cox, gen_quadratic

SMODELS = {  # dataset: (--family, --smodel)
    "quad": ("linear", "y ~ x + x^2"),
    "logit": ("logistic", "y ~ x1 + x2"),
    "cox": ("cox", "surv(w,d) ~ x1 + x2"),
    "bp": ("linear", "y ~ x + bp"),
}
COVMODELS = {  # dataset: the --covmodel flags of its fcs-covmodel impute
    "cox": ("x1 ~ x2 + d", "x2 ~ x1 + d + _cumhaz"),
    "bp": ("x ~ bp",),
}
IMPUTES = {  # dataset: the labels of its impute runs, in output order
    "quad": ("fcs", "smcfcs"),
    "logit": ("fcs", "smcfcs"),
    "cox": ("fcs", "smcfcs", "fcs-covmodel"),
    "bp": ("fcs-covmodel", "smcfcs"),
}


def gen_logistic(n, rng):
    """Binary x1, x2 ~ N(x1, 1) and a binary outcome y ~ Bernoulli(expit(-0.5 + x1 + 0.5 x2))."""
    x1 = (rng.random(n) < 0.5).astype(float)
    x2 = rng.normal(x1, 1.0)
    y = (rng.random(n) < expit(-0.5 + x1 + 0.5 * x2)).astype(float)
    full = np.ones(n, dtype=bool)
    return Dataset((
        Column("x1", VariableKind.BINARY, VariableRole.PARTIAL_COVARIATE, x1, full.copy()),
        Column("x2", VariableKind.CONTINUOUS, VariableRole.PARTIAL_COVARIATE, x2, full.copy()),
        Column("y", VariableKind.BINARY, VariableRole.OUTCOME, y, full),
    ))


def gen_bp(n, rng):
    """bp ~ N(130, 3), binary x ~ Bernoulli(expit(0.3 (bp - 130))), y ~ N(x + 0.1 (bp - 130), 1)."""
    bp = rng.normal(130.0, 3.0, n)
    x = (rng.random(n) < expit(0.3 * (bp - 130.0))).astype(float)
    y = rng.normal(x + 0.1 * (bp - 130.0), 1.0)
    full = np.ones(n, dtype=bool)
    return Dataset((
        Column("x", VariableKind.BINARY, VariableRole.PARTIAL_COVARIATE, x, full.copy()),
        Column("bp", VariableKind.CONTINUOUS, VariableRole.COMPLETE_COVARIATE, bp, full.copy()),
        Column("y", VariableKind.CONTINUOUS, VariableRole.OUTCOME, y, full),
    ))


def run_cli(argv):
    code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")


def write_set(outdir: Path) -> list[Path]:
    """Write every file of the set into `outdir`; returns them in a fixed order."""
    datasets = {
        "quad": gen_quadratic("normal", 400, stream(7, "quad")),
        "logit": gen_logistic(300, stream(7, "logit")),
        "cox": gen_cox(300, stream(7, "cox")),
        "bp": gen_bp(300, stream(7, "bp")),
    }
    files = []
    for name, d in datasets.items():
        d = apply_mcar(d, 0.7, stream(7, name, "mask"))
        data, schema = outdir / f"{name}.csv", outdir / f"{name}.schema.csv"
        write_csv(d, data)
        schema.write_text("name,kind,role\n" + "".join(
            f"{c.name},{c.kind.value},{c.role.value}\n" for c in d.columns))
        files.append(data)
        family, smodel = SMODELS[name]
        runs = {
            "fcs": ("fcs", []),
            "smcfcs": ("smcfcs", ["--family", family, "--smodel", smodel]),
            "fcs-covmodel": ("fcs", [arg for text in COVMODELS.get(name, ())
                                     for arg in ("--covmodel", text)]),
        }
        for label in IMPUTES[name]:
            method, extra = runs[label]
            out = outdir / f"{name}.{label}.csv"
            run_cli(["impute", "--data", str(data), "--schema", str(schema),
                     "--method", method, "--m", "5", "--iter", "5", "--seed", "3",
                     "--out", str(out), *extra])
            files += [out, outdir / f"{out.name}.diag.csv"]
        pooled = outdir / f"{name}.analyze.csv"
        run_cli(["analyze", "--data", str(outdir / f"{name}.smcfcs.csv"),
                 "--schema", str(schema), "--family", family, "--smodel", smodel,
                 "--out", str(pooled)])
        files.append(pooled)
    for scenario in sorted(builtin_scenarios()):
        out = outdir / f"simulate.{scenario}.csv"
        run_cli(["simulate", "--scenario", scenario, "--reps", "2", "--seed", "7",
                 "--threads", "1", "--out", str(out)])
        files.append(out)
    return files


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("outdir", type=Path)
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    for path in write_set(args.outdir):
        print(path.name, hashlib.sha256(path.read_bytes()).hexdigest()[:12])


if __name__ == "__main__":
    main()
