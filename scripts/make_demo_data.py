#!/usr/bin/env python3
"""Generate a small demo dataset for the CLI walkthrough.

Writes quad.csv (a quadratic-outcome dataset with ~30% of x missing at
random) and schema.csv next to it.
"""

import argparse
from pathlib import Path

from smcimpute.dataset import write_csv, write_table
from smcimpute.rng import stream
from smcimpute.simlab import apply_mcar, gen_quadratic


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--outdir", type=Path, default=Path("."))
    args = ap.parse_args()

    d = gen_quadratic("normal", args.n, stream(args.seed, "demo-data"))
    d = apply_mcar(d, 0.7, stream(args.seed, "demo-mask"))
    args.outdir.mkdir(parents=True, exist_ok=True)
    write_csv(d, args.outdir / "quad.csv")
    write_table(args.outdir / "schema.csv", ("name", "kind", "role"),
                [("x", "continuous", "partial_covariate"), ("y", "continuous", "outcome")])
    print(f"wrote {args.outdir / 'quad.csv'} and {args.outdir / 'schema.csv'}")


if __name__ == "__main__":
    main()
