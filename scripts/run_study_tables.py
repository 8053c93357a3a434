#!/usr/bin/env python3
"""Run the builtin simulation studies and print summary tables.

By default runs every builtin scenario, study by study, at desk scale (200
replications); pass --reps 1000 for the full tables, or --scenario to run
a single one.  Each study's table shows the coefficients its `Study` record in
`smcimpute.simlab.STUDIES` reports.  True coefficient values are 1 for every
reported parameter, so bias reads directly off the mean column.
"""

import argparse
import time
from dataclasses import replace

from smcimpute.simlab import STUDIES, builtin_scenarios, run_scenario


def main():
    catalog = builtin_scenarios()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--reps", type=int, default=200)
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--seed", type=int, default=20120601)
    ap.add_argument("--scenario", choices=catalog, metavar="NAME",
                    help="run a single builtin scenario")
    args = ap.parse_args()

    for name in [args.scenario] if args.scenario else catalog:
        cfg = replace(catalog[name], reps=args.reps, seed=args.seed)
        t0 = time.time()
        summary = run_scenario(cfg, threads=args.threads)
        elapsed = time.time() - t0
        print(f"\n{name}  ({summary.n_used}/{summary.n_reps} replications, "
              f"{elapsed:.0f}s)")
        print(f"  {'method':12s} {'parameter':10s} {'mean':>8s} {'sd':>7s} {'cov%':>6s}")
        for method in cfg.methods:
            for p in STUDIES[cfg.dgp].reported:
                row = summary.row(method, p)
                print(f"  {method:12s} {p:10s} {row.mean:8.3f} {row.sd:7.3f} "
                      f"{row.coverage:6.1f}")


if __name__ == "__main__":
    main()
