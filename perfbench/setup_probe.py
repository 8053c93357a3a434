"""Set-up of a workload: import smcimpute and run its lazy calibration.

Run as a script in a fresh process, it times that set-up and prints the
seconds:  python3 perfbench/setup_probe.py <workload>
The repository's src directory must be on PYTHONPATH.  Only the standard
library is imported before the clock starts.
"""

import sys
import time

# builtin scenario of each simulation workload
SCENARIOS = {"sim-interact": "interact-bvnormal-mar", "sim-cox": "cox-n1000"}


def setup(workload):
    """Import what the workload calls and run the calibration its first op
    would otherwise absorb (the scenario's residual variance and MAR
    intercept; the Cox scenario and the CLI have none)."""
    if workload not in SCENARIOS:
        from smcimpute import cli  # noqa: F401
        return
    from smcimpute import simlab

    cfg = simlab.builtin_scenarios()[SCENARIOS[workload]]
    if cfg.dgp != "cox":
        simlab.residual_variance(cfg.dgp, cfg.variant)
    if cfg.mechanism == "mar":
        simlab.mar_intercept(cfg.dgp, cfg.variant, cfg.p_obs)


if __name__ == "__main__":
    start = time.perf_counter()
    setup(sys.argv[1])
    print(repr(time.perf_counter() - start))
