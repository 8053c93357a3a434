"""Benchmark of smcimpute: one workload, one run, every metric with its unit.

    python3 perfbench/run.py --workload {sim-interact,sim-cox,cli-n100k}
                             --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's src directory.  The run generates the
workload's inputs from the seed, times set-up in fresh processes (untraced
runs only), then runs the workload in a fresh worker process (worker.py).
It prints a table of every metric, and as its last line one JSON object
with the metrics that BENCHMARK.json names: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1.  The full record (failures by
op kind, rates, machine) is written to perfbench/results/.

Exit status 0 means the benchmark ran, even if ops of the program failed:
those are counted in the record and in `failed`.  A non-zero status means
the benchmark itself could not run, for example with no program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
RESULTS = os.path.join(HERE, "results")

sys.path[:0] = [HERE, SRC]

from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, write_cli_inputs  # noqa: E402

SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170.0  # the whole run must end within 180 s

# (name, unit) of the end-to-end metrics reported on every workload
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"))


def _env(work):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = work
    return env


def setup_seconds(workload, env):
    """Median of SETUP_SAMPLES timed set-ups, each in a fresh process.  The
    median also discards the first sample of a fresh checkout, which pays
    for compiling bytecode."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def _table(record):
    rows = []
    for name, (value, unit) in record["report"].items():
        rows.append(f"  {name:<44} {value:>14.6g} {unit}")
    for kind, row in record["ops"].items():
        rate = row.get("per_s")
        rows.append(f"  {kind + '.per_s':<44} {rate if rate is not None else float('nan'):>14.6g} 1/s"
                    f"   (median {row.get('median_s', float('nan')):.4g} s over "
                    f"{row.get('samples', 0)} untraced ops; {row['failed']}/{row['attempted']} failed)")
        for key, entry in row["errors"].items():
            rows.append(f"      {key}: {entry['count']}x, first: {entry['first'][:100]}")
    return "\n".join(rows)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "smcimpute", "__init__.py")):
        print(f"error: no program to benchmark: {os.path.join(SRC, 'smcimpute')} is missing",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(WORK, f"{name}-{os.getpid()}")
    os.makedirs(work)
    os.makedirs(RESULTS, exist_ok=True)
    record_path = os.path.join(RESULTS, name + ".json")
    env = _env(work)
    try:
        if args.workload == "cli-n100k":
            write_cli_inputs(work, args.seed)
        setup = None
        if not args.trace:
            setup = setup_seconds(args.workload, env)
        budget = WORKER_TIMEOUT_S - (time.perf_counter() - started)
        subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--trace", str(args.trace), "--work", work, "--record", record_path],
            env=env, cwd=ROOT, timeout=budget, check=True,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    with open(record_path) as fh:
        record = json.load(fh)
    if args.trace:
        record["report"] = {n: (record["per_layer"][n], unit) for n, unit, _ in PER_LAYER}
    else:
        record["setup_s"], record["setup_samples_s"] = setup
        record["report"] = {n: (record[n], unit) for n, unit in END_TO_END}
    record["run_s"] = time.perf_counter() - started
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"{args.workload} seed {args.seed}: {record['attempted']} ops, "
          f"{record['failed']} failed, ops_failed_frac {record['ops_failed_frac']:.4g}; "
          f"correct={record['correct']}; record {os.path.relpath(record_path, ROOT)}")
    print(_table(record))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in record["report"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
