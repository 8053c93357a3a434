"""The workload process: set up, run the closed loop, check outputs, write a record.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
                                --work DIR --record FILE

run.py starts it as a fresh process with the repository's src directory on
PYTHONPATH; DIR holds the workload's generated input files.  One client
runs the workload's ops in turn, each after the previous one returns,
until S seconds have passed (and every op kind has run at least once).
With --trace 1, alternate cycles of ops run traced and untraced, at least
two cycles, so the record shows the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from setup_probe import setup  # noqa: E402
from tracing import Tracer, function_table, layer_metrics  # noqa: E402
from workloads import OpFailure, make_workload  # noqa: E402


def error_key(exc: BaseException) -> str:
    """How a failure is grouped in the record: the OpFailure key, the exit
    code of a SystemExit, or the exception's type name."""
    if isinstance(exc, OpFailure):
        return exc.key
    if isinstance(exc, SystemExit):
        return f"exit {exc.code}"
    return type(exc).__name__


class Op(NamedTuple):
    kind: str
    seconds: float  # the program call only, not the output check
    error: str | None  # error_key of a failed op
    traced: bool


def run_loop(workload, seconds, tracer=None, clock=time.perf_counter):
    """Run the workload's ops in turn until `seconds` have passed.

    Returns (ops, messages): one Op per op, and the first message of each
    (kind, error key).  An exception that escapes the program call, or an
    OpFailure from the check, makes the op failed; the loop goes on with
    the next op.  Ops are kept small because a fast-failing workload runs
    tens of thousands of them and they count towards peak memory.
    """
    kinds = workload.kinds
    min_ops = len(kinds) * (2 if tracer is not None else 1)
    ops = []
    messages = {}
    deadline = clock() + seconds
    index = 0
    while clock() < deadline or index < min_ops:
        kind = kinds[index % len(kinds)]
        traced = tracer is not None and (index // len(kinds)) % 2 == 0
        error = None
        output = None
        if traced:
            tracer.install(index)
            close = tracer.root_span(f"op.{kind}", index)
        start = clock()
        try:
            output = workload.run(kind, index)
        except (Exception, SystemExit) as exc:
            error = error_key(exc)
            messages.setdefault((kind, error), str(exc))
        elapsed = clock() - start
        if traced:
            close()
            tracer.uninstall()
        if error is None:
            try:
                workload.check(kind, output)
            except Exception as exc:
                error = error_key(exc)
                messages.setdefault((kind, error), str(exc))
        ops.append(Op(kind, elapsed, error, traced))
        index += 1
    return ops, messages


def timing_summary(seconds):
    """Median and the highest of p90/p99 that has at least ten samples beyond it."""
    values = sorted(seconds)
    n = len(values)
    out = {"samples": n, "median_s": statistics.median(values)}
    for pct in (99, 90):
        rank = -(-pct * n // 100)  # ceil(pct * n / 100): nearest-rank percentile
        if n - rank >= 10:
            out[f"p{pct}_s"] = values[rank - 1]
            break
    return out


def summarize(ops, messages, kinds):
    """Per op kind: attempted and failed counts, the failures grouped by key
    with a count and the first message, and the rate.

    per_s is the success share divided by the median wall seconds per
    attempted op, so a failed op counts as zero work and one op slowed by
    the machine does not swing the rate.  Traced ops are left out of the
    timings.
    """
    out = {}
    for kind in kinds:
        mine = [op for op in ops if op.kind == kind]
        errors: dict[str, dict] = {}
        for op in mine:
            if op.error is not None:
                entry = errors.setdefault(
                    op.error, {"count": 0, "first": messages[(kind, op.error)]})
                entry["count"] += 1
        failed = sum(e["count"] for e in errors.values())
        row = {"attempted": len(mine), "failed": failed, "errors": errors}
        untraced = [op for op in mine if not op.traced]
        if untraced:
            row.update(timing_summary([op.seconds for op in untraced]))
            ok = sum(op.error is None for op in untraced)
            row["per_s"] = (ok / len(untraced)) / row["median_s"]
        out[kind] = row
    return out


def tracing_overhead(ops):
    """(seconds per traced op, fraction): traced minus untraced median wall
    time per op kind, weighted by the traced ops of each kind."""
    extra = base = 0.0
    n = 0
    for kind in {op.kind for op in ops}:
        traced = [op.seconds for op in ops if op.kind == kind and op.traced]
        plain = [op.seconds for op in ops if op.kind == kind and not op.traced]
        if traced and plain:
            extra += len(traced) * (statistics.median(traced) - statistics.median(plain))
            base += len(traced) * statistics.median(plain)
            n += len(traced)
    return (extra / n if n else 0.0), (extra / base if base else 0.0)


def _blas_threads():
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_record(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "smcimpute", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--record", required=True)
    args = p.parse_args(argv)

    setup(args.workload)
    workload = make_workload(args.workload, args.work, args.seed)
    tracer = Tracer() if args.trace else None
    loop_start = time.perf_counter()
    ops, messages = run_loop(workload, args.seconds, tracer)
    loop_s = time.perf_counter() - loop_start
    run_failures = workload.finish()

    failed = sum(op.error is not None for op in ops)
    check_failed = sum(op.error == "check" for op in ops)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "loop_s": loop_s,
        "attempted": len(ops),
        "failed": failed,
        "ops_failed_frac": failed / len(ops),
        "correct": check_failed == 0 and not run_failures,
        "run_check_failures": run_failures,
        "ops": summarize(ops, messages, workload.kinds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_record(args.seed),
    }
    if tracer is not None:
        traced_ops = sum(op.traced for op in ops)
        table = function_table(tracer.spans)
        overhead_s, overhead_frac = tracing_overhead(ops)
        record["traced_ops"] = traced_ops
        record["functions"] = table
        record["per_layer"] = layer_metrics(table, tracer.counts, traced_ops,
                                            overhead_s, overhead_frac)
        spans_path = os.path.splitext(args.record)[0] + ".spans.csv.gz"
        tracer.write_spans(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
    with open(args.record, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
