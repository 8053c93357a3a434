"""Per-layer tracing of smcimpute from outside the program.

A `Tracer` rebinds every public function of each traced module, in every
smcimpute module that holds a reference to it (aliases included), to a
forwarding wrapper.  The wrapper records one span per call and passes
arguments, results and exceptions through unchanged; it draws no random
numbers, so a traced call returns exactly what an untraced one does.
Spans stay in memory and are written out when the run ends.

The `rng` module is not traced: it takes under 0.5% of every workload.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import sys
import time
from collections import defaultdict

LAYERS = (
    "engines", "fitters", "covariates", "formula", "substantive",
    "pooling", "dataset", "cli", "simlab",
)

# Per-layer metrics of the traced run, as (name, unit, better).  `calls` and
# `self_s` are per traced op; the rest are defined in `layer_metrics`.
PER_LAYER = (
    ("engines.run_smcfcs.self_s", "s", "lower"),
    ("engines.run_fcs.self_s", "s", "lower"),
    ("engines.smc_reject_sample.calls", "count", "lower"),
    ("engines.smc_reject_sample.self_s", "s", "lower"),
    ("engines.smc_reject_sample.proposals", "count", "lower"),
    ("engines.smc_reject_sample.accept_ratio", "ratio", "higher"),
    ("engines.smc_reject_sample.fallbacks", "count", "lower"),
    ("engines.smc_binary_probs.calls", "count", "lower"),
    ("engines.smc_binary_probs.self_s", "s", "lower"),
    ("engines.chain_retries", "count", "lower"),
    ("fitters.fit_cox.calls", "count", "lower"),
    ("fitters.fit_cox.self_s", "s", "lower"),
    ("fitters.cox_loglik.calls", "count", "lower"),
    ("fitters.cox_loglik.self_s", "s", "lower"),
    ("fitters.cox_loglik.calls_per_fit", "count", "lower"),
    ("fitters.breslow_baseline.calls", "count", "lower"),
    ("fitters.breslow_baseline.self_s", "s", "lower"),
    ("fitters.fit_logistic.calls", "count", "lower"),
    ("fitters.fit_logistic.self_s", "s", "lower"),
    ("fitters.fit_logistic.newton_iters", "count", "lower"),
    ("fitters.fit_linear.calls", "count", "lower"),
    ("fitters.fit_linear.self_s", "s", "lower"),
    ("fitters.fit_errors", "count", "lower"),
    ("covariates.sample_covariate.calls", "count", "lower"),
    ("covariates.sample_covariate.self_s", "s", "lower"),
    ("covariates.log_conditional_density.calls", "count", "lower"),
    ("covariates.log_conditional_density.self_s", "s", "lower"),
    ("covariates.fit_and_draw_arrays.self_s", "s", "lower"),
    ("formula.design_from_arrays.calls", "count", "lower"),
    ("formula.design_from_arrays.self_s", "s", "lower"),
    ("substantive.log_ratio_normal.self_s", "s", "lower"),
    ("substantive.log_ratio_cox.self_s", "s", "lower"),
    ("substantive.log_ratio_discrete.self_s", "s", "lower"),
    ("substantive.substantive_estimates.self_s", "s", "lower"),
    ("pooling.fit_each.self_s", "s", "lower"),
    ("pooling.pool.calls", "count", "lower"),
    ("pooling.pool.self_s", "s", "lower"),
    ("dataset.read_csv.self_s", "s", "lower"),
    ("dataset.read_csv.mb_per_s", "MB/s", "higher"),
    ("dataset.atomic_write_text.self_s", "s", "lower"),
    ("cli.cmd_impute.self_s", "s", "lower"),
    ("cli.cmd_analyze.self_s", "s", "lower"),
    ("simlab.run_scenario.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


# -- observers: read a call's arguments or result, never change them ----------

def _observe_reject(counts, args, kwargs, result):
    values, proposals, fallbacks = result
    counts["engines.smc_reject_sample.proposals"] += int(proposals)
    counts["engines.smc_reject_sample.fallbacks"] += int(fallbacks)
    counts["engines.smc_reject_sample.accepted"] += len(values) - int(fallbacks)


def _observe_engine(counts, args, kwargs, result):
    counts["engines.chain_retries"] += result.diagnostics.retries


def _observe_logistic(counts, args, kwargs, result):
    counts["fitters.fit_logistic.newton_iters"] += result.iterations


def _observe_read_csv(counts, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counts["dataset.read_csv.bytes"] += os.path.getsize(path)


OBSERVERS = {
    "engines.smc_reject_sample": _observe_reject,
    "engines.run_fcs": _observe_engine,
    "engines.run_smcfcs": _observe_engine,
    "fitters.fit_logistic": _observe_logistic,
    "dataset.read_csv": _observe_read_csv,
}


class Tracer:
    """Install forwarding wrappers around the traced layers and keep their spans.

    A span is [name, parent index (-1 for a root), start ns, end ns, request].
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._request = None
        self._wrappers: dict[int, tuple] | None = None  # id(original) -> (original, wrapper)
        self._patches: list[tuple] = []
        self._last_error = None
        self._fit_error = None

    def _build_wrappers(self):
        self._fit_error = importlib.import_module("smcimpute.fitters").FitError
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"smcimpute.{layer}")
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        return wrappers

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        observe = OBSERVERS.get(name)
        counts_errors = name.startswith("fitters.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0, self._request]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # one count per FitError, however many fitters it passes through
                if (counts_errors and exc is not self._last_error
                        and isinstance(exc, self._fit_error)):
                    self._last_error = exc
                    counts["fitters.fit_errors"] += 1
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self, request):
        """Rebind every traced function, wherever the program refers to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        if self._wrappers is None:
            self._wrappers = self._build_wrappers()
        self._request = request
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.partition(".")[0] != "smcimpute":
                continue
            for attr, obj in list(vars(module).items()):
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, obj))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        self._request = None

    def root_span(self, name, request):
        """Open a root span for one op; returns a function that closes it."""
        span = [name, -1, time.perf_counter_ns(), 0, request]
        self._stack.append(len(self.spans))
        self.spans.append(span)

        def close():
            span[3] = time.perf_counter_ns()
            self._stack.pop()

        return close

    def write_spans(self, path):
        """Write every span as gzip-compressed CSV: id,parent,name,start_ns,end_ns,request."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,start_ns,end_ns,request\n")
            for i, (name, parent, start, end, request) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start},{end},{request}\n")


def self_times(spans) -> list[int]:
    """Per span: its duration minus the part of its interval that its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[1] >= 0:
            children[span[1]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[2], span[3]
        covered, reach = 0, start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][2]):
            lo = max(spans[c][2], reach)
            hi = min(spans[c][3], end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out.append(end - start - covered)
    return out


def function_table(spans) -> dict[str, dict]:
    """calls, total seconds and self seconds per span name."""
    table: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (span[3] - span[2]) / 1e9
        row["self_s"] += own / 1e9
    return table


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(table, counts, n_ops, overhead_s, overhead_frac) -> dict[str, float]:
    """The PER_LAYER values: span sums and counts per traced op, plus ratios.

    A ratio whose base is zero (for example an acceptance ratio when nothing
    was proposed) is reported as 0.
    """
    out = {}
    for name, _, _ in PER_LAYER:
        head, _, quantity = name.rpartition(".")
        if quantity in ("calls", "self_s"):
            out[name] = _ratio(table.get(head, {}).get(quantity, 0), n_ops)
    out["engines.smc_reject_sample.proposals"] = _ratio(
        counts["engines.smc_reject_sample.proposals"], n_ops)
    out["engines.smc_reject_sample.fallbacks"] = _ratio(
        counts["engines.smc_reject_sample.fallbacks"], n_ops)
    out["engines.smc_reject_sample.accept_ratio"] = _ratio(
        counts["engines.smc_reject_sample.accepted"],
        counts["engines.smc_reject_sample.proposals"])
    out["engines.chain_retries"] = _ratio(counts["engines.chain_retries"], n_ops)
    out["fitters.cox_loglik.calls_per_fit"] = _ratio(
        table.get("fitters.cox_loglik", {}).get("calls", 0),
        table.get("fitters.fit_cox", {}).get("calls", 0))
    out["fitters.fit_logistic.newton_iters"] = _ratio(
        counts["fitters.fit_logistic.newton_iters"],
        table.get("fitters.fit_logistic", {}).get("calls", 0))
    out["fitters.fit_errors"] = _ratio(counts["fitters.fit_errors"], n_ops)
    out["dataset.read_csv.mb_per_s"] = _ratio(
        counts["dataset.read_csv.bytes"] / 1e6,
        table.get("dataset.read_csv", {}).get("total_s", 0.0))
    out["trace.overhead_s"] = overhead_s
    out["trace.overhead_frac"] = overhead_frac
    return out
