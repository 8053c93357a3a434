"""Self-time arithmetic, forwarding wrappers, and BENCHMARK.json agreement."""

import json
import os

import numpy as np
import pytest

import run
from tracing import PER_LAYER, Tracer, function_table, self_times
from workloads import call_cli


def span(name, parent, start, end):
    return [name, parent, start, end, 0]


def test_self_time_subtracts_child_coverage():
    spans = [
        span("root", -1, 0, 100),
        span("a", 0, 10, 40),
        span("a.inner", 1, 15, 25),
        span("b", 0, 50, 60),
    ]
    assert self_times(spans) == [60, 20, 10, 10]
    table = function_table(spans)
    assert table["root"] == {"calls": 1, "total_s": 100e-9, "self_s": 60e-9}


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        span("root", -1, 0, 100),
        span("c1", 0, 10, 40),
        span("c2", 0, 30, 50),
        span("c3", 0, 90, 120),
    ]
    assert self_times(spans)[0] == 100 - 40 - 10


def _write_long_csv(directory):
    rng = np.random.default_rng(7)
    n, m = 60, 3
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    y = 1.0 + x1 - x2 + rng.normal(size=n)
    lines = ["_imp,x1,x2,y"]
    for k in range(1, m + 1):
        x1_k = np.where(np.arange(n) % 3 == 0, rng.normal(size=n), x1)
        lines += [f"{k},{a!r},{b!r},{c!r}" for a, b, c in zip(x1_k.tolist(), x2.tolist(), y.tolist())]
    data = os.path.join(directory, "long.csv")
    with open(data, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    schema = os.path.join(directory, "schema.csv")
    with open(schema, "w") as fh:
        fh.write("name,kind,role\nx1,continuous,partial_covariate\n"
                 "x2,continuous,complete_covariate\ny,continuous,outcome\n")
    return data, schema


def test_traced_and_untraced_analyze_give_identical_output(tmp_path):
    import smcimpute.dataset
    import smcimpute.engines

    data, schema = _write_long_csv(str(tmp_path))

    def analyze(out):
        code, _ = call_cli(["analyze", "--data", data, "--schema", schema, "--family", "linear",
                            "--smodel", "y ~ x1 + x2", "--out", str(out)])
        assert code == 0
        return out.read_bytes()

    original = smcimpute.dataset.missingness_order
    plain = analyze(tmp_path / "plain.csv")
    tracer = Tracer()
    tracer.install(request=0)
    try:
        # an alias in another module is rebound too
        assert smcimpute.engines._missingness_order.__wrapped__ is original
        traced = analyze(tmp_path / "traced.csv")
    finally:
        tracer.uninstall()
    assert smcimpute.engines._missingness_order is original
    assert smcimpute.dataset.missingness_order is original
    assert traced == plain
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "cli.cmd_analyze", "pooling.fit_each", "pooling.pool",
            "fitters.fit_linear", "dataset.atomic_write_text"} <= names
    assert all(s[3] >= s[2] for s in tracer.spans)


def test_fit_errors_are_counted_once_per_exception():
    from smcimpute import fitters

    tracer = Tracer()
    tracer.install(request=0)
    try:
        with pytest.raises(fitters.FitError):
            fitters.draw_linear_posterior(
                fitters.LinearFit(beta=np.zeros(2), sigma2=1.0,
                                  xtx_inverse=-np.eye(2), n=10, k=2),
                np.random.default_rng(0))
    finally:
        tracer.uninstall()
    # raised in multivariate_normal_draw, passed up through draw_linear_posterior
    assert [s[0] for s in tracer.spans] == ["fitters.draw_linear_posterior",
                                            "fitters.multivariate_normal_draw"]
    assert tracer.counts["fitters.fit_errors"] == 1


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
