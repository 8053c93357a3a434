"""The closed loop and its failure accounting."""

import itertools

import pytest

from workloads import OpFailure
from worker import run_loop, summarize, timing_summary


class FakeWorkload:
    """'ok' succeeds, 'boom' raises, 'exit' returns a non-zero exit status,
    'argv' exits through SystemExit like an argparse error."""

    kinds = ("ok", "boom", "exit", "argv")

    def run(self, kind, index):
        if kind == "boom":
            raise AttributeError("'Diagnostics' object has no attribute 'snapshot'")
        if kind == "argv":
            raise SystemExit(2)
        return 3 if kind == "exit" else 0

    def check(self, kind, code):
        if code:
            raise OpFailure(f"exit {code}", "failure: substantive fit failed for imputations [2]")


def ticking_clock(step=1.0):
    """A clock that advances `step` seconds per reading."""
    counter = itertools.count()
    return lambda: next(counter) * step


def test_failed_ops_are_counted_and_add_no_work():
    ops, messages = run_loop(FakeWorkload(), seconds=40.0, clock=ticking_clock())
    summary = summarize(ops, messages, FakeWorkload.kinds)
    assert sum(row["attempted"] for row in summary.values()) == len(ops)
    ok = summary["ok"]
    assert ok["failed"] == 0 and ok["errors"] == {}
    assert ok["median_s"] == pytest.approx(1.0)
    assert ok["per_s"] == pytest.approx(1.0)
    for kind, key, first in (
        ("boom", "AttributeError", "'Diagnostics' object has no attribute 'snapshot'"),
        ("exit", "exit 3", "failure: substantive fit failed for imputations [2]"),
        ("argv", "exit 2", "2"),
    ):
        row = summary[kind]
        assert row["failed"] == row["attempted"] > 0
        assert row["per_s"] == 0.0
        assert row["errors"] == {key: {"count": row["attempted"], "first": first}}


def test_rate_is_success_share_over_median_seconds():
    class Flaky:
        kinds = ("op",)

        def run(self, kind, index):
            if index % 4 == 0:
                raise ValueError(f"op {index}")

        def check(self, kind, output):
            pass

    ops, messages = run_loop(Flaky(), seconds=80.0, clock=ticking_clock(0.5))
    row = summarize(ops, messages, Flaky.kinds)["op"]
    assert row["failed"] == len(range(0, row["attempted"], 4))
    assert row["errors"]["ValueError"]["first"] == "op 0"
    share = 1 - row["failed"] / row["attempted"]
    assert row["per_s"] == pytest.approx(share / 0.5)


def test_every_kind_runs_once_even_past_the_deadline():
    ops, _ = run_loop(FakeWorkload(), seconds=0.0, clock=ticking_clock())
    assert [op.kind for op in ops] == list(FakeWorkload.kinds)


def test_high_percentile_needs_ten_samples_beyond_it():
    assert set(timing_summary(range(99))) == {"samples", "median_s"}
    assert timing_summary(range(100))["p90_s"] == 89
    assert timing_summary(range(1000))["p99_s"] == 989


def test_traced_runs_alternate_cycles_and_open_a_root_span_per_traced_op():
    from tracing import Tracer

    tracer = Tracer()
    ops, _ = run_loop(FakeWorkload(), seconds=0.0, tracer=tracer, clock=ticking_clock())
    n = len(FakeWorkload.kinds)
    assert [op.traced for op in ops] == [True] * n + [False] * n
    assert [s[0] for s in tracer.spans] == [f"op.{k}" for k in FakeWorkload.kinds]
    assert [s[4] for s in tracer.spans] == list(range(n))
