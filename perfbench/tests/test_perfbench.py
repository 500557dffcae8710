"""Tests for the benchmark's own helpers: span arithmetic, tail percentiles,
due-time latency, and the metric lists it publishes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import run, spans  # noqa: E402
from perfbench.spans import Span, attributed, covered, layer_metrics, self_times  # noqa: E402
from perfbench.stats import due_time_latency, spread, tail  # noqa: E402


def span(name, start, end, parent=None, thread="MainThread", cpu=0.0, count=()):
    return Span(name, start, end, parent, thread, cpu, count)


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    root = span("round", 0.0, 10.0)
    a = span("kernel.linearize", 1.0, 4.0, root)
    grand = span("outbox.send", 2.0, 3.0, a)
    b = span("flush", 5.0, 7.0, root)
    own = self_times([root, a, grand, b])
    assert own[id(root)] == pytest.approx(10.0 - 3.0 - 2.0)
    assert own[id(a)] == pytest.approx(3.0 - 1.0)
    assert own[id(grand)] == pytest.approx(1.0)
    assert own[id(b)] == pytest.approx(2.0)


def test_self_time_counts_overlapping_children_once():
    root = span("lookup", 0.0, 10.0)
    kids = [span("route", 1.0, 4.0, root), span("route", 3.0, 6.0, root)]
    assert self_times([root, *kids])[id(root)] == pytest.approx(10.0 - 5.0)


def test_covered_clips_to_the_window():
    assert covered([(-5.0, 2.0), (8.0, 20.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 2.0), (2.0, 3.0), (2.5, 4.0)], 0.0, 10.0) == pytest.approx(3.0)


def test_within_keeps_spans_that_start_in_a_window():
    spans_ = [span("round", 0.5, 1.0), span("round", 2.0, 2.5), span("round", 5.0, 6.0)]
    kept = spans.within(spans_, [(4.0, 7.0), (0.0, 1.5)])
    assert kept == [spans_[0], spans_[2]]


def test_attributed_uses_main_thread_roots():
    root = span("sim.step", 0.0, 8.0)
    child = span("round", 1.0, 7.0, root)
    other = span("sim.step", 8.0, 10.0, thread="repro-serve-engine")
    assert attributed([root, child, other], [(0.0, 10.0)]) == pytest.approx(0.8)


def test_layer_metrics_ratios_and_waiting():
    r1 = span("round", 0.0, 4.0, cpu=3.0)
    r2 = span("round", 4.0, 6.0, cpu=2.0)
    flush = span("flush", 0.0, 1.0, r1, count=(100, 80, 5))
    kernels = [span("kernel.linearize", 1.0, 2.0, r1, count=(7,)),
               span("kernel.probing_r", 2.0, 3.0, r1, count=(3,)),
               span("kernel.regular_action", 3.0, 3.5, r1, count=(9,))]
    send = span("outbox.send", 1.2, 1.5, kernels[0], count=(4,))
    m = layer_metrics([r1, r2, flush, *kernels, send])
    assert m["round.count"] == 2
    assert m["round.groups"] == pytest.approx(1.0)  # 2 kernel calls, 2 rounds
    assert m["round.wait_s"] == pytest.approx(1.0)
    assert m["round.self_s"] == pytest.approx(6.0 - 3.5)
    assert m["flush.keep_ratio"] == pytest.approx(0.8)
    assert m["flush.dropped"] == 5
    assert m["kernel.linearize.self_s"] == pytest.approx(1.0 - 0.3)
    assert m["kernel.linearize.rows"] == 7
    assert m["outbox.rows"] == 4
    assert m["route.queries"] == 0


def test_wrappers_record_parents_and_uninstall():
    class Layer:
        def outer(self, n):
            return self.inner(n) + 1

        def inner(self, n):
            return n * 2

        @classmethod
        def build(cls, n):
            return n

    original = Layer.__dict__["build"]
    tracer = spans.Tracer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner", counts=lambda a, k, r: (a[1],))
    tracer.wrap(Layer, "build", "build")
    assert Layer().outer(3) == 7
    assert Layer.build(5) == 5
    worker = threading.Thread(target=Layer().inner, args=(4,), name="worker")
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.uninstall()
    assert Layer.__dict__["build"] is original
    recorded = tracer.spans()
    by = {(s.name, s.thread): s for s in recorded}
    outer, inner = by["outer", "MainThread"], by["inner", "MainThread"]
    assert inner.parent is outer and outer.parent is None
    assert inner.count == (3,)
    assert by["inner", "worker"].parent is None
    assert by["build", "MainThread"].parent is None
    Layer().outer(1)
    assert len(tracer.spans()) == len(recorded) == 4


# ----------------------------------------------------------------------
# tail percentiles
# ----------------------------------------------------------------------
def test_tail_reports_p99_with_ten_beyond():
    values = [float(v) for v in range(1, 1001)]
    t = tail(values)
    assert t == {"label": "p99", "value": 990.0, "samples": 1000}
    assert sum(v > t["value"] for v in values) == 10


def test_tail_falls_back_to_the_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1, 301)]
    t = tail(values)
    assert t["label"] == "p96.6" and t["samples"] == 300
    assert sum(v > t["value"] for v in values) >= 10
    assert sum(v > t["value"] for v in values) <= 11


def test_tail_needs_more_than_ten_samples():
    assert tail([1.0] * 10) == {"label": None, "value": None, "samples": 10}
    assert tail([float(v) for v in range(11)])["value"] == 0.0


def test_spread_is_iqr_over_median():
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


# ----------------------------------------------------------------------
# open-loop timing
# ----------------------------------------------------------------------
def test_latency_and_lateness_are_timed_from_due_time():
    due = [0.0, 1.0, 2.0]
    sent = [0.0, 1.5, 2.5]  # the generator stalled half a second at t=1
    done = [0.1, 1.6, 2.6]
    latency, lateness = due_time_latency(due, sent, done)
    assert latency == pytest.approx([0.1, 0.6, 0.6])
    assert lateness == pytest.approx([0.0, 0.5, 0.5])
    with pytest.raises(ValueError):
        due_time_latency(due, sent, done[:2])


# ----------------------------------------------------------------------
# published metric lists
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert bench["per_layer"] == run.per_layer()
    measured = set(layer_metrics([])) | {
        "http.server_s", "http.plane_s", "loadgen.late_p99_ms",
        "loadgen.inflight_max", "trace.wall_s", "trace.overhead_s", "trace.attributed",
    }
    assert {m["name"] for m in run.per_layer()} == measured


def test_runner_refuses_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_star", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
