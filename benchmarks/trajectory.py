"""Fold every ``BENCH_*.json`` trajectory into one obs manifest + gate.

The repo root accumulates append-only benchmark trajectories
(``BENCH_e22_scale.json``, ``BENCH_churn_scale.json``, ...): one entry per
recorded run, so perf numbers have a history.  This script

1. folds every trajectory file into a single ``repro.obs/manifest/v2``
   manifest (gauge ``bench_trajectory``, one sample per bench series and
   tracked metric — the same schema ``repro obs validate`` checks and
   ``repro obs diff`` consumes), and
2. regression-gates the **latest** entry of each series against its own
   history: machine-independent metrics (rounds, messages, speedups,
   overhead ratios) must stay within a per-metric noise tolerance of the
   historical median.  Wall-clock columns are folded into the manifest
   but never gated — they move with the host, not the code.

Run ``python benchmarks/trajectory.py --check`` (the perf-smoke CI step)
to fail on regressions; add ``--out DIR`` to also write
``DIR/manifest.json``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import sys
import time
from collections.abc import Sequence
from typing import Any

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.obs.manifest import MANIFEST_SCHEMA, git_revision, validate_manifest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Gated metrics: name -> (direction, relative noise tolerance).
#: ``lower`` fails when the latest value exceeds the historical median by
#: more than the tolerance; ``higher`` fails when it drops below it.
GATED: dict[str, tuple[str, float]] = {
    "rounds": ("lower", 0.25),
    "ref_rounds": ("lower", 0.25),
    "messages": ("lower", 0.25),
    "recovery_rounds": ("lower", 0.60),
    "per_event_messages": ("lower", 0.60),
    "speedup": ("higher", 0.50),
    "chaos_speedup": ("higher", 0.50),
    "fast_ratio": ("lower", 0.25),
    "ref_ratio": ("lower", 0.25),
    "overhead_ratio": ("lower", 0.35),
    # Round-phase attribution (BENCH_phases.json): the profiler must keep
    # explaining the batched engine's round wall clock, not drift blind.
    "attribution": ("higher", 0.05),
    # Serving SLO (BENCH_serve.json): converged-phase greedy-routing hop
    # percentiles are machine-independent (the overlay is seeded) — a
    # drift here means the route kernel or the stationary overlay moved.
    "p50_hops": ("lower", 0.35),
    "p99_hops": ("lower", 0.35),
}

#: Recorded (manifest-only) metrics: wall clocks and memory move with the
#: host, so they are folded for ``repro obs diff`` but never gated here.
RECORDED = (
    "fast_s",
    "ref_s",
    "seconds",
    "peak_rss_mb",
    "fast_chaos_seconds",
    "ref_chaos_seconds",
    "plain_seconds",
    "sanitized_seconds",
    "fast_bare_seconds",
    "fast_hooked_seconds",
    "ref_bare_seconds",
    "ref_hooked_seconds",
    "extra_messages",
    "overhead_frames",
    "abandoned",
    # Round-phase decomposition of the batched engine's wall clock
    # (benchmarks/phases.py; ``repro obs phases`` reads the same profiler
    # snapshot out of a recorded run's manifest).
    "wall_s",
    "attributed_s",
    "kernel_s",
    "flush_s",
    "waves_s",
    "regular_s",
    "close_s",
    # Serving SLO (benchmarks/serve_slo.py): latency and throughput move
    # with the host; storm-phase loss depends on recovery timing under
    # load.  All folded for ``repro obs diff``, none gated.
    "p50_latency_us",
    "p99_latency_us",
    "throughput_lps",
    "rounds_per_sec",
    "storm_p99_hops",
    "storm_p99_latency_us",
    "storm_lost",
    "storm_unknown",
    "hop_bound",
)

#: Row fields that identify a series within one bench trajectory.
ID_FIELDS = ("n", "n_target", "storm", "topology", "engine")


def _rows_of(entry: dict[str, Any]) -> list[dict[str, Any]]:
    rows = entry.get("rows")
    if isinstance(rows, list) and all(isinstance(r, dict) for r in rows):
        return rows
    return [entry]


def _series_labels(bench: str, row: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    labels = [("bench", bench)]
    for field in ID_FIELDS:
        if field in row:
            labels.append((field, str(row[field])))
    return tuple(labels)


def collect_series(
    paths: Sequence[str],
) -> dict[tuple[tuple[tuple[str, str], ...], str], list[float]]:
    """``(series labels, metric) -> values in entry (= recording) order``."""
    series: dict[tuple[tuple[tuple[str, str], ...], str], list[float]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            entries = json.load(handle)
        if not isinstance(entries, list):
            raise ValueError(f"{path}: trajectory must be a JSON list")
        for entry in entries:
            if not isinstance(entry, dict):
                raise ValueError(f"{path}: trajectory entry is not an object")
            bench = str(entry.get("bench") or os.path.basename(path))
            for row in _rows_of(entry):
                labels = _series_labels(bench, row)
                for metric in (*GATED, *RECORDED):
                    value = row.get(metric)
                    if isinstance(value, bool) or not isinstance(
                        value, (int, float)
                    ):
                        continue
                    series.setdefault((labels, metric), []).append(
                        float(value)
                    )
    return series


def check_regressions(
    series: dict[tuple[tuple[tuple[str, str], ...], str], list[float]],
) -> list[dict[str, Any]]:
    """Latest-vs-history gate; returns one record per failing series."""
    failures: list[dict[str, Any]] = []
    for (labels, metric), values in sorted(series.items()):
        spec = GATED.get(metric)
        if spec is None or len(values) < 2:
            continue
        direction, tolerance = spec
        history, latest = values[:-1], values[-1]
        baseline = statistics.median(history)
        if direction == "lower":
            bound = baseline * (1.0 + tolerance)
            bad = latest > bound and latest - baseline > 1.0
        else:
            bound = baseline * (1.0 - tolerance)
            bad = latest < bound
        if bad:
            failures.append(
                {
                    "series": dict(labels),
                    "metric": metric,
                    "history": history,
                    "baseline": baseline,
                    "latest": latest,
                    "bound": round(bound, 4),
                    "direction": direction,
                }
            )
    return failures


def build_manifest(
    series: dict[tuple[tuple[tuple[str, str], ...], str], list[float]],
    files: Sequence[str],
    failures: list[dict[str, Any]],
) -> dict[str, Any]:
    """One ``repro.obs/manifest/v2`` manifest over the latest entries."""
    samples = [
        {
            "labels": {**dict(labels), "metric": metric},
            "value": values[-1],
        }
        for (labels, metric), values in sorted(series.items())
    ]
    depth = [
        {
            "labels": {**dict(labels), "metric": metric},
            "value": float(len(values)),
        }
        for (labels, metric), values in sorted(series.items())
    ]
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "experiment": "bench_trajectory",
        "params": {"files": [os.path.basename(f) for f in files]},
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "started_unix": time.time(),
        "duration_s": 0.0,
        "metrics": {
            "bench_trajectory": {
                "kind": "gauge",
                "help": "latest recorded value per bench series and metric",
                "samples": samples,
            },
            "bench_trajectory_depth": {
                "kind": "gauge",
                "help": "number of recorded observations per series",
                "samples": depth,
            },
        },
        "phases": {},
        "peak_rss_bytes": None,
        "live": None,
        "result": {
            "series": len(series),
            "regressions": len(failures),
            "failures": failures,
        },
    }
    problems = validate_manifest(manifest)
    if problems:  # defensive: never archive junk
        raise ValueError("invalid trajectory manifest: " + "; ".join(problems))
    return manifest


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=ROOT,
        help="directory holding the BENCH_*.json trajectories",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="directory to write the folded manifest.json into",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when the latest entry of any series regresses",
    )
    args = parser.parse_args(argv)

    files = sorted(glob.glob(os.path.join(args.root, "BENCH_*.json")))
    if not files:
        print(f"no BENCH_*.json under {args.root}", file=sys.stderr)
        return 2
    series = collect_series(files)
    failures = check_regressions(series)
    manifest = build_manifest(series, files, failures)

    gated = sum(1 for (_, metric) in series if metric in GATED)
    print(
        f"trajectory: folded {len(files)} file(s) into {len(series)} series "
        f"({gated} gated)"
    )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        out_path = os.path.join(args.out, "manifest.json")
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, default=str)
            handle.write("\n")
        print(f"trajectory: wrote {out_path}")
    for failure in failures:
        rendered = ",".join(
            f"{k}={v}" for k, v in sorted(failure["series"].items())
        )
        print(
            f"REGRESSION {rendered} {failure['metric']}: "
            f"latest={failure['latest']} vs median={failure['baseline']} "
            f"(allowed {failure['direction']}-bound {failure['bound']})",
            file=sys.stderr,
        )
    if failures and args.check:
        print(f"trajectory: {len(failures)} regression(s)", file=sys.stderr)
        return 1
    if not failures:
        print("trajectory: no regressions beyond noise")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
