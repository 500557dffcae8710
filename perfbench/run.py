"""Run one benchmark workload, or all four, and print its metrics.

    python3 perfbench/run.py --workload cold_star --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (``perfbench/layers.json``) with
``--trace 1``.  The line before it is the run's full record: provenance,
workload parameters, every named figure with its unit and sample count,
the output checks, and the final-state digests.  ``--workload all`` runs
each workload in a fresh process and prints a combined last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

WORKLOADS = ("cold_star", "storm_recovery", "serve_http")

#: End-to-end metrics every workload reports: name -> unit.
END_TO_END = {
    "op_p50_ms": "ms",
    "rounds_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def per_layer() -> list[dict[str, str]]:
    """The per-layer metrics, in ``perfbench/layers.json`` order."""
    with open(os.path.join(ROOT, "perfbench", "layers.json"), encoding="utf-8") as handle:
        groups = json.load(handle)["layers"]
    return [metric for group in groups for metric in group["metrics"]]


def _git(*args: str) -> str | None:
    """Output of a git command run in the checkout; ``None`` if it fails."""
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def provenance(args: argparse.Namespace) -> dict[str, Any]:
    """Where and from what this record was measured."""
    import numpy

    revision = dirty = None
    top = (_git("rev-parse", "--show-toplevel", "HEAD") or "").split()
    if len(top) == 2 and os.path.realpath(top[0]) == os.path.realpath(ROOT):
        revision = top[1]
        dirty = bool((_git("status", "--porcelain", "--", "src") or "").strip())
    source = hashlib.sha256()
    src = os.path.join(ROOT, "src", "repro")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                source.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    source.update(handle.read())
    return {
        "git_revision": revision,
        "git_dirty": dirty,
        "source_sha256": source.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_one(args: argparse.Namespace) -> dict[str, Any]:
    from perfbench.stats import median, vm_hwm_mb
    from perfbench.workloads import WORKLOADS as RUNNERS

    out = RUNNERS[args.workload](args.seed, float(args.seconds), bool(args.trace))
    correct = bool(out.checks) and all(out.checks.values())
    if args.trace:
        layers = out.layers or {}
        metrics = {
            m["name"]: {"value": float(layers.get(m["name"], 0.0) or 0.0), "unit": m["unit"]}
            for m in per_layer()
        }
    else:
        values = {
            "op_p50_ms": median(out.op_ms),
            "rounds_per_s": out.rounds / out.timed_s,
            "setup_s": median(out.setup_s),
            "peak_rss_mb": vm_hwm_mb() + out.child_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        out.name("setup_s", values["setup_s"], "s", len(out.setup_s))
        out.name("peak_rss_mb", values["peak_rss_mb"], "MiB", 1)
    out.name("fail_frac", out.failed / max(out.attempted, 1), "share", out.attempted)
    record = {
        "provenance": provenance(args),
        "params": out.params,
        "attempted": out.attempted,
        "failed": out.failed,
        "checks": out.checks,
        "named": out.named,
        "setup_samples_s": out.setup_s,
        "digests": out.digests,
        "trace": out.trace_info or None,
    }
    print(json.dumps({"record": record}))
    return {
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }


def run_all(args: argparse.Namespace) -> dict[str, Any]:
    """Every workload in a fresh process; metrics prefixed by workload."""
    combined: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: workload {workload} failed ({proc.returncode})")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            "perfbench: the program's source (src/repro) is missing; "
            "run from the root of a full checkout", file=sys.stderr,
        )
        return 2
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
