"""Run one workload over several seeds and print each metric's spread.

    python3 perfbench/steady.py --workload cold_star --seeds 1-10 --seconds 15

Spread is the inter-quartile distance of the per-run values as a share of
their median (``statistics.quantiles(values, n=4)``), the figure a metric's
bound in ``BENCHMARK.json`` is meant to clear.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.stats import spread  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in range(lo, hi + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        for name, value in row.items():
            values.setdefault(name, []).append(value)
        print(f"seed {seed}: {time.perf_counter() - t0:.1f}s correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v:.4g}" for k, v in row.items()), flush=True)
    for name, vals in values.items():
        s = spread(vals)
        print(f"{name}: median {statistics.median(vals):.4g} spread {s:.3f} "
              f"(bound {bounds[name]}, a third {bounds[name] / 3:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
