"""Start a ``repro`` command (``serve ...``), optionally under span tracing.

    python3 perfbench/serve_launcher.py [--trace-out FILE] serve n=4096 obs=DIR

With ``--trace-out`` the span wrappers are installed before
``repro.cli.main`` runs, and the per-layer metrics of the whole process
lifetime are written to FILE as JSON once it returns.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    from perfbench import spans
    from repro.cli import main as repro_main

    if trace_out is None:
        return repro_main(argv)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        return repro_main(argv)
    finally:
        tracer.uninstall()
        recorded = tracer.spans()
        metrics = spans.layer_metrics(recorded)
        metrics["lookup.wall_s"] = sum(s.end - s.start for s in recorded if s.name == "lookup")
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(metrics, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
