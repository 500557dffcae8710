"""Round-phase attribution: where did the wall-clock of a run go?

``repro obs phases DIR`` reads a finished run's ``manifest.json`` and
answers one question: how much of the measured round time is
*attributed* to named phases, and how is it split.  For the batched
engine the kernel profiler partitions ``execute_round`` into

* ``flush``   — inbox assembly: outbox take, resolve, dedup, delivery
  keys, wave ranks (:func:`~repro.sim.fast.buffers.build_inbox`);
* ``waves``   — grouping the inbox into conflict-free ``(wave, type)``
  dispatch units;
* one phase per message kernel (``linearize``, ``move_forget``, ...);
* ``regular`` — the batched regular action over all live nodes;
* ``close``   — end-of-round bookkeeping (send counts into the stats;
  the chaos engines also settle their wire and guard here).

*Attribution* is the ratio of summed phase seconds to the
``round_seconds`` histogram's measured wall-clock; the acceptance gate
(``benchmarks/phases.py``) demands ≥ 95%, so nothing material hides
between the phase markers.

Stdlib-only, like the rest of the ``repro obs`` CLI surface.
"""

from __future__ import annotations

import json
import os

__all__ = [
    "attribution",
    "load_run_manifest",
    "phase_report",
    "render_phase_report",
]

def load_run_manifest(target: str) -> dict[str, object]:
    """Load ``manifest.json`` from a run directory (or a direct path)."""
    path = target
    if os.path.isdir(target):
        path = os.path.join(target, "manifest.json")
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest is not a JSON object")
    return manifest


def _round_wall_by_engine(manifest: dict[str, object]) -> dict[str, float]:
    """Measured round wall-clock per engine (round_seconds histogram sums)."""
    out: dict[str, float] = {}
    metrics = manifest.get("metrics")
    if not isinstance(metrics, dict):
        return out
    body = metrics.get("round_seconds")
    if not isinstance(body, dict):
        return out
    for sample in body.get("samples", []):  # type: ignore[union-attr]
        if not isinstance(sample, dict):
            continue
        labels = sample.get("labels")
        engine = labels.get("engine", "?") if isinstance(labels, dict) else "?"
        total = sample.get("sum")
        if isinstance(total, (int, float)):
            out[engine] = out.get(engine, 0.0) + float(total)
    return out


def attribution(
    manifest: dict[str, object], engine: str
) -> tuple[float, float, float | None]:
    """``(wall_s, attributed_s, fraction)`` for one engine kind.

    *fraction* is ``None`` when the run recorded no round wall-clock for
    that engine (nothing to attribute against).
    """
    wall = _round_wall_by_engine(manifest).get(engine, 0.0)
    attributed = 0.0
    phases = manifest.get("phases")
    if isinstance(phases, dict):
        body = phases.get(engine)
        if isinstance(body, dict):
            for timing in body.values():
                if isinstance(timing, dict):
                    seconds = timing.get("seconds")
                    if isinstance(seconds, (int, float)):
                        attributed += float(seconds)
    if wall <= 0.0:
        return wall, attributed, None
    return wall, attributed, attributed / wall


def phase_report(manifest: dict[str, object]) -> dict[str, object]:
    """Aggregate one manifest into the ``repro obs phases`` report dict."""
    engines: dict[str, object] = {}
    walls = _round_wall_by_engine(manifest)
    phases = manifest.get("phases")
    phases = phases if isinstance(phases, dict) else {}
    for engine in sorted(set(walls) | set(phases)):
        wall, attributed, fraction = attribution(manifest, engine)
        body = phases.get(engine)
        breakdown: dict[str, dict[str, float]] = {}
        if isinstance(body, dict):
            for phase, timing in sorted(body.items()):
                if not isinstance(timing, dict):
                    continue
                seconds = float(timing.get("seconds", 0.0) or 0.0)
                breakdown[phase] = {
                    "seconds": seconds,
                    "calls": int(timing.get("calls", 0) or 0),
                    "share": seconds / wall if wall > 0 else 0.0,
                }
        engines[engine] = {
            "wall_s": wall,
            "attributed_s": attributed,
            "attribution": fraction,
            "phases": breakdown,
        }
    return {
        "experiment": manifest.get("experiment", ""),
        "engines": engines,
    }


def render_phase_report(report: dict[str, object]) -> str:
    """Human-readable rendering of :func:`phase_report`."""
    lines: list[str] = []
    experiment = report.get("experiment") or "(unknown)"
    lines.append(f"run: {experiment}")
    engines = report.get("engines")
    engines = engines if isinstance(engines, dict) else {}
    if not engines:
        lines.append("no per-engine phase data recorded")
    for engine, body in engines.items():
        assert isinstance(body, dict)
        wall = body["wall_s"]
        attributed = body["attributed_s"]
        fraction = body["attribution"]
        pct = f"{fraction * 100:.1f}%" if fraction is not None else "n/a"
        lines.append(
            f"engine={engine}  wall={wall:.3f}s  "
            f"attributed={attributed:.3f}s  ({pct})"
        )
        breakdown = body.get("phases")
        assert isinstance(breakdown, dict)
        for phase, timing in sorted(
            breakdown.items(), key=lambda kv: -kv[1]["seconds"]
        ):
            lines.append(
                f"  {phase:<14} {timing['seconds']:>9.3f}s"
                f"  {timing['share'] * 100:>5.1f}%"
                f"  ({timing['calls']} calls)"
            )
    return "\n".join(lines)
