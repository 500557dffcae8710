"""Small measurement helpers: medians, tail percentiles, due-time latency, RSS.

Everything here is pure, so the benchmark's own tests can pin it without
building an overlay.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

import numpy as np

#: A tail percentile is reported only with at least this many samples beyond it.
BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def tail(values: Sequence[float], q: float = 99.0, beyond: int = BEYOND) -> dict:
    """The *q*-th percentile, or the highest one with *beyond* samples past it.

    Uses the nearest-rank definition.  With ``n`` samples, percentile ``p``
    leaves ``n - ceil(p n / 100)`` samples strictly beyond its rank, so the
    highest admissible ``p`` is ``100 (n - beyond) / n`` (floored to one
    decimal).  Returns ``{"label", "value", "samples"}``; ``label`` is
    ``None`` (and ``value`` ``None``) when fewer than ``beyond + 1``
    samples exist.
    """
    n = len(values)
    if n <= beyond:
        return {"label": None, "value": None, "samples": n}
    p_max = math.floor(1000.0 * (n - beyond) / n) / 10.0
    p = min(q, p_max)
    rank = max(1, math.ceil(p * n / 100.0 - 1e-9))
    value = np.partition(np.asarray(values, dtype=np.float64), rank - 1)[rank - 1]
    return {"label": f"p{p:g}", "value": float(value), "samples": n}


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def due_time_latency(
    due: Sequence[float], sent: Sequence[float], done: Sequence[float]
) -> tuple[list[float], list[float]]:
    """Open-loop latency and generator lateness, both from the due time.

    A request due at ``due[i]`` that the generator could only send at
    ``sent[i]`` (a full connection window, a stalled loop) and that
    completed at ``done[i]`` has latency ``done - due``: the stall is
    charged to it.  Lateness ``sent - due`` says how far behind its own
    schedule the generator ran.
    """
    if not len(due) == len(sent) == len(done):
        raise ValueError("due, sent and done must align")
    latency = [d - t for t, d in zip(due, done)]
    lateness = [s - t for t, s in zip(due, sent)]
    return latency, lateness


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")
