"""Span tracing for the traced run, and the per-layer metrics folded from it.

The traced run installs wrappers around the public entry points of each
layer -- class attributes and module-level names the program calls
through -- and records one span per call: name, start, end, parent span,
thread, and (where waiting matters) thread CPU time.  Spans stay in
memory, in per-thread column logs; :meth:`Tracer.spans` turns them into
:class:`Span` objects and :func:`layer_metrics` folds those into the
per-layer numbers when the run ends.  Timed runs never install the
wrappers.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover; *waiting* is wall time minus the
thread's CPU time inside the span (time spent behind another thread
holding the interpreter, or blocked).
"""

from __future__ import annotations

import bisect
import functools
import threading
import time
from array import array
from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

#: Kernels of :class:`repro.sim.fast.kernels.Kernels`, one span name each.
KERNELS = (
    "linearize",
    "respond_lrl",
    "move_forget",
    "respond_ring",
    "update_ring",
    "probing_r",
    "probing_l",
    "regular_action",
)

#: Thread that :class:`repro.serve.host.EngineHost` steps rounds on.
ENGINE_THREAD = "repro-serve-engine"

CountFn = Callable[[tuple, dict, Any], tuple]


@dataclass(slots=True)
class Span:
    """One call into a layer."""

    name: str
    start: float
    end: float
    parent: "Span | None"
    thread: str
    cpu: float = 0.0
    count: tuple = ()


class _Log:
    """One thread's spans, stored column-wise.

    Arrays hold no Python objects, so a million open or finished spans cost
    the cyclic garbage collector nothing and the traced run does not slow
    down as its log grows.
    """

    __slots__ = ("thread", "name", "parent", "start", "end", "cpu", "c0", "c1", "c2", "stack")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.name, self.parent = array("i"), array("i")
        self.start, self.end, self.cpu = array("d"), array("d"), array("d")
        self.c0, self.c1, self.c2 = array("q"), array("q"), array("q")
        #: Indices of this thread's open spans, innermost last.
        self.stack: list[int] = []


class Tracer:
    """Records spans from wrappers it installs; :meth:`uninstall` undoes them."""

    def __init__(self) -> None:
        self._names: list[str] = []
        #: Number of counters each span name records.
        self._arity: dict[int, int] = {}
        self._logs: list[_Log] = []
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    def _log(self) -> _Log:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _Log(threading.current_thread().name)
            self._logs.append(log)
        return log

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        counts: CountFn | None = None,
        cpu: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *counts* maps ``(args, kwargs, result)`` to at most three integers
        recorded with the span; *cpu* also records the thread's CPU time.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        if name not in self._names:
            self._names.append(name)
        code = self._names.index(name)
        log_of, arity = self._log, self._arity
        perf_counter, thread_time = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            log = log_of()
            stack = log.stack
            i = len(log.start)
            log.name.append(code)
            log.parent.append(stack[-1] if stack else -1)
            log.end.append(0.0)
            log.cpu.append(0.0)
            log.c0.append(0)
            log.c1.append(0)
            log.c2.append(0)
            stack.append(i)
            c0 = thread_time() if cpu else 0.0
            log.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.end[i] = perf_counter()
                stack.pop()
                if cpu:
                    log.cpu[i] = thread_time() - c0
            if counts is not None:
                got = counts(args, kwargs, result)
                arity[code] = len(got)
                for column, value in zip((log.c0, log.c1, log.c2), got):
                    column[i] = value
            return result

        self._undo.append((owner, attr, raw))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def spans(self) -> list[Span]:
        """Every finished span, as :class:`Span` objects linked to parents."""
        out: list[Span] = []
        for log in self._logs:
            made: list[Span] = []
            for i in range(len(log.end)):
                code, parent = log.name[i], log.parent[i]
                k = self._arity.get(code, 0)
                made.append(Span(
                    self._names[code], log.start[i], log.end[i],
                    made[parent] if parent >= 0 else None, log.thread, log.cpu[i],
                    (log.c0[i], log.c1[i], log.c2[i])[:k],
                ))
            out += [s for s in made if s.end > 0.0]
        return out


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads drive."""
    from repro.serve import host, routing, service
    from repro.sim.fast import batched, buffers, predicates, soa
    from repro.sim.fast.engine import FastSimulator
    from repro.sim.fast.kernels import Kernels

    def rows(args: tuple, kwargs: dict, result: Any) -> tuple:
        return (len(args[1]),)

    def flush(args: tuple, kwargs: dict, result: Any) -> tuple:
        staged = sum(len(ch[0]) for per_type in args[0] for ch in per_type)
        inbox, dropped = result
        return (staged, 0 if inbox is None else len(inbox), int(dropped))

    def route(args: tuple, kwargs: dict, result: Any) -> tuple:
        return (len(args[1]), int(result.hops.sum()))

    tracer.wrap(FastSimulator, "step_round", "sim.step", cpu=True)
    tracer.wrap(batched.FastEngine, "execute_round", "round", cpu=True)
    tracer.wrap(batched, "build_inbox", "flush", counts=flush)
    tracer.wrap(buffers.Outbox, "send", "outbox.send", counts=lambda a, k, r: (len(a[2]),))
    for kernel in KERNELS:
        tracer.wrap(Kernels, kernel, f"kernel.{kernel}", counts=rows)
    tracer.wrap(batched.FastEngine, "join_batch", "membership.join", counts=lambda a, k, r: (r,))
    tracer.wrap(batched.FastEngine, "leave_batch", "membership.leave", counts=lambda a, k, r: (r,))
    tracer.wrap(soa.SoAState, "compact", "soa.compact")
    # The predicates are bound by name in the modules that call them.
    for module in (predicates, host):
        for probe in ("fast_is_sorted_ring", "fast_lrl_links_live", "fast_lcc_weakly_connected"):
            if hasattr(module, probe):
                tracer.wrap(module, probe, "probe")
    tracer.wrap(service, "route_batch", "route", counts=route, cpu=True)
    tracer.wrap(routing.RouteView, "from_engine", "view.publish")
    tracer.wrap(service.OverlayService, "lookup_batch", "lookup")


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Self time of every span, keyed by ``id(span)``."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append((span.start, span.end))
    return {
        id(span): (span.end - span.start)
        - covered(children.get(id(span), ()), span.start, span.end)
        for span in spans
    }


def within(spans: Sequence[Span], windows: Sequence[tuple[float, float]]) -> list[Span]:
    """The spans that start inside one of the timed *windows*."""
    ordered = sorted(windows)
    starts = [lo for lo, _ in ordered]
    keep = []
    for span in spans:
        k = bisect.bisect_right(starts, span.start) - 1
        if k >= 0 and span.start < ordered[k][1]:
            keep.append(span)
    return keep


def attributed(spans: Sequence[Span], windows: Iterable[tuple[float, float]]) -> float:
    """Share of the main thread's timed *windows* covered by root spans."""
    roots = [
        (s.start, s.end) for s in spans if s.parent is None and s.thread == "MainThread"
    ]
    wall = covered_in = 0.0
    for lo, hi in windows:
        wall += hi - lo
        covered_in += covered(roots, lo, hi)
    return covered_in / wall if wall > 0 else 0.0


def layer_metrics(spans: Sequence[Span]) -> dict[str, float]:
    """Fold spans into the per-layer metrics (zero where a layer never ran)."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def wall(name: str, thread: str | None = None) -> float:
        return sum(
            s.end - s.start for s in by_name[name] if thread is None or s.thread == thread
        )

    def self_s(name: str) -> float:
        return sum(own[id(s)] for s in by_name[name])

    def wait(name: str, thread: str | None = None) -> float:
        return sum(
            (s.end - s.start) - s.cpu
            for s in by_name[name]
            if thread is None or s.thread == thread
        )

    def count(name: str, field: int = 0) -> int:
        return sum(s.count[field] for s in by_name[name] if s.count)

    rounds = len(by_name["round"])
    groups = sum(len(by_name[f"kernel.{k}"]) for k in KERNELS if k != "regular_action")
    rows_in, rows_out = count("flush", 0), count("flush", 1)
    out: dict[str, float] = {
        "round.count": rounds,
        "round.wall_s": wall("round"),
        "round.self_s": self_s("round"),
        "round.wait_s": wait("round"),
        "round.groups": groups / rounds if rounds else 0.0,
        "flush.self_s": self_s("flush"),
        "flush.rows_in": rows_in,
        "flush.rows_out": rows_out,
        "flush.dropped": count("flush", 2),
        "flush.keep_ratio": rows_out / rows_in if rows_in else 0.0,
        "outbox.send_s": self_s("outbox.send"),
        "outbox.send_calls": len(by_name["outbox.send"]),
        "outbox.rows": count("outbox.send"),
    }
    for kernel in KERNELS:
        out[f"kernel.{kernel}.self_s"] = self_s(f"kernel.{kernel}")
        out[f"kernel.{kernel}.rows"] = count(f"kernel.{kernel}")
    out.update({
        "membership.join_s": self_s("membership.join"),
        "membership.leave_s": self_s("membership.leave"),
        "membership.events": count("membership.join") + count("membership.leave"),
        "soa.compact_s": self_s("soa.compact"),
        "probe.s": self_s("probe"),
        "probe.calls": len(by_name["probe"]),
        "route.self_s": self_s("route"),
        "route.wait_s": wait("route"),
        "route.queries": count("route", 0),
        "route.hops": count("route", 1),
        "view.publish_s": self_s("view.publish"),
        "view.publishes": len(by_name["view.publish"]),
        "host.round_wall_s": wall("sim.step", ENGINE_THREAD),
        "host.round_wait_s": wait("sim.step", ENGINE_THREAD),
        "lookup.self_s": self_s("lookup"),
    })
    return out
