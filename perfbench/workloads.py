"""The three workloads.  Each takes ``(seed, seconds, trace)`` and returns an
:class:`Outcome`; the inputs are generated from the seed and reach the
program only through its public entry points.

Each workload times a loop of one *unit operation* and reports its median
as ``op_p50_ms``, plus the engine's rounds per second over the timed
section:

* ``cold_star`` -- one cold start from a star to the sorted ring;
* ``storm_recovery`` -- a flash crowd then a correlated departure on one
  warmed-up overlay, each run until the ring has recovered;
* ``serve_http`` -- one ``GET /lookup`` against ``repro serve``, timed from
  its due time in an open loop.

With ``trace`` set, a workload runs a fixed amount of its work twice from
the same inputs -- untraced, then with the span wrappers installed -- and
reports the per-layer metrics of the traced pass, the tracing overhead
and, for the engine workloads, whether the final-state digests agree.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import urllib.request
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from perfbench import spans as sp
from perfbench.stats import due_time_latency, median, tail, vm_hwm_mb

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAUNCHER = os.path.join(ROOT, "perfbench", "serve_launcher.py")

#: Setups made per run; ``setup_s`` is their median.
SETUPS = 3


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    params: dict[str, Any]
    setup_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Output checks, name -> passed.
    checks: dict[str, bool] = field(default_factory=dict)
    #: Named end-to-end figures: name -> {"value", "unit", "samples"}.
    named: dict[str, dict[str, Any]] = field(default_factory=dict)
    op_ms: list[float] = field(default_factory=list)
    rounds: int = 0
    timed_s: float = 0.0
    #: Peak RSS of child processes the workload started (``serve_http``).
    child_rss_mb: float = 0.0
    digests: list[str] = field(default_factory=list)
    #: Per-layer metrics of the traced pass (trace runs only).
    layers: dict[str, float] | None = None
    #: Trace-run details that are not metrics (digest agreement, windows).
    trace_info: dict[str, Any] = field(default_factory=dict)

    def name(self, key: str, value: Any, unit: str, samples: int) -> None:
        self.named[key] = {"value": value, "unit": unit, "samples": samples}

    def check(self, key: str, passed: bool) -> None:
        self.checks[key] = self.checks.get(key, True) and bool(passed)


def _seed_rng(*parts: object) -> np.random.Generator:
    from repro.experiments.common import seed_rng

    return seed_rng("perfbench", *parts)


def state_digest(engine: Any) -> str:
    """SHA-256 over the live SoA columns in id order."""
    soa = engine.soa
    ids, idx = soa.sorted_live()
    h = hashlib.sha256()
    for column in (ids, soa.l[idx], soa.r[idx], soa.lrl[idx], soa.ring[idx], soa.age[idx]):
        h.update(np.ascontiguousarray(column).tobytes())
    return h.hexdigest()[:16]


Window = tuple[float, float]


def _until(one: Callable[[int], Window], budget: float, minimum: int = 1) -> list[Window]:
    """Run unit operations ``0, 1, ...`` until *budget* seconds of timed work."""
    windows: list[Window] = []
    while len(windows) < minimum or sum(b - a for a, b in windows) < budget:
        windows.append(one(len(windows)))
    return windows


def _traced_twice(out: Outcome, one: Callable[[int], Window], budget: float) -> None:
    """Run unit operations untraced within *budget*, then the same ones traced.

    Both passes draw the same inputs, so the final-state digests each
    operation appends to ``out.digests`` must agree: the wrappers may
    cost time but must not perturb the run.
    """
    plain = _until(one, budget)
    plain_digests, out.digests = out.digests, []
    tracer = sp.Tracer()
    sp.install(tracer)
    try:
        traced = [one(i) for i in range(len(plain))]
    finally:
        tracer.uninstall()
    plain_wall = sum(b - a for a, b in plain)
    traced_wall = sum(b - a for a, b in traced)
    spans = sp.within(tracer.spans(), traced)
    out.layers = sp.layer_metrics(spans)
    out.layers.update({
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.attributed": sp.attributed(spans, traced),
    })
    agree = plain_digests == out.digests
    out.trace_info = {"ops": len(traced), "untraced_wall_s": plain_wall,
                      "digests_agree": agree}
    out.check("trace_digest_matches_untraced", agree)
    out.digests = plain_digests


# ----------------------------------------------------------------------
# cold_star
# ----------------------------------------------------------------------
COLD_N = 64


def cold_star(seed: int, seconds: float, trace: bool) -> Outcome:
    """Cold starts from the star topology, each until the sorted ring."""
    from repro.sim.fast import FastSimulator, predicates
    from repro.topology.generators import TOPOLOGIES

    n, cap = COLD_N, 50 * COLD_N
    out = Outcome({"n": n, "topology": "star", "engine": "fast", "round_cap": cap})
    converge: list[float] = []
    round_counts: list[int] = []

    def one(i: int) -> Window:
        t0 = time.perf_counter()
        states = TOPOLOGIES["star"](n, _seed_rng(seed, "cold_star", i))
        sim = FastSimulator.from_states(states, rng=_seed_rng(seed, "cold_star-rounds", i))
        t1 = time.perf_counter()
        rounds = 0
        while not predicates.fast_is_sorted_ring(sim.engine) and rounds < cap:
            sim.step_round()
            rounds += 1
        t2 = time.perf_counter()
        ok = predicates.fast_is_sorted_ring(sim.engine)
        out.setup_s.append(t1 - t0)
        out.attempted += 1
        out.failed += 0 if ok else 1
        out.check("sorted_ring_reached", ok)
        out.digests.append(state_digest(sim.engine))
        converge.append(t2 - t1)
        round_counts.append(rounds)
        return t1, t2

    if trace:
        _traced_twice(out, one, seconds / 2)
        return out
    windows = _until(one, seconds, SETUPS)
    out.op_ms = [1000.0 * c for c in converge]
    out.rounds = sum(round_counts)
    out.timed_s = sum(b - a for a, b in windows)
    out.name("converge_s", median(converge), "s", len(converge))
    conv_tail = tail(converge)
    if conv_tail["label"]:
        out.name(f"converge_s.{conv_tail['label']}", conv_tail["value"], "s", len(converge))
    out.name("rounds_p50", median(round_counts), "count", len(round_counts))
    out.name("rounds_per_s", out.rounds / out.timed_s, "1/s", out.rounds)
    return out


# ----------------------------------------------------------------------
# storm_recovery
# ----------------------------------------------------------------------
STORM_N = 2048
STORM_PAIR = ("flash_crowd", "correlated_departure")


def storm_recovery(seed: int, seconds: float, trace: bool) -> Outcome:
    """A flash crowd, then a correlated departure, on a warmed-up overlay."""
    from repro.churn.experiments import stable_simulator
    from repro.churn.scale import recovery_cap, storm_recovery_trial

    n = STORM_N
    out = Outcome({
        "n": n, "topology": "stable", "engine": "fast", "storms": list(STORM_PAIR),
        "recovery_cap": recovery_cap(n),
    })
    pair_s: list[float] = []
    storm_rounds: dict[str, list[int]] = {s: [] for s in STORM_PAIR}

    def one(i: int) -> Window:
        t0 = time.perf_counter()
        sim = stable_simulator(n, _seed_rng(seed, "storm_recovery", i), engine="fast")
        t1 = time.perf_counter()
        out.setup_s.append(t1 - t0)
        r0 = sim.round_index
        for storm in STORM_PAIR:
            plan_seed = int(_seed_rng(seed, "storm_plan", storm, i).integers(2**31))
            rec = storm_recovery_trial(n, storm=storm, seed=plan_seed, engine="fast", sim=sim)
            ok = rec.recovered and rec.rounds <= recovery_cap(n)
            out.attempted += 1
            out.failed += 0 if ok else 1
            out.check("storm_recovered_within_cap", ok)
            storm_rounds[storm].append(rec.rounds)
        t2 = time.perf_counter()
        out.rounds += sim.round_index - r0
        out.digests.append(state_digest(sim.engine))
        pair_s.append(t2 - t1)
        return t1, t2

    if trace:
        _traced_twice(out, one, seconds / 2)
        return out
    windows = _until(one, seconds, SETUPS)
    out.op_ms = [1000.0 * p for p in pair_s]
    out.timed_s = sum(b - a for a, b in windows)
    out.name("recovery_s", median(pair_s), "s", len(pair_s))
    for storm, rounds in storm_rounds.items():
        out.name(f"recovery_rounds_p50.{storm}", median(rounds), "count", len(rounds))
    out.name("rounds_per_s", out.rounds / out.timed_s, "1/s", out.rounds)
    return out


# ----------------------------------------------------------------------
# serve_http
# ----------------------------------------------------------------------
SERVE_N = 32768
ZIPF_S = 1.1
RATES = (60, 150)
#: Latency limit on the tail percentile at each offered rate.
HTTP_P99_LIMIT_MS = 50.0
TARGET_POOL = 4096


class _Server:
    """``repro serve`` in a child process, found through its announce file."""

    def __init__(self, seed: int, workdir: str, trace_out: str | None = None) -> None:
        self.obs = tempfile.mkdtemp(prefix="serve-", dir=workdir)
        argv = [sys.executable, LAUNCHER]
        if trace_out is not None:
            argv += ["--trace-out", trace_out]
        argv += [
            "serve", f"n={SERVE_N}", "topology=stable", "engine=fast", f"seed={seed}",
            f"obs={self.obs}", "api=127.0.0.1:0", "metrics=127.0.0.1:0",
        ]
        self.log = open(os.path.join(self.obs, "stderr.txt"), "w+b")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=self.log
        )
        self.url = self.host = ""
        self.port = 0

    def wait_converged(self, timeout: float = 120.0) -> float:
        """Seconds from spawn until ``/health`` reports converged."""
        deadline = self.t0 + timeout
        announce = os.path.join(self.obs, "serve.json")
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                self.log.seek(0)
                raise RuntimeError(f"server exited early: {self.log.read()[-2000:]!r}")
            if not self.url and os.path.exists(announce):
                with open(announce, encoding="utf-8") as handle:
                    text = handle.read()
                if text.endswith("\n"):
                    doc = json.loads(text)
                    host, port = doc["api"].rsplit(":", 1)
                    self.url, self.host, self.port = doc["api_url"], host, int(port)
            if self.url and self.get("/health")["serve"]["converged"]:
                return time.perf_counter() - self.t0
            time.sleep(0.02)
        raise RuntimeError("server did not converge in time")

    def get(self, path: str, *, method: str = "GET") -> Any:
        request = urllib.request.Request(self.url + path, method=method)
        with urllib.request.urlopen(request, timeout=30) as response:
            body = response.read().decode("utf-8")
        return body if path == "/metrics" else json.loads(body)

    def request_seconds(self) -> float:
        """Sum of the server's own ``/lookup`` request seconds."""
        from repro.obs.exporters import PROM_PREFIX

        for line in self.get("/metrics").splitlines():
            if line.startswith(PROM_PREFIX + "serve_request_seconds_sum") and (
                'endpoint="/lookup"' in line
            ):
                return float(line.rsplit(" ", 1)[1])
        return 0.0

    def stop(self) -> None:
        """Shut down over HTTP; kill if it does not exit in time."""
        try:
            if self.proc.poll() is None and self.url:
                self.get("/shutdown", method="POST")
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait(timeout=30)
        finally:
            self.log.close()


def serve_http(seed: int, seconds: float, trace: bool) -> Outcome:
    """Open-loop single-target lookups over HTTP at two fixed rates."""
    cap = min(2, os.cpu_count() or 1)
    out = Outcome({
        "n": SERVE_N, "topology": "stable", "engine": "fast", "rates_per_s": list(RATES),
        "seconds_per_rate": seconds / len(RATES), "max_inflight": cap, "zipf_s": ZIPF_S,
        "loop": "open, one asyncio loop", "p99_limit_ms": HTTP_P99_LIMIT_MS,
    })
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    servers: list[_Server] = []
    try:
        for i in range(SETUPS):
            server = _Server(seed, workdir)
            servers.append(server)
            out.setup_s.append(server.wait_converged())
            if i < SETUPS - 1:
                server.stop()
        server = servers[-1]
        if trace:
            _serve_http_traced(out, server, seed, seconds, cap, workdir, servers)
            return out
        rng = _seed_rng(seed, "serve_http-load")
        round0 = server.get("/health")["serve"]["view_round"]
        t_start = time.perf_counter()
        phases = _drive(server, rng, seconds, cap, out)
        wall = time.perf_counter() - t_start
        round1 = server.get("/health")["serve"]["view_round"]
        out.child_rss_mb = vm_hwm_mb(server.proc.pid)
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    everything: list[float] = []
    late_all: list[float] = []
    for rate, phase in zip(RATES, phases):
        lat = [1000.0 * x for x in phase["latency"]]
        everything += lat
        late_all += phase["lateness"]
        out.name(f"http_p50_ms.r{rate}", median(lat), "ms", len(lat))
        t = tail(lat)
        if t["label"]:
            out.name(f"http_{t['label']}_ms.r{rate}", t["value"], "ms", len(lat))
            out.name(f"http_slo_met.r{rate}", t["value"] <= HTTP_P99_LIMIT_MS, "bool", len(lat))
        out.name(f"achieved_per_s.r{rate}", len(lat) / phase["wall"], "1/s", len(lat))
    late = tail([1000.0 * x for x in late_all])
    if late["label"]:
        out.name(f"loadgen_late_{late['label']}_ms", late["value"], "ms", len(late_all))
    out.name("loadgen_inflight_max", max(p["inflight_max"] for p in phases), "count",
             len(late_all))
    out.op_ms = everything
    out.rounds = int(round1 - round0)
    out.timed_s = wall
    out.name("serve_rounds_per_s", out.rounds / wall, "1/s", out.rounds)
    return out


def _serve_http_traced(
    out: Outcome, server: "_Server", seed: int, seconds: float, cap: int,
    workdir: str, servers: list["_Server"],
) -> None:
    """Untraced then traced server, same schedule; compare server seconds."""
    rng = _seed_rng(seed, "serve_http-load")
    _drive(server, rng, seconds / 2, cap, out)
    plain = server.request_seconds()
    server.stop()
    trace_out = os.path.join(workdir, "spans.json")
    traced = _Server(seed, workdir, trace_out)
    servers.append(traced)
    traced.wait_converged()
    phases = _drive(traced, _seed_rng(seed, "serve_http-load"), seconds / 2, cap, out)
    server_s = traced.request_seconds()
    traced.stop()
    with open(trace_out, encoding="utf-8") as handle:
        layers = json.load(handle)
    lookup_wall = layers.pop("lookup.wall_s")
    late = tail([1000.0 * x for p in phases for x in p["lateness"]])
    layers.update({
        "http.server_s": server_s,
        "http.plane_s": server_s - lookup_wall,
        "loadgen.late_p99_ms": late["value"],
        "loadgen.inflight_max": max(p["inflight_max"] for p in phases),
        "trace.wall_s": server_s,
        "trace.overhead_s": server_s - plain,
    })
    out.layers = layers
    out.trace_info = {"untraced_server_s": plain, "late_label": late["label"]}


def _drive(
    server: "_Server", rng: np.random.Generator, seconds: float, cap: int, out: Outcome
) -> list[dict[str, Any]]:
    """Both rate phases against *server*; counts and checks every reply."""
    from repro.serve.load import zipf_ranks

    ids = np.unique(np.asarray(server.get(f"/ids?k={TARGET_POOL}")["ids"]))
    phases = []
    for rate in RATES:
        count = max(1, int(rate * seconds / len(RATES)))
        targets = ids[zipf_ranks(rng, len(ids), count, ZIPF_S)]
        phase = asyncio.run(_open_loop(server.host, server.port, targets.tolist(), rate, cap))
        out.attempted += count
        out.failed += phase["bad"]
        out.check("http_replies_200_ok", phase["bad"] == 0)
        phases.append(phase)
    return phases


async def _open_loop(
    host: str, port: int, targets: list[float], rate: float, cap: int
) -> dict[str, Any]:
    """Send ``GET /lookup`` on a fixed schedule, at most *cap* in flight."""
    loop = asyncio.get_running_loop()
    slots = asyncio.Semaphore(cap)
    due: list[float] = []
    sent: list[float] = []
    done: list[float] = []
    bad = 0
    inflight = inflight_max = 0

    async def one(target: float, t_due: float) -> None:
        nonlocal bad, inflight, inflight_max
        inflight += 1
        inflight_max = max(inflight_max, inflight)
        t_sent = time.perf_counter()
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                f"GET /lookup?target={target!r} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode()
            )
            await writer.drain()
            reply = await reader.read()
            writer.close()
            await writer.wait_closed()
            head, _, body = reply.partition(b"\r\n\r\n")
            good = head.startswith(b"HTTP/1.1 200") and bool(json.loads(body)["ok"])
        except (OSError, ValueError, KeyError):
            good = False
        t_done = time.perf_counter()
        inflight -= 1
        slots.release()
        bad += 0 if good else 1
        due.append(t_due)
        sent.append(t_sent)
        done.append(t_done)

    tasks = []
    t0 = time.perf_counter() + 0.05
    for i, target in enumerate(targets):
        t_due = t0 + i / rate
        delay = t_due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        await slots.acquire()
        tasks.append(loop.create_task(one(target, t_due)))
    await asyncio.gather(*tasks)
    latency, lateness = due_time_latency(due, sent, done)
    return {
        "latency": latency, "lateness": lateness, "bad": bad,
        "inflight_max": inflight_max, "wall": max(done) - t0,
    }


WORKLOADS: dict[str, Callable[[int, float, bool], Outcome]] = {
    "cold_star": cold_star,
    "storm_recovery": storm_recovery,
    "serve_http": serve_http,
}
