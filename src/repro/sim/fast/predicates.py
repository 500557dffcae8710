"""Vectorized phase predicates over the fast engines.

Array counterparts of :mod:`repro.graphs.predicates`, evaluated directly on
a fast engine's struct-of-arrays state — no ``NodeState`` objects, no
``networkx`` graphs.  The phase *names* are re-exported unchanged so
recorders produced by either engine compare key-for-key.

Connectivity uses ``scipy.sparse.csgraph`` over the same edge set as the
reference LCC view (stored ``l``/``r`` links plus in-flight ``lin``
messages, Definition 4.2), including edges to dangling identifiers: the
proof's graphs are over identifiers, and during churn a shared dangling
identifier can be exactly what holds two components together.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro.graphs.predicates import (
    PHASE_CONNECTED,
    PHASE_SMALL_WORLD,
    PHASE_SORTED_LIST,
    PHASE_SORTED_RING,
)
from repro.ids import NEG_INF, POS_INF
from repro.sim.fast.batched import FastEngine
from repro.sim.fast.buffers import LIN
from repro.sim.fast.mirror import MirrorEngine

__all__ = [
    "FastPredicateTarget",
    "fast_is_sorted_list",
    "fast_is_sorted_ring",
    "fast_lcc_weakly_connected",
    "fast_lrl_links_live",
    "fast_phase_predicates",
    "PHASE_CONNECTED",
    "PHASE_SORTED_LIST",
    "PHASE_SORTED_RING",
    "PHASE_SMALL_WORLD",
]

#: Any fast engine; all expose ``soa`` and ``inflight_pairs``.
FastPredicateTarget = FastEngine | MirrorEngine


def fast_is_sorted_list(engine: FastPredicateTarget) -> bool:
    """Definition 4.8 over SoA state: consecutive pairs mutually linked."""
    ids, idx = engine.soa.sorted_live()
    if len(ids) == 0:
        return False
    l = engine.soa.l[idx]
    r = engine.soa.r[idx]
    if l[0] != NEG_INF or r[-1] != POS_INF:
        return False
    return bool(np.all(r[:-1] == ids[1:]) and np.all(l[1:] == ids[:-1]))


def fast_is_sorted_ring(engine: FastPredicateTarget) -> bool:
    """Definition 4.17 over SoA state: sorted list + mutual extremal ring."""
    if not fast_is_sorted_list(engine):
        return False
    ids, idx = engine.soa.sorted_live()
    ring = engine.soa.ring[idx]
    if len(ids) == 1:
        return bool(np.isnan(ring[0]) or ring[0] == ids[0])
    return bool(ring[0] == ids[-1] and ring[-1] == ids[0])


def fast_lcc_weakly_connected(engine: FastPredicateTarget) -> bool:
    """Phase 1 over SoA state: the LCC graph is weakly connected."""
    ids, idx = engine.soa.sorted_live()
    if len(ids) == 0:
        return False
    soa = engine.soa
    sources = []
    targets = []
    for stored in (soa.l[idx], soa.r[idx]):
        real = np.isfinite(stored)
        sources.append(ids[real])
        targets.append(stored[real])
    dest, payload = engine.inflight_pairs(LIN)
    sources.append(dest)
    targets.append(payload)
    u = np.concatenate(sources)
    v = np.concatenate(targets)
    keep = u != v
    u, v = u[keep], v[keep]
    # Universe: every live id plus every referenced identifier (dangling
    # identifiers are graph nodes too, as in repro.graphs.views).
    universe = np.unique(np.concatenate((ids, u, v)))
    if len(universe) == 1:
        return True
    ui = np.searchsorted(universe, u)
    vi = np.searchsorted(universe, v)
    m = len(universe)
    graph = coo_matrix(
        (np.ones(len(ui), dtype=np.int8), (ui, vi)), shape=(m, m)
    )
    n_components, _ = connected_components(graph, directed=True, connection="weak")
    return bool(n_components == 1)


def fast_lrl_links_live(engine: FastPredicateTarget) -> bool:
    """Every long-range link points at an existing node (or its owner)."""
    _, idx = engine.soa.sorted_live()
    if len(idx) == 0:
        return True
    _, found = engine.soa.lookup(engine.soa.lrl[idx])
    return bool(found.all())


def fast_phase_predicates(
    *, include_phase4: bool = True
) -> dict[str, Callable[[FastPredicateTarget], bool]]:
    """The standard phase-predicate mapping for :class:`FastSimulator`.

    Same keys as :func:`repro.graphs.predicates.phase_predicates`, so the
    recorders of the two engines are directly comparable.
    """
    preds: dict[str, Callable[[FastEngine | MirrorEngine], bool]] = {
        PHASE_CONNECTED: fast_lcc_weakly_connected,
        PHASE_SORTED_LIST: fast_is_sorted_list,
        PHASE_SORTED_RING: fast_is_sorted_ring,
    }
    if include_phase4:
        preds[PHASE_SMALL_WORLD] = lambda engine: (
            fast_is_sorted_ring(engine) and fast_lrl_links_live(engine)
        )
    return preds
