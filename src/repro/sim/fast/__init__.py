"""``repro.sim.fast`` — the batched struct-of-arrays simulation engine.

Two engines over one state representation (docs/PERF.md):

* :class:`FastEngine` — vectorized synchronous rounds, batched RNG; the
  fast default for large-N experiments (E22).
* :class:`MirrorEngine` — scalar, draw-for-draw twin of the reference
  engine; the oracle of the differential-equivalence harness.

Both plug into :class:`FastSimulator`, which shares the round-loop drivers
with the reference :class:`~repro.sim.engine.Simulator`.  The chaos
variants — :class:`ChaosFastEngine` (vectorized wire faults + batched
guard) and :class:`ChaosMirrorEngine` (bit-exact ``ChaosNetwork`` twin) —
live in :mod:`repro.sim.fast.chaos` (docs/CHAOS.md).
"""

from repro.sim.fast.batched import FastEngine
from repro.sim.fast.chaos import ChaosFastEngine, ChaosMirrorEngine
from repro.sim.fast.engine import FastSimulator
from repro.sim.fast.mirror import MirrorEngine
from repro.sim.fast.predicates import (
    fast_is_sorted_list,
    fast_is_sorted_ring,
    fast_lcc_weakly_connected,
    fast_lrl_links_live,
    fast_phase_predicates,
)
from repro.sim.fast.soa import SoAState

__all__ = [
    "ChaosFastEngine",
    "ChaosMirrorEngine",
    "FastEngine",
    "FastSimulator",
    "MirrorEngine",
    "SoAState",
    "fast_is_sorted_list",
    "fast_is_sorted_ring",
    "fast_lcc_weakly_connected",
    "fast_lrl_links_live",
    "fast_phase_predicates",
]
