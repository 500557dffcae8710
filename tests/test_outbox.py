"""The outbox's running row count and the compaction trigger it drives.

:class:`repro.sim.fast.buffers.Outbox` keeps one staged-row count per
message type so the mid-round compaction trigger in ``send`` never
rescans the chunk list.  These tests pin that the count equals a full
rescan after every mutating operation, that compaction fires on exactly
the sends a rescan would pick, and that a fixed-seed dedup run with
departures still drops and ends exactly where it did before the counter.
"""

from __future__ import annotations

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import ProtocolConfig
from repro.sim.fast import FastSimulator
from repro.sim.fast.buffers import LIN, N_TYPES, RESLRL, Outbox
from repro.sim.metrics import MessageStats
from repro.topology.generators import TOPOLOGIES

#: Small id pool, so drops and purges hit staged rows often.
ID_POOL = tuple(round(0.05 + 0.9 * k / 7, 6) for k in range(8))

#: A compaction floor small enough for short op sequences to cross it.
FLOOR = 12


class SmallOutbox(Outbox):
    """An outbox whose compaction floor short sequences can reach."""

    COMPACT_MIN = FLOOR


def _rescan(outbox: Outbox, code: int) -> int:
    return sum(len(ch[0]) for ch in outbox._chunks[code])


def _assert_counts_exact(outbox: Outbox) -> None:
    for code in range(N_TYPES):
        assert outbox._rows[code] == _rescan(outbox, code)
    assert outbox.pending_total() == sum(
        _rescan(outbox, code) for code in range(N_TYPES)
    )


def _columns(code: int, ids: list[float]):
    dest = np.asarray(ids, dtype=np.float64)
    a = np.roll(dest, 1)
    if code == RESLRL:
        return dest, a, np.roll(dest, 2), np.roll(dest, 3)
    return dest, a, None, None


#: Operation kinds, sends weighted ten to one so chunk lists grow past
#: the 8-chunk compaction threshold between flushes.
KINDS = ("send",) * 10 + (
    "restage", "drop_dest", "purge_mentions", "drop_and_purge_batch", "take_all",
)

#: ``(kind, type code, row ids, victim ids)``; two types only, one
#: single-id and the three-payload ``reslrl``.
op_strategy = st.tuples(
    st.sampled_from(KINDS),
    st.sampled_from((LIN, RESLRL)),
    st.lists(st.sampled_from(ID_POOL), max_size=4),
    st.lists(st.sampled_from(ID_POOL), min_size=1, max_size=3, unique=True),
)


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(op_strategy, min_size=30, max_size=120), auto_compact=st.booleans())
def test_row_count_matches_rescan_after_every_operation(ops, auto_compact):
    outbox = SmallOutbox(MessageStats(), auto_compact=auto_compact)
    for kind, code, ids, victims in ops:
        if kind == "send":
            before = len(outbox._chunks[code])
            rows_after = _rescan(outbox, code) + len(ids)
            floor = outbox._compact_floor[code]
            outbox.send(code, *_columns(code, ids))
            # The rescan rule the counter replaces: compact once at least
            # 8 chunks are staged and their rows reach the floor.
            fires = (
                auto_compact
                and len(ids) > 0
                and before + 1 >= 8
                and rows_after >= floor
            )
            expected = 1 if fires else before + (len(ids) > 0)
            assert len(outbox._chunks[code]) == expected
        elif kind == "restage":
            outbox.restage(code, *_columns(code, ids))
        elif kind == "drop_dest":
            outbox.drop_dest(victims[0])
        elif kind == "purge_mentions":
            outbox.purge_mentions(victims[0])
        elif kind == "drop_and_purge_batch":
            outbox.drop_and_purge_batch(np.asarray(victims, dtype=np.float64))
        else:
            outbox.take_all()
        _assert_counts_exact(outbox)


def test_compaction_fires_exactly_at_the_floor():
    """Eight chunks whose rows reach the floor compact; one row short does not."""
    for sizes, fires in (([1] * 7 + [FLOOR - 7], True), ([1] * 7 + [FLOOR - 8], False)):
        outbox = SmallOutbox(MessageStats(), auto_compact=True)
        for k, size in enumerate(sizes):
            # Distinct rows, so compaction's dedup keeps every one.
            ids = [0.001 * (100 * k + j + 1) for j in range(size)]
            outbox.send(LIN, *_columns(LIN, ids))
        assert len(outbox._chunks[LIN]) == (1 if fires else 8)
        _assert_counts_exact(outbox)


def test_dedup_run_drops_and_digest_unchanged(monkeypatch):
    """Fixed-seed dedup run with a departure batch, pinned end to end.

    The values were recorded with the chunk-rescan trigger; the running
    count must compact on the same sends, so the physical drop count
    (which compaction changes) and the final state stay identical.
    """
    fired = []
    compact = Outbox._compact_code

    def counting(self, code):
        fired.append(code)
        compact(self, code)

    monkeypatch.setattr(Outbox, "_compact_code", counting)
    states = TOPOLOGIES["random_tree"](2048, np.random.default_rng(31))
    sim = FastSimulator.from_states(
        states, ProtocolConfig(), dedup=True, rng=np.random.default_rng(32)
    )
    sim.run(12)
    victims = np.random.default_rng(33).choice(
        np.asarray(sim.engine.ids), size=2048 // 20, replace=False
    )
    sim.engine.leave_batch(victims)
    sim.run(12)
    snapshot = sim.state_snapshot()
    columns = np.asarray(
        [snapshot[k] for k in sorted(snapshot)], dtype=np.float64
    )
    assert len(fired) == 4
    assert sim.engine.dropped == 1134
    assert sim.engine.stats.total == 457447
    assert sim.engine.pending_total() == 22101
    assert hashlib.sha256(columns.tobytes()).hexdigest()[:16] == "df43d83a6ccc123d"
