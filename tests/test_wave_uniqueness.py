"""Property tests: the unique-destination wave precondition of the inbox.

Every vectorized kernel in :mod:`repro.sim.fast.kernels` relies on the
wave grouping produced by :func:`repro.sim.fast.buffers.build_inbox`:
within one wave (``rank`` value) each destination slot appears at most
once, so same-column fancy stores cannot collide.  These tests pin that
invariant for arbitrary staged traffic — with and without dedup — and
exercise the debug-only runtime assert behind ``REPRO_CHECK_WAVES=1``.

They also pin the property a draw-replaying scheduler relies on:
:func:`~repro.sim.fast.buffers.prepare_inbox` output depends only on the
staged rows, not on the order or chunking they were staged in.
"""

from __future__ import annotations

import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state import NodeState
from repro.sim.fast.buffers import (
    N_TYPES,
    RESLRL,
    _wave_check_enabled,
    build_inbox,
    prepare_inbox,
)
from repro.sim.fast.soa import SoAState

#: Small id pool → frequent destination collisions, which is exactly the
#: regime where wave ranks matter (several messages per node per round).
ID_POOL = tuple(round(0.05 + 0.9 * k / 11, 6) for k in range(12))

row_strategy = st.tuples(
    st.integers(min_value=0, max_value=N_TYPES - 1),  # tcode
    st.sampled_from(ID_POOL),  # dest (always resolvable)
    st.sampled_from(ID_POOL),  # a
    st.sampled_from(ID_POOL),  # b (reslrl only)
    st.sampled_from(ID_POOL),  # c (reslrl only)
)


def make_soa() -> SoAState:
    return SoAState.from_states(NodeState(id=v) for v in ID_POOL)


def make_chunks(rows: list[tuple]) -> list[list[tuple]]:
    """Stage *rows* as per-type outbox chunks (one chunk per row)."""
    chunks: list[list[tuple]] = [[] for _ in range(N_TYPES)]
    for tcode, dest, a, b, c in rows:
        dest_col = np.array([dest], dtype=np.float64)
        a_col = np.array([a], dtype=np.float64)
        if tcode == RESLRL:
            b_col = np.array([b], dtype=np.float64)
            c_col = np.array([c], dtype=np.float64)
            chunks[tcode].append((dest_col, a_col, b_col, c_col, None))
        else:
            chunks[tcode].append((dest_col, a_col, None, None, None))
    return chunks


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(row_strategy, min_size=1, max_size=60),
    dedup=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_waves_have_unique_destinations(rows, dedup, seed) -> None:
    """Within every wave each destination appears at most once, and each
    destination's ranks are the contiguous prefix 0..k-1 (sequential
    per-node delivery across waves)."""
    soa = make_soa()
    inbox, dropped = build_inbox(
        make_chunks(rows), soa.lookup, np.random.default_rng(seed), dedup=dedup
    )
    assert dropped == 0
    assert inbox is not None
    for wave in range(inbox.n_waves):
        dests = inbox.dest_idx[inbox.rank == wave]
        assert len(np.unique(dests)) == len(dests)
    for slot in np.unique(inbox.dest_idx):
        ranks = np.sort(inbox.rank[inbox.dest_idx == slot])
        assert np.array_equal(ranks, np.arange(len(ranks)))


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(row_strategy, min_size=1, max_size=40),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_debug_assert_accepts_valid_inboxes(rows, seed) -> None:
    """With ``REPRO_CHECK_WAVES=1`` the in-band assert runs and passes on
    every inbox ``build_inbox`` can construct (the invariant holds by
    construction, so the assert must never fire on real traffic)."""
    soa = make_soa()
    previous = os.environ.get("REPRO_CHECK_WAVES")
    os.environ["REPRO_CHECK_WAVES"] = "1"
    try:
        assert _wave_check_enabled()
        inbox, _ = build_inbox(
            make_chunks(rows), soa.lookup, np.random.default_rng(seed), dedup=True
        )
    finally:
        if previous is None:
            del os.environ["REPRO_CHECK_WAVES"]
        else:
            os.environ["REPRO_CHECK_WAVES"] = previous
    assert inbox is not None


def stage_shuffled(rows: list[tuple], rng: np.random.Generator) -> list[list[tuple]]:
    """Stage *rows* in a random order as randomly sized per-type chunks."""
    chunks: list[list[tuple]] = [[] for _ in range(N_TYPES)]
    per_type: list[list[tuple]] = [[] for _ in range(N_TYPES)]
    for k in rng.permutation(len(rows)):
        per_type[rows[k][0]].append(rows[k])
    for code, typed in enumerate(per_type):
        lo = 0
        while lo < len(typed):
            part = typed[lo : lo + int(rng.integers(1, 5))]
            lo += len(part)
            cols = [np.array([r[k] for r in part], dtype=np.float64) for k in (1, 2, 3, 4)]
            if code == RESLRL:
                chunks[code].append((cols[0], cols[1], cols[2], cols[3], None))
            else:
                chunks[code].append((cols[0], cols[1], None, None, None))
    return chunks


#: Destinations include ids no node holds, so the drop path is covered.
staged_row = st.tuples(
    st.integers(min_value=0, max_value=N_TYPES - 1),
    st.sampled_from(ID_POOL + (0.01, 0.99)),
    st.sampled_from(ID_POOL),
    st.sampled_from(ID_POOL),
    st.sampled_from(ID_POOL),
)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(staged_row, min_size=1, max_size=60),
    dedup=st.booleans(),
    seeds=st.tuples(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=0, max_value=2**31 - 1),
    ),
)
def test_prepare_inbox_depends_only_on_staged_rows(rows, dedup, seeds) -> None:
    """Shuffling and re-chunking the staged rows leaves the prepared inbox
    unchanged: bit for bit under dedup (the canonical order), and as a
    per-type multiset without it (rows then keep staging order)."""
    soa = make_soa()
    prepared = []
    for seed in seeds:
        chunks = stage_shuffled(rows, np.random.default_rng(seed))
        prepared.append(prepare_inbox(chunks, soa.lookup, dedup=dedup))
    (first, dropped_1), (second, dropped_2) = prepared
    assert dropped_1 == dropped_2
    if first is None or second is None:
        assert first is None and second is None
        return
    assert first.packed_ok == second.packed_ok
    np.testing.assert_array_equal(first.tcode, second.tcode)
    columns = ("dest_idx", "a", "b", "c")
    if dedup:
        for name in columns:
            np.testing.assert_array_equal(
                getattr(first, name), getattr(second, name)
            )
        return

    def canonical(pre):
        cols = [getattr(pre, name).astype(np.float64) for name in columns]
        order = np.lexsort((*cols[::-1], pre.tcode))
        return [col[order] for col in cols]

    for got, want in zip(canonical(first), canonical(second)):
        np.testing.assert_array_equal(got, want)


def test_wave_check_env_parsing(monkeypatch) -> None:
    for value, expected in (
        ("", False),
        ("0", False),
        ("false", False),
        ("False", False),
        ("1", True),
        ("yes", True),
    ):
        monkeypatch.setenv("REPRO_CHECK_WAVES", value)
        assert _wave_check_enabled() is expected
    monkeypatch.delenv("REPRO_CHECK_WAVES")
    assert not _wave_check_enabled()
