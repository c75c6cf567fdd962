"""The raw-tile filter is lossless at its boundary.

``ArenaNeighborLists.update(..., offset=q2)`` filters a raw l2 tile
``r2 - 2 q.r`` against ``row_max - q2`` and finishes only survivors. Here
every raw value sits within a few ulps of that cut, where rounding
decides membership; the update must keep exactly what finishing the
whole tile first keeps — same lists, same thresholds, same counters.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arena import WorkspaceArena
from repro.select import (
    ArenaNeighborLists,
    BatchedNeighborLists,
    finalize_sq_l2,
)

SCALES = [1e-3, 1.0, 1e3, 1e6]


def _boundary_tile(rng, row_max, q2, n_b):
    """Raw values within +-3 ulps of ``row_max - q2``, plus far misses/hits."""
    cut = row_max - q2
    steps = rng.integers(-3, 4, (row_max.size, n_b))
    raw = np.empty((row_max.size, n_b))
    for i in range(row_max.size):
        for j in range(n_b):
            v = cut[i]
            toward = np.inf if steps[i, j] > 0 else -np.inf
            for _ in range(abs(int(steps[i, j]))):
                v = np.nextafter(v, toward)
            raw[i, j] = v
    far = rng.random((row_max.size, n_b)) < 0.1
    raw[far] += np.where(rng.random(far.sum()) < 0.5, -1.0, 1.0) * (
        np.abs(cut[np.nonzero(far)[0]]) + 1.0
    )
    return raw


def _warm_pair(rng, m, k, scale):
    """Two identically warm lists (seeded with ids disjoint from the tile's)."""
    seed_values = np.sort(rng.random((m, k)) * scale, axis=1)
    seed_ids = 10_000 + np.arange(m * k).reshape(m, k)
    pair = []
    for _ in range(2):
        lists = ArenaNeighborLists(m, k, WorkspaceArena())
        lists.seed(seed_values, seed_ids)
        pair.append(lists)
    return pair


@given(
    st.integers(0, 2**31),
    st.sampled_from(SCALES),
    st.sampled_from(SCALES),
    st.integers(1, 8),
)
@settings(max_examples=80, deadline=None)
def test_offset_update_equals_finish_then_update(seed, dist_scale, norm_scale, k):
    rng = np.random.default_rng(seed)
    m, n_b = 7, 29
    raw_lists, done_lists = _warm_pair(rng, m, k, dist_scale)
    q2 = rng.random(m) * norm_scale
    raw = _boundary_tile(rng, raw_lists.row_max.copy(), q2, n_b)
    ids = np.arange(n_b)
    finished = finalize_sq_l2(raw.copy(), q2)
    expected_survivors = int((finished < done_lists.row_max[:, None]).sum())

    raw_lists.update(0, raw.copy(), ids, offset=q2)
    done_lists.update(0, finished, ids)

    np.testing.assert_array_equal(raw_lists.values, done_lists.values)
    np.testing.assert_array_equal(raw_lists.ids, done_lists.ids)
    np.testing.assert_array_equal(raw_lists.row_max, done_lists.row_max)
    assert raw_lists.stats == done_lists.stats
    assert raw_lists.stats.candidates_surviving == expected_survivors


def test_boundary_is_exercised():
    """The drawn tiles really straddle the cut: some finish just below
    ``row_max`` and some land exactly on or just above it."""
    rng = np.random.default_rng(3)
    (lists, _) = _warm_pair(rng, 7, 4, 1.0)
    q2 = rng.random(7)
    raw = _boundary_tile(rng, lists.row_max.copy(), q2, 29)
    finished = finalize_sq_l2(raw.copy(), q2)
    gap = finished - lists.row_max[:, None]
    assert (gap < 0).any() and (gap >= 0).any()
    assert (np.abs(gap) <= 4 * np.spacing(lists.row_max)[:, None]).sum() > 50


def test_cold_tile_cut_by_bins_equals_finish_then_select():
    """Cold rows are cut at their k-th strided bin minimum on the raw
    tile; the lists equal finishing the whole tile and selecting its k
    best, and the tile itself is left as it was."""
    rng = np.random.default_rng(5)
    m, n_b, k = 4, 300, 3  # 128 bins of 2 columns, 44 only compared
    raw = rng.random((m, n_b)) - 0.5
    q2 = 0.5 + rng.random(m)  # no clamp, so no ties at zero
    a = ArenaNeighborLists(m, k, WorkspaceArena())
    b = BatchedNeighborLists(m, k)
    tile = raw.copy()
    a.update(0, tile, np.arange(n_b), offset=q2)
    b.update(0, finalize_sq_l2(raw.copy(), q2), np.arange(n_b))
    np.testing.assert_array_equal(tile, raw)
    for got, want in zip(a.sorted(), b.sorted()):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(a.row_max, b.row_max)
    # survivors: the raw values at or below the k-th bin minimum
    mins = raw[:, :256].reshape(m, 2, 128).min(axis=1)
    cut = np.sort(mins, axis=1)[:, k - 1]
    assert a.stats.candidates_surviving == int((raw <= cut[:, None]).sum())
    assert a.stats.rows_merged == m
