"""A cold row's bin cut is lossless, ties and all.

``ArenaNeighborLists.update`` cuts a row without a finite threshold at
the ``k``-th smallest of ``cut_bins(k, width)`` strided bin minima, on
the tile as handed over (the float32 screen tile for l2, its cut then
widened by the screen's bound), and keeps what is at or below it.
Against finishing the tile first (for l2, the float64 rescore of every
pair) and running ``BatchedNeighborLists.update``, the lists must hold
the same values, and the same ids except inside a group of exactly
tied values at a row's ``k``-th distance, where either copy may be
kept.

Tiles here come from real points: all-equal, or with duplicated
reference rows so ties fall at the cut, at 1e6-scale coordinates (l2
distances of 1e12-scale norms with their cancellation), and as cosine
and l1 tiles. Widths run from below ``k`` (no cut forms) past
several multiples of the bin count, ragged ones included. Rows start
empty or from an unfolded seed in which every other row is only
partly filled, so some rows of a tile are cut by bins and the rest by
their thresholds; a second tile then meets the thresholds the first
one left.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arena import WorkspaceArena
from repro.core.norms import pairwise_block, resolve_norm
from repro.core.screen import ScreenFrame, ScreenQueries, TileScreen
from repro.select import ArenaNeighborLists, BatchedNeighborLists, cut_bins

D = 3


def _tiles(rng, m, widths, kind, scale, norm):
    """One ``hand(lists, ids)`` per tile, from real points.

    ``hand`` returns ``(handed, finished, screen)``: what the kernel
    gives selection (the float32 screen tile for l2, cut by the lists'
    current thresholds, and its :class:`TileScreen`; the finished
    distances otherwise) and the finished distances.
    """
    Q = rng.random((m, D)) * scale
    if kind == "equal":
        Q[:] = Q[0]
    Rs = []
    for width in widths:
        distinct = {"equal": 1, "duplicates": 3, "distinct": width}[kind]
        R = rng.random((distinct, D)) * scale
        if kind == "equal":
            R[:] = Q[0] + scale / 7  # one value everywhere, off zero
        Rs.append(R[rng.integers(0, distinct, width)])
    if norm != "l2":
        dists = [pairwise_block(Q, R, resolve_norm(norm)) for R in Rs]
        return [lambda lists, ids, dist=dist: (dist, dist, None) for dist in dists]
    # the plan's screen over a table of every tile's references
    table = np.vstack(Rs)
    frame = ScreenFrame.of_references(table, np.arange(len(table)), 4096)
    queries = ScreenQueries(frame, Q, np.arange(m), None, WorkspaceArena())
    rows = slice(0, m)

    def hand(lists, ids):
        panel = np.empty((D + 2, ids.size), np.float32)
        frame.gather(table, ids, panel, np.empty((ids.size, D)))
        queries.fold_cuts(rows, lists.row_max)
        screen = TileScreen(queries, rows, table, None)
        pairs = np.repeat(np.arange(m), ids.size)
        scratch = np.empty(screen.pair_bytes * 64, np.uint8)
        finished = screen.rescore(pairs, np.tile(ids, m), scratch)
        return queries.Q32 @ panel, finished.reshape(m, ids.size), screen

    return [hand] * len(widths)


def _unfolded_seed(rng, m, k):
    """Complete lists on odd rows, half-filled (+inf / -1) on even rows."""
    dist = np.sort(rng.random((m, k)), axis=1)
    ids = 10**6 + np.arange(m * k).reshape(m, k)
    dist[::2, k // 2 :] = np.inf
    ids[::2, k // 2 :] = -1
    return dist, ids


def _merged(values, ids, seed):
    """Sorted lists, merged with the seed first when there is one."""
    if seed is not None:
        values = np.hstack([values, seed[0]])
        ids = np.hstack([ids, seed[1]])
    k = seed[0].shape[1] if seed is not None else values.shape[1]
    order = np.argsort(values, axis=1, kind="stable")[:, :k]
    return (
        np.take_along_axis(values, order, axis=1),
        np.take_along_axis(ids, order, axis=1),
    )


def _assert_lossless(got, want, value_of):
    """Same values; same ids below each row's k-th distance; at it, any
    id whose candidate has exactly that value."""
    (got_v, got_i), (want_v, want_i) = got, want
    np.testing.assert_array_equal(got_v, want_v)
    for r in range(got_v.shape[0]):
        kth = got_v[r, -1]
        below = got_v[r] < kth
        assert sorted(zip(got_v[r, below], got_i[r, below])) == sorted(
            zip(want_v[r, below], want_i[r, below])
        )
        for i in got_i[r, ~below]:
            assert value_of[r].get(int(i), np.inf) == kth


@st.composite
def _widths(draw, k):
    """Tile widths around ``k`` and the bin count."""
    bins = max(4 * k, 128)
    return draw(
        st.sampled_from([
            max(1, k - 1),  # no cut forms
            k,  # one bin per column, exactly k of them
            k + 3,
            bins,  # one group
            2 * bins,  # strided bins, no ragged columns
            2 * bins + 37,  # ragged columns are only compared
            3 * bins - 1,
        ])
    )


@given(
    seed=st.integers(0, 2**31),
    m=st.integers(1, 5),
    k=st.sampled_from([1, 2, 5, 16, 33]),
    kind=st.sampled_from(["distinct", "duplicates", "equal"]),
    scale=st.sampled_from([1.0, 1e6]),
    norm=st.sampled_from(["l2", "cosine", 1]),
    seeded=st.booleans(),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_bin_cut_equals_finish_then_update(
    seed, m, k, kind, scale, norm, seeded, data
):
    rng = np.random.default_rng(seed)
    widths = [data.draw(_widths(k)) for _ in range(data.draw(st.integers(1, 2)))]
    tiles = _tiles(rng, m, widths, kind, scale, norm)
    init = _unfolded_seed(rng, m, k) if seeded else None

    got = ArenaNeighborLists(m, k, WorkspaceArena())
    want = BatchedNeighborLists(m, k)
    if seeded:
        # what the plan does with an unfolded seed: thresholds only
        got.row_max[:] = init[0].max(axis=1)
        want.row_max[:] = init[0].max(axis=1)
        want._touched[:] = np.isfinite(want.row_max)
    value_of = [{} for _ in range(m)]
    if seeded:
        for r in range(m):
            value_of[r].update(zip(init[1][r].tolist(), init[0][r]))
    first = 0
    for hand, width in zip(tiles, widths):
        ids = np.arange(first, first + width)
        first += width
        handed, finished, screen = hand(got, ids)
        tile = handed.copy()
        got.update(0, tile, ids, screen=screen)
        want.update(0, finished, ids)
        np.testing.assert_array_equal(tile, handed)  # never written
        for r in range(m):
            value_of[r].update(zip(ids.tolist(), finished[r]))
    # the rescore and merge scratch stay in the mask's bytes: one byte a
    # tile cell, or one row's k list entries and one survivor (one
    # rescored pair) on a tiny tile
    room = max(m * max(widths), 16 * (k + 1), 2 * D * 8)
    assert got._arena._buffers["lists.mask"].nbytes <= room
    _assert_lossless(
        _merged(got.values, got.ids, init),
        _merged(want.values, want.ids, init),
        value_of,
    )


def test_ties_fall_at_the_cut():
    """The drawn duplicate tiles really put ties on the cut: a row whose
    k-th bin minimum has another candidate of exactly its value."""
    rng = np.random.default_rng(1)
    k, width = 5, 2 * 128 + 37
    ties = 0
    for _ in range(20):
        (hand,) = _tiles(rng, 4, [width], "duplicates", 1.0, "l2")
        raw, _, _ = hand(ArenaNeighborLists(4, k, WorkspaceArena()), np.arange(width))
        bins = cut_bins(k, width)
        groups = width // bins
        mins = raw[:, : groups * bins].reshape(4, groups, bins).min(axis=1)
        cut = np.sort(mins, axis=1)[:, k - 1]
        ties += int(((raw == cut[:, None]).sum(axis=1) > 1).sum())
    assert ties > 0


def test_cut_bins_rule():
    """L follows from k and the width: at least k, at most the width,
    and no cut where the width is below k."""
    assert cut_bins(16, 2048) == 128
    assert cut_bins(64, 2048) == 256
    assert cut_bins(512, 2048) == 2048
    assert cut_bins(7, 100) == 100
    assert cut_bins(7, 7) == 7
    assert cut_bins(8, 7) == 0
