"""Short batches: one tile groups ``block_m // m`` reference panels.

A batch of ``m < block_m`` rows is one row block. Its tiles take
``block_m // m`` consecutive panels, so each holds about
``block_m x block_n`` candidates instead of ``m x block_n``. Every
panel's GEMM keeps its operands and its shape, so the oracle is the same
solve through a plan with ``block_m = m``, where every tile is one
panel: ids and distance bits must be identical.

The tests that count tiles, GEMMs or discards run at one worker: with
two, a one-row-block call splits its panels between the workers
(``tests/core/test_panel_split.py``), and each worker's thresholds
tighten on its own panels only.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import gsknn
from repro.core import GsknnPlan, workers
from repro.core.neighbors import KnnResult
from repro.obs.trace import Tracer, set_tracer
from repro.select import ArenaNeighborLists, cut_bins

BLOCK_M, BLOCK_N = 256, 32
N_TABLE, D, K = 2500, 16, 7
#: Budget of the streamed plans: roomy enough to keep the blocking.
BUDGET = "16MiB"
M_CASES = [1, 3, 4, 37, 100, BLOCK_M - 1, BLOCK_M, BLOCK_M + 1]


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(20)
    X = rng.random((N_TABLE, D))
    # 500 unique references (16 panels, the last one ragged) and a set
    # that repeats 50 of them
    r = rng.choice(N_TABLE, 500, replace=False)
    r_rep = np.concatenate([r[:450], r[100:150]])
    rng.shuffle(r_rep)
    return X, r, r_rep


def _queries(m: int) -> np.ndarray:
    return np.random.default_rng(m).choice(N_TABLE, m, replace=False)


@pytest.fixture
def one_worker(monkeypatch):
    monkeypatch.setattr(workers, "host_threads", lambda: (1, 1))


@pytest.fixture
def tracer():
    tracer = Tracer(enabled=True)
    old = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(old)


def _solve(X, q, r, k, norm, variant, storage, initial, block_m):
    if storage == "oneshot":
        return gsknn(
            X, q, r, k, norm=norm, variant=variant, initial=initial,
            block_m=block_m, block_n=BLOCK_N, return_stats=True,
        )
    streamed = storage == "streamed"
    plan = GsknnPlan(
        X, r, norm=norm, variant=variant, block_m=block_m, block_n=BLOCK_N,
        cache_panels=not streamed, memory_budget=BUDGET if streamed else None,
    )
    assert plan.streams_panels == streamed
    assert (plan.block_m, plan.block_n) == (block_m, BLOCK_N)
    return plan.execute(q, k, initial=initial, return_stats=True)


def _seed(kind, solve):
    """Initial lists for one seeding mode, or None.

    The seed is every other neighbor of a ``2K`` solve over the same
    references: some entries are final neighbors (re-found, deduplicated)
    and the rest get evicted. Its distances come from the same panel
    GEMMs as the solves under test, so a re-found pair carries the same
    bits whichever copy is kept. ``folded``: complete lists over unique
    references (the plan folds them into its lists). ``unfolded``:
    repeated reference ids, and every other row only partly filled, so
    those rows start cold while the others start warm.
    """
    if kind == "none":
        return None
    wide, _ = solve(2 * K)
    dist = wide.distances[:, 1::2].copy()
    idx = wide.indices[:, 1::2].copy()
    if kind == "unfolded":
        dist[::2, K // 2 :] = np.inf
        idx[::2, K // 2 :] = -1
    return KnnResult(dist, idx)


def _spy_tiles(monkeypatch, solve):
    """Run ``solve()``, recording each tile selection receives."""
    tiles = []
    real = ArenaNeighborLists.update

    def spy(self, row_start, cand_values, cand_ids, screen=None):
        tiles.append((
            cand_values.copy(),
            np.array(cand_ids),
            copy.deepcopy(screen),
        ))
        return real(self, row_start, cand_values, cand_ids, screen)

    with monkeypatch.context() as patch:
        patch.setattr(ArenaNeighborLists, "update", spy)
        return (*solve(), tiles)


def _expected_surviving(tiles, initial, folded):
    """Candidates one row block's Var#1 tiles keep, from the rows' cuts.

    A row's threshold is the ``K``-th smallest distance it has seen,
    capped by a complete seed row's largest; a folded seed counts as
    seen, and its listed ids never survive twice. A warm row keeps what
    is at or below its threshold (a tie may win on its id). While the threshold
    is +inf the row is cut at the ``K``-th smallest of the tile's
    ``cut_bins`` strided bin minima, taken on the tile as handed over,
    and keeps what is at or below it. An l2 tile is the float32 screen:
    a cold row keeps what screens below its widened bin cut, a warm row
    what its float64 rescore puts below the threshold, and a distance
    is the pair's rescore.
    """
    m = tiles[0][0].shape[0]
    finished = []
    cold_cuts = []
    for handed, ids, screen in tiles:
        if screen is None:
            finished.append(handed)
            cold_cuts.append(None)
            continue
        rows = np.repeat(np.arange(m), ids.size)
        scratch = np.empty(screen.pair_bytes * 64, np.uint8)
        dist = screen.rescore(rows, np.tile(ids, m), scratch)
        finished.append(dist.reshape(m, ids.size))
        bins = cut_bins(K, ids.size)
        groups = ids.size // bins if bins else 0
        mins = handed[:, : groups * bins].reshape(m, groups, bins).min(axis=1)
        kth = np.sort(mins, axis=1)[:, K - 1] if bins else np.full(m, np.inf)
        cold_cuts.append(screen.cold_cut(kth))
    total = 0
    for i in range(m):
        pool = {}  # folded: id -> distance of the seed and every column
        seen = []  # otherwise: every distance seen
        cap = np.inf
        if folded:
            pool.update(zip(initial.indices[i], initial.distances[i]))
        elif initial is not None:
            cap = initial.distances[i].max()
        for (handed, ids, screen), done, cuts in zip(tiles, finished, cold_cuts):
            row, dist = handed[i], done[i]
            if folded:
                listed = sorted(pool, key=pool.get)[:K]
                thr = pool[listed[-1]]
            else:
                thr = np.sort(seen)[K - 1] if len(seen) >= K else np.inf
                thr = min(cap, thr)
            if np.isinf(thr) and screen is not None:
                total += int((row < cuts[i]).sum())
            elif np.isinf(thr):
                bins = cut_bins(K, row.size)
                if bins:
                    groups = row.size // bins
                    mins = row[: groups * bins].reshape(groups, bins).min(axis=0)
                    total += int((row <= np.sort(mins)[K - 1]).sum())
                else:
                    total += row.size
            else:
                hit = dist <= thr
                if folded:
                    hit &= ~np.isin(ids, listed)
                total += int(hit.sum())
            if folded:
                pool.update(zip(ids, dist))
            else:
                seen.extend(dist)
    return total


@pytest.mark.parametrize("seed", ["none", "folded", "unfolded"])
@pytest.mark.parametrize("storage", ["cached", "oneshot", "streamed"])
@pytest.mark.parametrize("norm", ["l2", "cosine", 1])
@pytest.mark.parametrize("variant", [1, 5])
@pytest.mark.parametrize("m", M_CASES)
def test_grouped_tiles_match_one_panel_tiles(
    table, m, variant, norm, storage, seed, monkeypatch, one_worker
):
    X, r, r_rep = table
    refs = r if seed == "folded" else r_rep
    q = _queries(m)
    # one panel per tile, same GEMM shapes; a batch of more than
    # block_m rows already has one-panel tiles at the same blocking
    oracle_m = min(m, BLOCK_M)

    def solve(k, initial=None, block_m=oracle_m):
        return _solve(
            X, q, refs, k, norm, variant, storage, initial, block_m
        )

    initial = _seed(seed, solve)
    got, st, tiles = _spy_tiles(
        monkeypatch, lambda: solve(K, initial, BLOCK_M)
    )
    want, st_want = solve(K, initial)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(
        got.distances.view(np.int64), want.distances.view(np.int64)
    )
    assert (st.variant, st.m, st.n, st.d) == (st_want.variant, m, refs.size, D)
    assert st.blocks == st_want.blocks  # (row block, panel) pairs
    assert st.candidates_offered == st_want.candidates_offered == m * refs.size
    if BLOCK_M // m <= 1:
        assert st == st_want
    elif variant == 1:
        # a wide tile is cut once: by its rows' thresholds from before
        # it, or by bins while a row has none
        surviving = _expected_surviving(tiles, initial, seed == "folded")
        assert st.candidates_discarded == m * refs.size - surviving


@pytest.mark.parametrize("k", [1, BLOCK_N, BLOCK_N + 9])
@pytest.mark.parametrize("m", [1, 4, 37])
def test_k_around_the_panel_width(table, m, k):
    """``k`` at and past one panel's width: a wide cold tile's bin cut
    spans all its panels, so it keeps each row's ``k`` best even where
    one panel alone could not fill a row."""
    X, r, _ = table
    q = _queries(m)
    plan = GsknnPlan(X, r, block_m=BLOCK_M, block_n=BLOCK_N)
    oracle = GsknnPlan(X, r, block_m=m, block_n=BLOCK_N)
    for _ in range(2):  # cold, then a warm repeat of the same queries
        got, want = plan.execute(q, k), oracle.execute(q, k)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.distances, want.distances)
    rows = np.random.default_rng(k).random((m, D))
    got, want = plan.execute_rows(rows, k), oracle.execute_rows(rows, k)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.distances, want.distances)


@pytest.mark.parametrize("norm", ["linf", 3])
def test_general_p_tiles_fill_their_column_slices(table, norm):
    X, r, _ = table
    q = _queries(4)
    got = gsknn(X, q, r, K, norm=norm, block_m=BLOCK_M, block_n=BLOCK_N)
    want = gsknn(X, q, r, K, norm=norm, block_m=4, block_n=BLOCK_N)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.distances, want.distances)


def _update_spans(tracer):
    return [s for s in tracer.find("heap") if "stage" not in s.attrs]


def test_four_rows_select_once_per_64_panels(table, tracer, one_worker):
    X, _, _ = table
    plan = GsknnPlan(
        X, np.arange(64 * BLOCK_N), block_m=BLOCK_M, block_n=BLOCK_N
    )
    plan.execute(_queries(4), K)
    # one rank_update span per tile, over one GEMM per panel; an l2
    # screen panel is 2 x BLOCK_N wide
    gemms = tracer.find("rank_update")
    assert sum(span.attrs["panels"] for span in gemms) == 32
    assert len(gemms) == len(_update_spans(tracer)) <= 3


@pytest.mark.parametrize("m, panels", [(4, 64), (100, 2), (BLOCK_M, 1)])
def test_root_span_records_panels_per_tile(table, tracer, m, panels):
    X, r, _ = table
    q = _queries(m)
    GsknnPlan(X, r, block_m=BLOCK_M).execute(q, K)
    gsknn(X, q, r, K, block_m=BLOCK_M)
    gsknn(X, q, r, K, block_m=BLOCK_M, variant=6)
    (execute,) = tracer.find("plan.execute")
    one_shot, var6 = tracer.find("gsknn")
    assert execute.attrs["panels_per_tile"] == panels
    assert one_shot.attrs["panels_per_tile"] == panels
    assert var6.attrs["panels_per_tile"] == 1  # Var#6 keeps its tiles


@pytest.mark.parametrize(
    "m, k, variant, bins",
    [
        (4, K, 1, 128),  # one 500-column tile: 128 bins of 3 columns
        # one-panel tiles, l2 screen panels 2 x BLOCK_N wide: a bin per
        # column
        (BLOCK_M, K, 1, 2 * BLOCK_N),
        (BLOCK_M, 2 * BLOCK_N + 1, 1, 0),  # a panel narrower than k: no cut
        (4, K, 5, 0),  # Var#5 never cuts
        (4, K, 6, 0),
    ],
)
def test_root_span_records_cut_bins(table, tracer, m, k, variant, bins):
    X, r, _ = table
    q = _queries(m)
    GsknnPlan(X, r, block_m=BLOCK_M, block_n=BLOCK_N).execute(
        q, k, variant=variant
    )
    gsknn(X, q, r, k, variant=variant, block_m=BLOCK_M, block_n=BLOCK_N)
    (execute,) = tracer.find("plan.execute")
    (one_shot,) = tracer.find("gsknn")
    assert execute.attrs["cut_bins"] == one_shot.attrs["cut_bins"] == bins


def test_wide_tile_fits_the_tile_budget(table):
    """The widened tile and its mask never exceed ``block_m x 2 block_n``
    cells, one float32 screen tile, so a budget fitted for one-panel
    tiles still holds."""
    X, _, _ = table
    # half of it holds one 256 x 64 float32 tile, its mask and a
    # streamed panel, but not the 2500 cached panel rows
    plan = GsknnPlan(
        X, np.arange(N_TABLE), block_m=BLOCK_M, block_n=BLOCK_N,
        memory_budget=300_000,
    )
    assert (plan.block_m, plan.block_n) == (BLOCK_M, BLOCK_N)
    assert plan.streams_panels
    for m in (1, 3, 4, 37, 100, 7, 1):
        q = _queries(m)
        plan.execute(q, K)
        plan.execute(q, K)  # warm: the masked path takes its mask
    budget = plan.memory_budget
    assert budget.peak_bytes <= budget.limit_bytes
    with plan.arena_pool.borrow() as arena:
        assert arena._buffers["tile"].nbytes <= BLOCK_M * BLOCK_N * 8
        assert arena._buffers["lists.mask"].nbytes <= BLOCK_M * BLOCK_N * 2
