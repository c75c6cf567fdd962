"""A Var#1 l2 distance depends on its (query, reference) pair alone.

Survivors of the float32 screen are rescored one pair at a time
(:mod:`repro.core.screen`), so a pair's float64 distance has the same
bits whatever produced it: the batch size ``m`` (1 takes BLAS's
matrix-vector route for a float64 GEMM, 257 a ragged second row
block), the block shape, the row worker count, cached, streamed or
budget-streamed panels, ``execute`` or ``execute_rows``, a one-shot
call, a plan or a serving window. Every run below returns neighbour
lists; each (query, id) pair met in more than one run must carry one
distance, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import workers
from repro.core.gsknn import gsknn
from repro.core.plan import GsknnPlan
from repro.core.table import ALL_ROWS
from repro.serve import KnnQueryService

N, D, K = 4000, 16, 8
#: Float32 panels are N (D + 2) 4 = 288 000 bytes: this budget cannot
#: hold twice that, so its plans stream, and it still fits two workers.
BUDGET = 560_000
BLOCKS = [dict(), dict(block_m=37, block_n=53)]


@pytest.fixture(scope="module")
def table():
    X = np.random.default_rng(26).random((N, D))
    X.flags.writeable = False
    return X


def _runs(X, q, blocks):
    """``(name, result)`` for each path that can solve ``X[q]``."""
    r = np.arange(N)
    yield "oneshot", gsknn(X, q, r, K, variant=1, **blocks)
    cached = GsknnPlan(X, ALL_ROWS, variant=1, **blocks)
    yield "cached", cached.execute(q, K)
    yield "cached-warm", cached.execute(q, K)
    yield "rows", cached.execute_rows(X[q], K)
    streamed = GsknnPlan(X, ALL_ROWS, variant=1, cache_panels=False, **blocks)
    yield "streamed", streamed.execute(q, K)
    budgeted = GsknnPlan(X, ALL_ROWS, variant=1, memory_budget=BUDGET)
    assert budgeted.streams_panels
    yield "budgeted", budgeted.execute(q, K)
    yield "budgeted-rows", budgeted.execute_rows(X[q], K)
    assert budgeted.memory_budget.peak_bytes <= BUDGET
    budgeted.release()


def test_pair_bits_do_not_depend_on_the_path(table, monkeypatch):
    seen: dict[tuple[int, int], int] = {}
    pairs = 0
    order = np.random.default_rng(1).permutation(N)

    def record(name, q, res):
        nonlocal pairs
        bits = res.distances.view(np.int64)
        for i, row in enumerate(q):
            for j, ref in enumerate(res.indices[i]):
                key = (int(row), int(ref))
                old = seen.setdefault(key, int(bits[i, j]))
                assert old == bits[i, j], (name, key)
                pairs += 1

    for p in (1, 2):
        monkeypatch.setattr(workers, "host_threads", lambda p=p: (p, 1))
        for m in (1, 4, 257):
            q = order[:m]
            for blocks in BLOCKS:
                for name, res in _runs(table, q, blocks):
                    record(f"{name} m={m} p={p} {blocks}", q, res)
    with KnnQueryService(table) as svc:
        q = order[:4]
        record("serve", q, svc.submit(q, K).result(timeout=30))
        record("serve-rows", q, svc.submit_rows(table[q], K).result(timeout=30))
    # every run met the same pairs, and each was checked in every run
    assert len(seen) == 257 * K
    assert pairs >= 2 * len(BLOCKS) * 7 * 257 * K
