"""Cosine and general-``p`` tiles equal ``pairwise_block``, bit for bit.

The plan's cosine and lp tiles promise the floating-point sequence of
:func:`repro.core.norms.pairwise_block`, written into the arena instead
of a fresh array. The oracle here is ``pairwise_block`` evaluated on the
same tiles — row blocks of ``block_m`` queries against panels of
``block_n`` references, since a GEMM split by rows is not bit-stable —
followed by a stable sort of each row. Plan executes with cached and
budget-streamed panels and the one-shot call must return its distances
bit for bit and its ids exactly, for Var#1, Var#5 and Var#6, for a
single query row (BLAS's matrix-vector route), a short batch and a
batch one row longer than ``block_m``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import gsknn
from repro.core import GsknnPlan
from repro.core.norms import pairwise_block, resolve_norm

BLOCK_M, BLOCK_N = 256, 64
N_TABLE, D, K = 900, 16, 6
#: Budget of the streamed plans: roomy enough to keep the blocking.
BUDGET = "16MiB"


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(23)
    X = rng.standard_normal((N_TABLE, D))
    # 600 references: 10 panels, the last one ragged
    r = rng.choice(N_TABLE, 600, replace=False)
    return X, r


def _oracle(X, q, r, k, norm):
    norm = resolve_norm(norm)
    D_full = np.empty((q.size, r.size))
    for i_c in range(0, q.size, BLOCK_M):
        Qb = X[q[i_c : i_c + BLOCK_M]]
        for j_c in range(0, r.size, BLOCK_N):
            Rb = X[r[j_c : j_c + BLOCK_N]]
            D_full[i_c : i_c + len(Qb), j_c : j_c + len(Rb)] = pairwise_block(
                Qb, Rb, norm
            )
    order = np.argsort(D_full, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(D_full, order, axis=1), r[order]


def _solve(X, q, r, norm, variant, storage):
    if storage == "oneshot":
        return gsknn(
            X, q, r, K, norm=norm, variant=variant,
            block_m=BLOCK_M, block_n=BLOCK_N,
        )
    plan = GsknnPlan(
        X.copy(), r, norm=norm, variant=variant,
        block_m=BLOCK_M, block_n=BLOCK_N,
        cache_panels=storage == "cached",
        memory_budget=BUDGET if storage == "streamed" else None,
    )
    assert plan.streams_panels == (storage == "streamed")
    assert (plan.block_m, plan.block_n) == (BLOCK_M, BLOCK_N)
    return plan.execute(q, K)


@pytest.mark.parametrize("storage", ["cached", "streamed", "oneshot"])
@pytest.mark.parametrize("variant", [1, 5, 6])
@pytest.mark.parametrize("m", [1, 4, BLOCK_M + 1])
@pytest.mark.parametrize("norm", ["l1", 3.0, "linf", "cosine"])
def test_matches_pairwise_block_bits(table, norm, m, variant, storage):
    X, r = table
    q = np.random.default_rng(m).choice(N_TABLE, m, replace=False)
    want_d, want_i = _oracle(X, q, r, K, norm)
    got = _solve(X, q, r, norm, variant, storage)
    np.testing.assert_array_equal(got.distances, want_d)
    np.testing.assert_array_equal(got.indices, want_i)
