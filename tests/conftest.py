"""Shared fixtures and reference implementations for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def kill_first_worker(monkeypatch) -> list[int]:
    """Kill the process worker that the first ``ProcessTransport.submit``
    goes to, just before its task arrives.

    The death is real, as an OOM kill or a crash in native code would
    be, so the caller sees a genuine ``BrokenProcessPool``. Returns the
    list that receives the killed worker's index.
    """
    from repro.shard.transport import ProcessTransport

    real_submit = ProcessTransport.submit
    killed: list[int] = []

    def kill_first(self, shard, task, **kwargs):
        if not killed:
            killed.append(shard)
            self._pools[shard].submit(os._exit, 13)
        return real_submit(self, shard, task, **kwargs)

    monkeypatch.setattr(ProcessTransport, "submit", kill_first)
    return killed


@pytest.fixture
def small_cloud(rng) -> np.ndarray:
    """A 300-point, 17-dimensional cloud (odd sizes exercise ragged edges)."""
    return rng.random((300, 17))


def brute_force_knn(
    X: np.ndarray,
    q_idx: np.ndarray,
    r_idx: np.ndarray,
    k: int,
    p: float = 2.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth kNN: full distance matrix + argsort.

    Returns ``(distances, global_ids)``, rows ascending. Squared l2 for
    p == 2, true p-norm otherwise — the library's distance conventions.
    """
    Q = X[np.asarray(q_idx, dtype=np.intp)]
    R = X[np.asarray(r_idx, dtype=np.intp)]
    diff = np.abs(Q[:, None, :] - R[None, :, :])
    if p == 2.0:
        D = (diff**2).sum(axis=2)
    elif np.isinf(p):
        D = diff.max(axis=2)
    elif p == 1.0:
        D = diff.sum(axis=2)
    else:
        D = (diff**p).sum(axis=2) ** (1.0 / p)
    order = np.argsort(D, axis=1, kind="stable")[:, :k]
    rows = np.arange(Q.shape[0])[:, None]
    return D[rows, order], np.asarray(r_idx, dtype=np.intp)[order]


def assert_knn_equal(result, truth_dist, truth_ids, X=None, atol=1e-9):
    """Distances must match exactly (up to fp); ids may differ on ties.

    Where distances are tied, any id attaining the tied distance is
    accepted (all kernels break ties arbitrarily, like the paper's).
    """
    got = np.sort(result.distances, axis=1)
    want = np.sort(truth_dist, axis=1)
    np.testing.assert_allclose(got, want, atol=atol)
    # every reported id must actually attain its reported distance
    if X is not None:
        for i in range(result.m):
            for dist, ident in zip(result.distances[i], result.indices[i]):
                assert ident >= 0


def lists_workspace(m, k, width, norm="l1", d=3):
    """The kernel's Var#1 workspace for one ``m``-row block over tiles
    up to ``width`` wide, bound to a fresh arena: what
    ``ArenaNeighborLists`` (and, for l2, ``ScreenQueries``) take from."""
    from repro.core.arena import WorkspaceArena
    from repro.core.plan import GsknnPlan
    from repro.core.table import ALL_ROWS
    from repro.core.variants import Variant
    from repro.core.workspace import Workspace

    plan = GsknnPlan(
        np.zeros((width, d)), ALL_ROWS, norm=norm, block_m=m, block_n=width,
        cache_panels=False,
    )
    return Workspace(plan, Variant.VAR1, k, m).bind(WorkspaceArena())
