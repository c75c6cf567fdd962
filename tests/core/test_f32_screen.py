"""The float32 screen of l2 Var#1 tiles loses no candidate.

An l2 Var#1 tile is formed and cut in float32 (:mod:`repro.core.screen`)
and only its survivors are rescored in float64. The cut is widened by a
bound on the float32 error, so a candidate the float64 rescore would
keep can never be screened out. These cases aim at that bound:

* near-ties at the widened cut: candidates on thin shells around each
  query, their squared distances ``thr (1 - eps)`` with ``eps`` down to
  1e-10 (far below float32's resolution), met cold (the bin cut, shells
  wider than ``k``) and warm (a seed whose entries sit exactly at
  ``thr``, so every shell member beats it);
* 1e6-offset coordinates, near-duplicates 1e-7 apart, tables scaled by
  1e-30 and 1e30, all-equal rows, and an ``execute_rows`` query 1e30
  away from a unit-scale table (a row the screen cannot hold);
* the one-shot, cached, streamed and budgeted paths.

Every returned distance is within the ``(d + 3) eps (q2 + r2)`` contract
of an extended-precision oracle, and on tie-free rows the ids are the
oracle's. Without the widening this suite fails.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gsknn import gsknn
from repro.core.membudget import MemoryBudget
from repro.core.neighbors import KnnResult
from repro.core.plan import GsknnPlan
from repro.core.screen import ScreenFrame

EPS = np.finfo(np.float64).eps
PATHS = ["oneshot", "cached", "streamed", "budgeted"]
#: Seed ids: outside every table, so a seed entry is never re-found.
SEED_ID = 10**9


@st.composite
def shell_problem(draw):
    """Queries with ``shell`` references each at ``thr (1 - eps)``."""
    d = draw(st.sampled_from([2, 3, 16, 17]))
    m = draw(st.integers(1, 12))
    shell = draw(st.integers(2, 24))
    k = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    centres = rng.random((m, d)) * 100.0
    u = rng.standard_normal((m, shell, d))
    u /= np.linalg.norm(u, axis=2, keepdims=True)
    eps = 10.0 ** rng.uniform(-10, -6, (m, shell))
    pts = centres[:, None, :] + u * np.sqrt(1.0 - eps)[:, :, None]
    # far background: other shells, and a cloud nothing near a query
    cloud = rng.random((draw(st.integers(0, 200)), d)) * 100.0 + 200.0
    X = np.vstack([centres, pts.reshape(-1, d), cloud])
    X *= draw(st.sampled_from([1.0, 1e-30, 1e30]))
    X += draw(st.sampled_from([0.0, 1e6]))
    shells = m + np.arange(m * shell).reshape(m, shell)
    return X, np.arange(m), k, shells


def _oracle(X, q, r):
    """Extended-precision squared distances and the contract's bound."""
    Xl = X.astype(np.longdouble)
    exact = np.stack([((Xl[r] - Xl[i]) ** 2).sum(axis=1) for i in q])
    x2 = np.einsum("ij,ij->i", X, X)
    bound = (X.shape[1] + 3) * EPS * (x2[q][:, None] + x2[r][None, :])
    return exact, bound


def _check(X, q, r, k, res, exact, bound):
    """Distances within the bound; tie-free rows hold the oracle's ids."""
    col = {int(g): j for j, g in enumerate(r)}
    rows = np.arange(len(q))[:, None]
    cols = np.vectorize(col.__getitem__)(res.indices)
    err = np.abs(res.distances.astype(np.longdouble) - exact[rows, cols])
    assert (err <= bound[rows, cols]).all()
    order = np.argsort(exact, axis=1)[:, : k + 1]
    srt = np.take_along_axis(exact, order, axis=1).astype(np.float64)
    gaps = np.diff(srt, axis=1).min(axis=1) if k < len(r) else np.inf
    clean = gaps > 4 * bound.max(axis=1).astype(np.float64)
    want = np.sort(r[order[:, :k]], axis=1)
    got = np.sort(res.indices, axis=1)
    np.testing.assert_array_equal(got[clean], want[clean])


def _plan(path, X, r, blocks):
    if path == "streamed":
        return GsknnPlan(X.copy(), r, variant=1, cache_panels=False, **blocks)
    if path == "budgeted":
        return GsknnPlan(
            X.copy(), r, variant=1, memory_budget="256KiB", **blocks
        )
    return GsknnPlan(X.copy(), r, variant=1, **blocks)


def _solve(path, X, q, r, k, blocks, initial=None):
    if path == "oneshot":
        return gsknn(X, q, r, k, variant=1, initial=initial, **blocks)
    plan = _plan(path, X, r, blocks)
    if path == "budgeted":
        blocks.update(block_m=plan.block_m, block_n=plan.block_n)
    out = plan.execute(q, k, initial=initial)
    if plan.memory_budget is not None:
        assert plan.memory_budget.peak_bytes <= plan.memory_budget.limit_bytes
        plan.release()
    return out


BLOCKS = st.sampled_from([
    dict(block_m=4, block_n=16),  # many warm tiles
    dict(block_m=16, block_n=64),
    dict(),  # default blocking: one cold tile
])


@given(shell_problem(), st.sampled_from(PATHS), BLOCKS)
@settings(max_examples=80, deadline=None)
def test_cold_and_warm_tiles_keep_every_shell_member(problem, path, blocks):
    X, q, k, _ = problem
    r = np.arange(len(X))
    k = min(k, len(r))
    exact, bound = _oracle(X, q, r)
    res = _solve(path, X, q, r, k, dict(blocks))
    _check(X, q, r, k, res, exact, bound)


@given(shell_problem(), st.sampled_from(PATHS), BLOCKS)
@settings(max_examples=80, deadline=None)
def test_seed_at_the_shell_radius_lets_every_member_in(problem, path, blocks):
    """A complete seed whose entries all sit just past the shell radius
    ``thr``: each shell member beats it by ``eps``, so each warm tile's
    cut sits right at the members, and every one whose distance the
    float64 contract can tell from ``thr`` must enter its row's list."""
    X, q, k, shells = problem
    r = np.arange(len(X))
    k = max(k, shells.shape[1] + 1)  # the query itself is at distance 0
    if k > len(r):
        return
    exact, bound = _oracle(X, q, r)
    thr = np.float64(exact[0, shells[0]].max())
    thr = np.nextafter(thr, np.inf)
    seed = KnnResult(
        np.full((len(q), k), thr),
        SEED_ID + np.arange(len(q) * k).reshape(len(q), k),
    )
    res = _solve(path, X, q, r, k, dict(blocks), initial=seed)
    for i in range(len(q)):
        beats = r[exact[i] + 2 * bound[i] < thr]
        if beats.size <= k:  # another query's shell may crowd the row
            assert np.isin(beats, res.indices[i]).all(), (i, beats)


@st.composite
def odd_table(draw):
    """Near-duplicates, all-equal rows, offsets and extreme scales."""
    d = draw(st.sampled_from([1, 3, 16]))
    N = draw(st.integers(20, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    kind = draw(st.sampled_from(["near_dup", "equal", "line"]))
    X = rng.random((N, d))
    half = N // 2
    if kind == "near_dup":
        X[half:] = X[: N - half] + 1e-7 * rng.standard_normal((N - half, d))
    elif kind == "equal":
        X[:] = X[0]
    else:  # points on a line
        X[:] = 0.0
        X[:, 0] = np.linspace(0.0, 1.0, N)
    X *= draw(st.sampled_from([1.0, 1e-30, 1e30]))
    X += draw(st.sampled_from([0.0, 1e6]))
    m = draw(st.integers(1, N))
    q = rng.choice(N, m, replace=False)
    r = rng.permutation(N)[: draw(st.integers(1, N))]
    k = draw(st.integers(1, min(len(r), 16)))
    return X, q, r, k


@given(odd_table(), st.sampled_from(PATHS), BLOCKS)
@settings(max_examples=80, deadline=None)
def test_odd_tables_meet_the_contract(problem, path, blocks):
    X, q, r, k = problem
    exact, bound = _oracle(X, q, r)
    _check(X, q, r, k, _solve(path, X, q, r, k, dict(blocks)), exact, bound)


@given(st.integers(0, 2**31), st.sampled_from([1, 3, 16]), BLOCKS)
@settings(max_examples=30, deadline=None)
def test_far_literal_rows(seed, d, blocks):
    """``execute_rows`` queries 1e30 from a unit-scale table: their
    scaled rows do not fit float32, so they keep every candidate, and a
    near row in the same block is still screened."""
    rng = np.random.default_rng(seed)
    X = rng.random((200, d))
    Q = np.vstack([np.full(d, 1e30), -np.full(d, 1e30), rng.random(d)])
    plan = GsknnPlan(X, np.arange(200), variant=1, **blocks)
    res = plan.execute_rows(Q, 5)
    table = np.vstack([X, Q])
    q = np.arange(200, 203)
    exact, bound = _oracle(table, q, np.arange(200))
    _check(table, q, np.arange(200), 5, res, exact, bound)


def test_dense_survivors_rescore_inside_a_tight_budget():
    """All-equal rows survive every warm tile whole; the rescore runs in
    rounds inside the mask's bytes and the budget is never exceeded."""
    X = np.ones((3000, 3))
    q = np.arange(200, dtype=np.intp)
    budget = MemoryBudget(2 * 3000 * (3 + 2) * 4 - 1)
    plan = GsknnPlan(X, np.arange(3000), variant=1, memory_budget=budget)
    assert plan.streams_panels
    res, st_ = plan.execute(q, 7, return_stats=True)
    assert (res.distances == 0).all()
    assert st_.candidates_offered == 200 * 3000
    assert budget.peak_bytes <= budget.limit_bytes


@pytest.mark.parametrize("tiny", [0.0, 1e-290])
def test_narrow_first_chunk_keeps_every_id(tiny):
    """A first chunk far narrower than the rest (zeros, then rows at
    +-1e30) sets neither the scale nor ``rho``: both are bounded over
    every reference."""
    X = np.zeros((6000, 4))
    X[4200:5000, 0] = 1e30
    X[5000:5800, 0] = -1e30
    X[5800:, 1] = np.arange(200)
    X[5999, 2] = tiny
    plan = GsknnPlan(X.copy(), np.arange(6000), variant=1)
    assert plan._frame.rho < 1
    q = np.arange(5700, 6000)
    exact, bound = _oracle(X, q, np.arange(6000))
    _check(X, q, np.arange(6000), 5, plan.execute(q, 5), exact, bound)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 300),
    block_n=st.integers(1, 70),
    d=st.integers(1, 6),
    offset=st.sampled_from([0.0, -3.5, 1e6]),
    seed=st.integers(0, 2**16),
)
def test_frame_bounds_every_reference(n, block_n, d, offset, seed):
    """``rho`` bounds every ``s |r - c|`` below 1, whatever the chunk
    row counts (odd ones reduce a row at a time) and the row order."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) + offset
    X[:, 0] *= 1e3
    for idx, in_order in ((np.arange(n), True), (rng.permutation(n), False)):
        frame = ScreenFrame.of_references(X, idx, block_n, in_order=in_order)
        far = frame.scale * np.sqrt(((X - frame.centre) ** 2).sum(axis=1)).max()
        assert far <= frame.rho < 1
