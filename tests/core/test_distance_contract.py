"""The kernel's written distance contract (docs/PERF.md), property-tested.

Two claims:

1. **Accuracy.** A Var#1 l2 distance is within ``(d + 3) eps (q2 + r2)``
   of an extended-precision brute-force oracle — an absolute bound,
   because ulps of a result mean little when close points cancel — and
   on tie-free rows the ids equal ``ref_knn``'s. Var#6 and ``ref_knn``
   (the unfolded ``pairwise_block`` arithmetic) meet the same bound, so
   any two paths agree to within twice it.
2. **Bit-identity.** Every Var#1 caller runs one tile loop: one-shot,
   plan (cold and warm), cached and budget-streamed executions return
   bit-identical ids and distances at equal blocking.

Inputs are drawn to stress cancellation: near-duplicates (1e-7 apart),
exact duplicates, a +1e3 offset, and ragged blocks.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gsknn import gsknn
from repro.core.plan import GsknnPlan
from repro.core.ref_kernel import ref_knn

EPS = np.finfo(np.float64).eps


def _table(draw, N, d):
    """A drawn ``(N, d)`` table of one of the cancellation-prone kinds."""
    kind = draw(st.sampled_from(["uniform", "near_dup", "exact_dup", "offset"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    X = rng.random((N, d))
    half = N // 2
    if kind == "near_dup":
        X[half:] = X[: N - half] + 1e-7 * rng.standard_normal((N - half, d))
    elif kind == "exact_dup":
        X[half:] = X[rng.integers(0, half, N - half)]
    elif kind == "offset":
        X += 1e3
    return X, rng


@st.composite
def contract_problem(draw):
    d = draw(st.sampled_from([1, 3, 16, 17, 64]))
    N = draw(st.integers(min_value=24, max_value=320))
    X, rng = _table(draw, N, d)
    m = draw(st.integers(min_value=1, max_value=N))
    n = draw(st.integers(min_value=2, max_value=N))
    q = rng.choice(N, m, replace=False)
    r = np.sort(rng.choice(N, n, replace=False))
    k = draw(st.integers(min_value=1, max_value=min(n, 24)))
    return X, q, r, k


def _oracle(X, q, r):
    """Extended-precision squared distances and the contract's bound."""
    Xl = X.astype(np.longdouble)
    R = Xl[r]
    exact = np.stack([((R - Xl[i]) ** 2).sum(axis=1) for i in q])
    x2 = np.einsum("ij,ij->i", X, X)
    bound = (X.shape[1] + 3) * EPS * (x2[q][:, None] + x2[r][None, :])
    return exact, bound


def _check_against_oracle(X, q, r, res):
    """Every returned distance within the bound; no better id missed."""
    exact, bound = _oracle(X, q, r)
    col = {int(g): j for j, g in enumerate(r)}
    rows = np.arange(q.size)[:, None]
    cols = np.vectorize(col.__getitem__)(res.indices)
    got_exact = exact[rows, cols]
    err = np.abs(res.distances.astype(np.longdouble) - got_exact)
    assert (err <= bound[rows, cols]).all(), float((err / bound[rows, cols]).max())
    # nothing left out beats the kept set by more than the bound allows
    left_out = exact.copy()
    left_out[rows, cols] = np.inf
    worst_kept = got_exact.max(axis=1)
    assert (left_out >= worst_kept[:, None] - 2 * bound.max(axis=1)[:, None]).all()
    return exact, bound


def _tie_free_rows(exact, bound, k):
    """Rows whose k+1 nearest oracle distances are pairwise resolvable."""
    srt = np.sort(exact, axis=1)[:, : k + 1].astype(np.float64)
    if srt.shape[1] < 2:
        return np.ones(exact.shape[0], dtype=bool)
    gaps = np.diff(srt, axis=1).min(axis=1)
    return gaps > 4 * bound.max(axis=1).astype(np.float64)


@given(
    contract_problem(),
    st.sampled_from([(None, None), (37, 53), (5, 7)]),
)
@settings(max_examples=60, deadline=None)
def test_var1_within_bound_of_extended_oracle(problem, blocks):
    X, q, r, k = problem
    block_m, block_n = blocks
    kwargs = {} if block_m is None else dict(block_m=block_m, block_n=block_n)
    res = gsknn(X, q, r, k, variant=1, **kwargs)
    exact, bound = _check_against_oracle(X, q, r, res)
    clean = _tie_free_rows(exact, bound, k)
    want = ref_knn(X, q, r, k)
    np.testing.assert_array_equal(res.indices[clean], want.indices[clean])


@given(contract_problem())
@settings(max_examples=30, deadline=None)
def test_var6_and_ref_knn_meet_the_same_bound(problem):
    X, q, r, k = problem
    _check_against_oracle(X, q, r, gsknn(X, q, r, k, variant=6))
    _check_against_oracle(X, q, r, ref_knn(X, q, r, k))


def _assert_identical(a, b):
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.distances, b.distances)


@given(contract_problem())
@settings(max_examples=40, deadline=None)
def test_var1_callers_bit_identical_at_default_blocking(problem):
    X, q, r, k = problem
    one_shot = gsknn(X, q, r, k, variant=1)
    plan = GsknnPlan(X, r, variant=1)
    assert plan.panels_cached
    cold = plan.execute(q, k)
    warm = plan.execute(q, k)  # seeded by the previous result
    _assert_identical(cold, one_shot)
    np.testing.assert_array_equal(warm.distances, one_shot.distances)
    # a warm merge may order exact ties differently; ids of rows without
    # a repeated distance are fixed
    ties = (np.diff(one_shot.distances, axis=1) == 0).any(axis=1)
    np.testing.assert_array_equal(warm.indices[~ties], one_shot.indices[~ties])


@st.composite
def streamed_problem(draw):
    """Reference sets large enough that a budget just under twice the
    panel bytes streams them and still fits the workspace."""
    d = draw(st.sampled_from([3, 16, 17]))
    N = draw(st.integers(min_value=3000, max_value=4000))
    X, rng = _table(draw, N, d)
    q = rng.choice(N, draw(st.integers(min_value=1, max_value=100)), replace=False)
    r = rng.permutation(N)
    k = draw(st.integers(min_value=1, max_value=16))
    return X, q, r, k


@given(streamed_problem())
@settings(max_examples=15, deadline=None)
def test_budget_streamed_bit_identical_to_cached(problem):
    X, q, r, k = problem
    # caching needs twice the (float32, for l2) panel bytes; one byte
    # less streams
    panel_nbytes = r.size * (X.shape[1] + 2) * 4
    streamed = GsknnPlan(X, r, variant=1, memory_budget=2 * panel_nbytes - 1)
    assert streamed.streams_panels
    blocks = dict(block_m=streamed.block_m, block_n=streamed.block_n)
    cached = GsknnPlan(X, r, variant=1, **blocks)
    got = streamed.execute(q, k)
    _assert_identical(got, cached.execute(q, k))
    _assert_identical(got, gsknn(X, q, r, k, variant=1, **blocks))
    streamed.release()
