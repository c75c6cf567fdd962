"""Tests for the batch kNN API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import KnnProblem, gsknn_batch
from repro.core.table import TableHandle
from repro.core.gsknn import gsknn
from repro.core.plan import PlanCache
from repro.errors import ValidationError


@pytest.fixture
def table(rng):
    return rng.random((200, 8))


def _problems(rng, count=6):
    out = []
    for _ in range(count):
        m = int(rng.integers(2, 30))
        n = int(rng.integers(5, 80))
        q = rng.integers(0, 200, m)
        r = rng.choice(200, size=n, replace=False)
        out.append(KnnProblem(q, r, int(rng.integers(1, min(n, 8) + 1))))
    return out


class TestKnnProblem:
    def test_validation(self):
        with pytest.raises(ValidationError):
            KnnProblem(np.array([], dtype=int), np.arange(3), 1)
        with pytest.raises(ValidationError):
            KnnProblem(np.arange(3), np.arange(3), 4)
        with pytest.raises(ValidationError):
            KnnProblem(np.zeros((2, 2), dtype=int), np.arange(3), 1)

    def test_duplicate_indices_allowed_and_solved(self, table):
        """Duplicates are legitimate (repeated queries, references seen
        twice) — each occurrence gets its own result row / list slot."""
        prob = KnnProblem(np.array([5, 5, 7, 5]), np.array([1, 2, 2, 9]), 2)
        (res,) = gsknn_batch(table, [prob])
        assert res.m == 4
        np.testing.assert_array_equal(res.distances[0], res.distances[1])
        np.testing.assert_array_equal(res.distances[0], res.distances[3])

    def test_k_equals_reference_count(self, table):
        """k == r_idx.size is the full-sort edge, not an error."""
        r = np.arange(10, 22)
        prob = KnnProblem(np.array([0, 3]), r, r.size)
        (res,) = gsknn_batch(table, [prob])
        assert res.k == r.size
        assert set(res.indices[0]) == set(r)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_whole_valued_float_indices_coerced(self, dtype):
        prob = KnnProblem(
            np.array([0.0, 3.0], dtype=dtype),
            np.array([1.0, 2.0, 5.0], dtype=dtype),
            2,
        )
        assert prob.q_idx.dtype == np.intp
        assert prob.r_idx.dtype == np.intp
        np.testing.assert_array_equal(prob.q_idx, [0, 3])

    def test_fractional_float_indices_rejected(self):
        """Never silently truncate: 2.5 must not become index 2."""
        with pytest.raises(ValidationError, match="non-integral"):
            KnnProblem(np.array([0.0, 2.5]), np.arange(5), 1)

    def test_nonfinite_float_indices_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            KnnProblem(np.array([0.0, np.nan]), np.arange(5), 1)
        with pytest.raises(ValidationError, match="non-finite"):
            KnnProblem(np.arange(3.0), np.array([np.inf, 1.0]), 1)

    def test_float_beyond_exact_integer_range_rejected(self):
        """float32 can only represent integers exactly below 2**24 —
        larger magnitudes would round to a *different* index."""
        with pytest.raises(ValidationError, match="exact"):
            KnnProblem(
                np.array([0.0, 2.0**25], dtype=np.float32), np.arange(5), 1
            )

    def test_non_numeric_dtype_rejected(self):
        with pytest.raises(ValidationError, match="integer index"):
            KnnProblem(np.array(["0", "1"]), np.arange(5), 1)

    def test_negative_indices_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            KnnProblem(np.array([0, -1]), np.arange(5), 1)

    def test_smaller_integer_dtypes_coerced(self):
        prob = KnnProblem(
            np.array([0, 3], dtype=np.int16),
            np.array([1, 2, 5], dtype=np.uint8),
            2,
        )
        assert prob.q_idx.dtype == np.intp
        assert prob.r_idx.dtype == np.intp


class TestGsknnBatch:
    def test_matches_individual_solves(self, table, rng):
        problems = _problems(rng)
        batch = gsknn_batch(table, problems)
        for prob, res in zip(problems, batch):
            single = gsknn(table, prob.q_idx, prob.r_idx, prob.k)
            np.testing.assert_allclose(
                res.distances, single.distances, atol=1e-12
            )

    @pytest.mark.parametrize("p", [2, 4])
    def test_parallel_matches_serial(self, table, rng, p):
        problems = _problems(rng)
        serial = gsknn_batch(table, problems, p=1)
        parallel = gsknn_batch(table, problems, p=p)
        for a, b in zip(serial, parallel):
            np.testing.assert_allclose(a.distances, b.distances, atol=1e-12)

    def test_order_preserved(self, table, rng):
        problems = _problems(rng, count=10)
        results = gsknn_batch(table, problems, p=3)
        for prob, res in zip(problems, results):
            assert res.m == prob.q_idx.size
            assert res.k == prob.k

    def test_empty_batch(self, table):
        assert gsknn_batch(table, []) == []

    def test_index_range_checked(self, table):
        with pytest.raises(ValidationError):
            gsknn_batch(table, [KnnProblem(np.array([500]), np.arange(5), 2)])

    def test_invalid_workers(self, table, rng):
        with pytest.raises(ValidationError):
            gsknn_batch(table, _problems(rng), p=0)

    def test_norms_pass_through(self, table, rng):
        problems = _problems(rng, count=3)
        results = gsknn_batch(table, problems, norm="l1", p=2)
        for prob, res in zip(problems, results):
            single = gsknn(table, prob.q_idx, prob.r_idx, prob.k, norm="l1")
            np.testing.assert_allclose(
                res.distances, single.distances, atol=1e-12
            )

    def test_backend_validated_early(self, table, rng):
        with pytest.raises(ValidationError, match="threads.*serial"):
            gsknn_batch(table, _problems(rng, count=2), backend="processes")
        with pytest.raises(ValidationError, match="threads.*serial"):
            gsknn_batch(table, [], backend="bogus")


class TestPlanCacheInjection:
    def test_injected_cache_is_used(self, table, rng):
        problems = _problems(rng, count=4)
        mine = PlanCache(max_plans=4)
        results = gsknn_batch(table, problems, plan_cache=mine)
        assert len(mine) > 0
        for prob, res in zip(problems, results):
            single = gsknn(table, prob.q_idx, prob.r_idx, prob.k)
            np.testing.assert_allclose(
                res.distances, single.distances, atol=1e-12
            )

    def test_injected_cache_ignored_without_plan_reuse(self, table, rng):
        mine = PlanCache(max_plans=4)
        gsknn_batch(
            table, _problems(rng, count=2), plan_reuse=False, plan_cache=mine
        )
        assert len(mine) == 0

    def test_repeat_reference_sets_hit_injected_cache(self, table):
        r = np.arange(0, 60)
        problems = [
            KnnProblem(np.array([1, 2]), r, 3),
            KnnProblem(np.array([7]), r, 3),
        ]
        mine = PlanCache(max_plans=4)
        handle = TableHandle(table)  # plans outlive a call per handle
        gsknn_batch(handle, problems, plan_cache=mine)
        gsknn_batch(handle, problems, plan_cache=mine)
        assert len(mine) == 1  # one reference set -> one plan, reused

    def test_bare_array_is_left_writeable(self, table, rng):
        """A bare table gets a per-call handle: validated, not frozen."""
        mine = PlanCache(max_plans=4)
        gsknn_batch(table, _problems(rng, count=2), plan_cache=mine)
        assert table.flags.writeable

    def test_default_cache_does_not_pin_the_table(self, rng):
        """Without an injected cache nothing outlives the call."""
        import gc
        import weakref

        X = rng.random((200, 8))
        alive = weakref.ref(X)
        gsknn_batch(X, _problems(rng, count=2))
        del X
        gc.collect()
        assert alive() is None
