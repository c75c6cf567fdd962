"""Tests for the amortized repeated-query engine (GsknnPlan / PlanCache)."""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.gsknn import gsknn
from repro.core.neighbors import KnnResult, merge_neighbor_lists_fast
from repro.core.plan import GsknnPlan, PlanCache
from repro.core.ref_kernel import ref_knn
from repro.core.table import ALL_ROWS, TableHandle
from repro.errors import ValidationError
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry

from ..conftest import brute_force_knn


@pytest.fixture
def problem(small_cloud, rng):
    q = rng.permutation(300)[:93]
    r = rng.permutation(300)[:211]
    return small_cloud, q, r


class TestPlanEquivalence:
    """Plan executes must be bit-identical to the one-shot kernel."""

    @pytest.mark.parametrize("norm", ["l2", "l1", "linf", "cosine", 2.5])
    @pytest.mark.parametrize("variant", [1, 5, 6])
    def test_bitwise_matches_gsknn(self, problem, norm, variant):
        X, q, r = problem
        want = gsknn(X, q, r, 9, norm=norm, variant=variant)
        plan = GsknnPlan(X, r, norm=norm, variant=variant)
        got = plan.execute(q, 9)
        np.testing.assert_array_equal(got.distances, want.distances)
        np.testing.assert_array_equal(got.indices, want.indices)
        # a warm repeat must not change the answer either
        again = plan.execute(q, 9)
        np.testing.assert_array_equal(again.distances, want.distances)
        np.testing.assert_array_equal(again.indices, want.indices)

    @pytest.mark.parametrize("norm,p", [("l2", 2.0), ("l1", 1.0), (3.0, 3.0)])
    def test_matches_brute_force(self, problem, norm, p):
        X, q, r = problem
        plan = GsknnPlan(X, r, norm=norm)
        got = plan.execute(q, 7)
        truth_d, _ = brute_force_knn(X, q, r, 7, p=p)
        np.testing.assert_allclose(got.distances, truth_d, atol=1e-9)

    def test_initial_lists_match_gsknn(self, problem):
        X, q, r = problem
        seed = gsknn(X, q, r[:50], 5)
        want = gsknn(X, q, r[50:], 5, initial=seed)
        plan = GsknnPlan(X, r[50:])
        got = plan.execute(q, 5, initial=seed)
        np.testing.assert_array_equal(got.distances, want.distances)
        np.testing.assert_array_equal(got.indices, want.indices)

    def test_uncached_panels_match(self, problem):
        X, q, r = problem
        want = gsknn(X, q, r, 9)
        plan = GsknnPlan(X, r, cache_panels=False)
        assert not plan.panels_cached
        got = plan.execute(q, 9)
        np.testing.assert_array_equal(got.distances, want.distances)
        np.testing.assert_array_equal(got.indices, want.indices)

    def test_ragged_blocks(self, small_cloud, rng):
        """Odd block sizes force ragged panels and partial tiles."""
        q = rng.permutation(300)[:31]
        r = rng.permutation(300)[:97]
        want = gsknn(small_cloud, q, r, 4, block_m=7, block_n=13)
        plan = GsknnPlan(small_cloud, r, block_m=7, block_n=13)
        got = plan.execute(q, 4)
        np.testing.assert_array_equal(got.distances, want.distances)
        np.testing.assert_array_equal(got.indices, want.indices)

    def test_precomputed_x2(self, problem):
        X, q, r = problem
        X2 = (X**2).sum(axis=1)
        want = gsknn(X, q, r, 6, X2=X2)
        got = GsknnPlan(TableHandle(X, X2), r).execute(q, 6)
        np.testing.assert_array_equal(got.distances, want.distances)
        np.testing.assert_array_equal(got.indices, want.indices)


class TestWarmStart:
    def test_auto_warm_repeat_is_bit_identical(self, problem):
        X, q, r = problem
        plan = GsknnPlan(X, r)
        old = set_registry(MetricsRegistry(enabled=True))
        try:
            first = plan.execute(q, 8)
            second = plan.execute(q, 8)
            snap = get_registry().snapshot()["counters"]
            assert snap["plan.executes"] == 2
            assert snap["plan.reuse_hits"] == 1
            assert snap["plan.warm_starts"] == 1
        finally:
            set_registry(old)
        np.testing.assert_array_equal(first.distances, second.distances)
        np.testing.assert_array_equal(first.indices, second.indices)

    def test_different_queries_do_not_warm(self, problem):
        X, q, r = problem
        plan = GsknnPlan(X, r)
        old = set_registry(MetricsRegistry(enabled=True))
        try:
            plan.execute(q, 8)
            plan.execute(q[:-1], 8)
            plan.execute(q, 7)  # same q, different k: no warm either
            snap = get_registry().snapshot()["counters"]
            assert snap.get("plan.warm_starts", 0) == 0
        finally:
            set_registry(old)

    def test_warm_start_false_never_seeds(self, problem):
        X, q, r = problem
        plan = GsknnPlan(X, r)
        plan.execute(q, 8, warm_start=False)
        old = set_registry(MetricsRegistry(enabled=True))
        try:
            plan.execute(q, 8, warm_start=False)
            snap = get_registry().snapshot()["counters"]
            assert snap.get("plan.warm_starts", 0) == 0
        finally:
            set_registry(old)

    def test_zero_survivor_shortcut(self, problem):
        """When the seeded lists beat every candidate, the call returns the
        initial lists — without sorting or merging — as fresh copies."""
        X, q, r = problem
        plan = GsknnPlan(X, r)
        k = 5
        initial = KnnResult(
            np.full((q.size, k), -1.0),
            np.tile(np.arange(k, dtype=np.intp), (q.size, 1)),
        )
        old = set_registry(MetricsRegistry(enabled=True))
        try:
            got = plan.execute(q, k, initial=initial)
            snap = get_registry().snapshot()["counters"]
            assert snap["plan.unchanged_returns"] == 1
        finally:
            set_registry(old)
        np.testing.assert_array_equal(got.distances, initial.distances)
        np.testing.assert_array_equal(got.indices, initial.indices)
        assert got.distances is not initial.distances  # no aliasing
        assert got.indices is not initial.indices
        # the one-shot kernel runs the same path, so it agrees exactly
        want = gsknn(X, q, r, k, initial=initial)
        np.testing.assert_array_equal(got.distances, want.distances)
        np.testing.assert_array_equal(got.indices, want.indices)


class TestRepeatedReferenceIds:
    """A fully finite seed with an ``r_idx`` that repeats ids must still
    return each id at most once per row, on both entry points."""

    @pytest.fixture
    def repeated(self, small_cloud, rng):
        perm = rng.permutation(300)
        q, ids60, others = perm[:40], perm[40:100], perm[100:]
        seed = gsknn(small_cloud, q, others, 6)
        assert np.isfinite(seed.distances).all()
        return small_cloud, q, np.concatenate([ids60, ids60]), seed

    def test_one_shot_and_plan_keep_ids_unique(self, repeated):
        X, q, r, seed = repeated
        got = gsknn(X, q, r, 6, initial=seed)
        from_plan = GsknnPlan(X, r).execute(q, 6, initial=seed)
        # the update is the dedup-merge of the fresh lists with the seed
        want = merge_neighbor_lists_fast(gsknn(X, q, r, 6), seed)
        for res in (got, from_plan):
            for row in res.indices:
                assert np.unique(row).size == row.size
            np.testing.assert_array_equal(res.distances, want.distances)
            np.testing.assert_array_equal(res.indices, want.indices)


class TestFrozenTable:
    """A plan freezes its table: an interior-row write cannot go stale."""

    def test_interior_row_write_raises_and_answers_stay_current(self, rng):
        X = rng.random((5000, 8))
        q, mid = np.arange(3, 40), 2500
        plan = GsknnPlan(X, np.arange(5000))
        plan.execute(q, 6)
        # a content fingerprint of the first and last rows misses this
        try:
            X[mid] = X[3] + 1e-9
            wrote = True
        except ValueError:
            wrote = False
        got = plan.execute(q, 6)
        want = ref_knn(X, q, np.arange(5000), 6)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_allclose(got.distances, want.distances, atol=1e-12)
        assert not wrote, "the planned table accepted an in-place write"

    def test_unfrozen_table_is_refused(self, problem):
        X, q, r = problem
        plan = GsknnPlan(X, r)
        plan.execute(q, 6)
        X.flags.writeable = True
        with pytest.raises(ValidationError, match="writeable"):
            plan.execute(q, 6)
        with pytest.raises(ValidationError, match="writeable"):
            plan.execute_rows(X[:4], 6)

    def test_one_shot_leaves_the_array_writeable(self, problem):
        X, q, r = problem
        gsknn(X, q, r, 6)
        assert X.flags.writeable


class TestValidation:
    def test_bad_initial_shape_rejected(self, problem):
        X, q, r = problem
        bad = KnnResult(np.zeros((2, 3)), np.zeros((2, 3), dtype=np.intp))
        with pytest.raises(ValidationError, match="initial lists"):
            GsknnPlan(X, r).execute(q, 3, initial=bad)

    def test_non_executable_variant_rejected(self, problem):
        X, q, r = problem
        with pytest.raises(ValidationError, match="not executable"):
            GsknnPlan(X, r).execute(q, 3, variant=2)

    def test_bad_blocks_rejected(self, problem):
        X, _, r = problem
        with pytest.raises(ValidationError):
            GsknnPlan(X, r, block_m=0)

    def test_bad_x2_shape_rejected(self, problem):
        X, _, r = problem
        with pytest.raises(ValidationError, match="X2"):
            GsknnPlan(TableHandle(X, np.zeros(X.shape[0] - 1)), r)


class TestPlanCache:
    def test_hit_returns_same_plan(self, problem):
        X, _, r = problem
        cache = PlanCache()
        old = set_registry(MetricsRegistry(enabled=True))
        try:
            p1 = cache.get(X, r)
            p2 = cache.get(X, r)
            snap = get_registry().snapshot()["counters"]
            assert snap["plan.cache_misses"] == 1
            assert snap["plan.cache_hits"] == 1
        finally:
            set_registry(old)
        assert p1 is p2
        assert len(cache) == 1

    def test_distinct_refs_get_distinct_plans(self, problem):
        X, _, r = problem
        cache = PlanCache()
        assert cache.get(X, r) is not cache.get(X, r[:-1])
        assert len(cache) == 2

    def test_distinct_norms_get_distinct_plans(self, problem):
        X, _, r = problem
        cache = PlanCache()
        assert cache.get(X, r, norm="l2") is not cache.get(X, r, norm="l1")

    def test_lru_eviction(self, problem, rng):
        X, _, r = problem
        cache = PlanCache(max_plans=2)
        p1 = cache.get(X, r[:50])
        cache.get(X, r[:60])
        cache.get(X, r[:70])  # evicts the r[:50] plan
        assert len(cache) == 2
        assert cache.get(X, r[:50]) is not p1

    def test_plans_share_one_arena_pool(self, problem):
        X, _, r = problem
        cache = PlanCache()
        assert cache.get(X, r).arena_pool is cache.get(X, r[:-1]).arena_pool

    def test_clear(self, problem):
        X, _, r = problem
        cache = PlanCache()
        cache.get(X, r)
        cache.clear()
        assert len(cache) == 0

    def test_bad_blocking_rejected(self, problem):
        X, _, r = problem
        with pytest.raises(ValidationError, match="blocking"):
            PlanCache().get(X, r, blocking=42)

    def test_all_rows_hit_reads_no_id_array(self, problem, monkeypatch):
        import repro.core.plan as plan_mod

        X, _, _ = problem
        handle = TableHandle(X)
        cache = PlanCache()
        first = cache.get(handle, ALL_ROWS)
        np.testing.assert_array_equal(first.r_idx, np.arange(X.shape[0]))

        def unread(*_args, **_kwargs):
            raise AssertionError("an id array was read on an ALL_ROWS hit")

        monkeypatch.setattr(plan_mod.zlib, "crc32", unread)
        monkeypatch.setattr(plan_mod.np, "array_equal", unread)
        assert cache.get(handle, ALL_ROWS) is first
        assert cache.get(handle, ALL_ROWS) is first

    def test_handles_key_by_identity(self, problem):
        X, _, r = problem
        cache = PlanCache()
        one, other = TableHandle(X), TableHandle(X.copy())
        assert cache.get(one, r) is cache.get(one, r)
        assert cache.get(one, r) is not cache.get(other, r)

    def test_view_over_writeable_base_is_not_cached(self, problem):
        """The handle copies such a view; the base can still change."""
        X, _, r = problem
        view = X[:200]
        cache = PlanCache()
        assert cache.get(view, r[r < 200]) is not cache.get(view, r[r < 200])
        assert len(cache) == 0
        assert X.flags.writeable

    def test_bad_max_plans_rejected(self):
        with pytest.raises(ValidationError):
            PlanCache(max_plans=0)


class TestMemoryAmortization:
    """The plan's reason to exist: warm executes stop allocating."""

    def test_serial_executes_reuse_one_arena(self, rng):
        X = rng.random((2048, 16))
        q = np.arange(1024)
        r = np.arange(1024, 2048)
        plan = GsknnPlan(X, r)
        for _ in range(3):
            plan.execute(q, 16, warm_start=False)
        assert plan.arena_pool.created == 1
        stable = plan.arena_pool.nbytes
        assert stable > 0  # the arena really is holding the tile buffers
        plan.execute(q, 16, warm_start=False)
        assert plan.arena_pool.nbytes == stable  # grow-only, fully grown

    def test_warm_repeats_do_not_grow_memory(self, rng):
        """tracemalloc regression: steady-state repeats neither retain new
        memory nor spike transient allocations anywhere near tile size
        (one (block_m, n) tile here is 16 MiB)."""
        X = rng.random((2048, 16))
        q = np.arange(1024)
        r = np.arange(1024, 2048)
        tracemalloc.start()
        try:
            plan = GsknnPlan(X, r)
            for _ in range(2):  # grow the arena, seed the warm path
                plan.execute(q, 16)
            gc.collect()
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            for _ in range(5):
                plan.execute(q, 16)  # results discarded
            gc.collect()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        growth = current - base
        transient = peak - base
        # (1024, 16) result copies and sort scratch are fine; a fresh tile
        # (1024 x 1024 doubles = 8 MiB) or a leaked arena is not.
        assert growth < 2 * 2**20, f"retained {growth / 2**20:.2f} MiB"
        assert transient < 4 * 2**20, f"transient peak {transient / 2**20:.2f} MiB"


class TestPanelLayout:
    """Panels are stored depth-major, so every tile GEMM reads an
    untransposed B operand (paper §2.2's packing order). Feeding a
    row-major panel's transpose to the GEMM costs about 2x on a short
    batch while most results keep their bits, so this guard is what
    fails first. An l2 plan caches float32 screen panels
    ``[(R - c) s | |R - c|^2 s^2 | 1]^T``, ``2 block_n`` wide, and
    float64 ones for Var#5 and Var#6."""

    @pytest.mark.parametrize(
        "norm,norm_cols", [("l2", 1), ("cosine", 1), ("l1", 0)]
    )
    def test_cached_and_streamed_panels_are_depth_major(
        self, rng, norm, norm_cols
    ):
        X = rng.random((700, 12))
        r = rng.permutation(700)[:300]
        cached = GsknnPlan(X, r, norm=norm, block_n=64, memory_budget="64MiB")
        streamed = GsknnPlan(X, r, norm=norm, block_n=64, cache_panels=False)
        assert cached.panels_cached and streamed.streams_panels
        for plan in (cached, streamed):
            with plan.arena_pool.borrow() as arena:
                widths = []
                for j_c, n_b, RaT in plan._iter_panels(arena):
                    assert RaT.shape == (12 + norm_cols, n_b)
                    assert RaT.flags.c_contiguous
                    Rc, R2c = plan._panel_views(RaT)
                    np.testing.assert_array_equal(Rc, X[r[j_c : j_c + n_b]])
                    assert Rc.T.flags.c_contiguous
                    assert (R2c is None) == (norm_cols == 0)
                    widths.append(n_b)
            assert widths == [64] * 4 + [44]
        if norm == "l2":
            self._check_screen_panels(X, r, cached, streamed)
            return
        # panel bytes did not change with the layout
        assert cached._panels_nbytes == 300 * (12 + norm_cols) * 8
        assert cached.memory_budget.used_bytes >= cached._panels_nbytes

    @staticmethod
    def _check_screen_panels(X, r, cached, streamed):
        frame = cached._screen_frame()
        for plan in (cached, streamed):
            with plan.arena_pool.borrow() as arena:
                widths = []
                for j_c, n_b, RaT in plan._iter_panels(arena, screen=True):
                    assert RaT.shape == (12 + 2, n_b)
                    assert RaT.dtype == np.float32 and RaT.flags.c_contiguous
                    rows = (X[r[j_c : j_c + n_b]] - frame.centre) * frame.scale
                    np.testing.assert_array_equal(
                        RaT[:12], rows.T.astype(np.float32)
                    )
                    np.testing.assert_array_equal(
                        RaT[12], np.einsum("ij,ij->i", rows, rows).astype(
                            np.float32
                        )
                    )
                    assert (RaT[13] == 1).all()
                    widths.append(n_b)
            assert widths == [128, 128, 44]
        assert cached._panels_nbytes == 300 * (12 + 2) * 4
        assert cached.memory_budget.used_bytes >= cached._panels_nbytes

    @pytest.mark.parametrize("variant", [5, 6, "var6"])
    def test_l2_plan_naming_var5_or_var6_caches_float64_panels(
        self, rng, variant
    ):
        X = rng.random((700, 12))
        r = rng.permutation(700)[:300]
        plan = GsknnPlan(X, r, variant=variant, memory_budget="64MiB")
        assert set(plan._panels) == {False}
        assert plan._panels_nbytes == 300 * (12 + 1) * 8
        got = plan.execute(np.arange(40), 9)
        want = gsknn(X, np.arange(40), r, 9, variant=variant)
        np.testing.assert_array_equal(got.distances, want.distances)
        assert set(plan._panels) == {False}

    def test_auto_plan_caches_float64_panels_on_first_var6(self, rng):
        """An unbudgeted ``"auto"`` l2 plan caches screen panels; its first
        execute past the Var#6 switch caches float64 panels beside them,
        and later ones reuse both."""
        X = rng.random((700, 12))
        r = rng.permutation(700)[:600]
        plan = GsknnPlan(X, r)
        screen = plan._panels[True]
        assert set(plan._panels) == {True}
        q = np.arange(20)
        first = plan.execute(q, 300, warm_start=False)
        dense = plan._panels[False]
        assert dense[0][2].dtype == np.float64
        again = plan.execute(q, 300, warm_start=False)
        plan.execute(q, 5)
        assert plan._panels[True] is screen and plan._panels[False] is dense
        want = gsknn(X, q, r, 300)
        for got in (first, again):
            np.testing.assert_array_equal(got.distances, want.distances)
            np.testing.assert_array_equal(got.indices, want.indices)

    def test_budgeted_and_released_plans_cache_one_kind(self, rng):
        X = rng.random((700, 12))
        r = rng.permutation(700)[:600]
        budgeted = GsknnPlan(X, r, memory_budget="64MiB")
        budgeted.execute(np.arange(20), 300)
        assert set(budgeted._panels) == {True}
        assert budgeted._panels_nbytes == 600 * (12 + 2) * 4
        released = GsknnPlan(X, r)
        released.release()
        released.execute(np.arange(20), 300)
        released.execute(np.arange(20), 5)
        assert not released.panels_cached and released.streams_panels


class TestEphemeralOneShot:
    def test_gsknn_retains_nothing(self, problem):
        """The one-shot path's ephemeral plan must not pin panel memory."""
        X, q, r = problem
        gc.collect()
        tracemalloc.start()
        try:
            gsknn(X, q, r, 5)
            gc.collect()
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current < 256 * 1024  # nothing kernel-sized survives the call
