"""The out-of-core tier's contract, end to end.

Three falsifiable claims, each pinned here:

1. **Bit-identity** — a budgeted solve over a memmapped table returns
   indices AND distances bit-identical to the in-RAM fused solve at the
   same blocking (streamed panels are gathered with ``np.take(...,
   out=)`` into the same dtype/layout the cached path uses, so not even
   the floating-point summation order differs).
2. **Enforcement** — peak workspace (arena accounting) stays under the
   budget, asserted by the :func:`repro.perf.memory_checker` harness;
   reservations that would cross the line raise
   :class:`~repro.errors.MemoryBudgetError` *before* allocating.
3. **Steady state** — a budgeted plan's repeat executions perform no
   large allocations (tracemalloc) and no repeat budget charges.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import workers
from repro.core.gsknn import gsknn
from repro.core.membudget import MemoryBudget
from repro.core.plan import GsknnPlan, PlanCache
from repro.core.ref_kernel import ref_knn
from repro.data import uniform_hypercube
from repro.data.loaders import load_dataset, save_dataset
from repro.errors import MemoryBudgetError, ValidationError
from repro.perf import memory_checker


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    """An on-disk .npy table plus its in-RAM twin."""
    ds = uniform_hypercube(4096, 24, seed=7)
    path = tmp_path_factory.mktemp("ooc") / "table.npy"
    save_dataset(ds, path, chunk_rows=997)
    mm = load_dataset(path, mmap_mode="r")
    return ds.points, mm.points


def _assert_identical(a, b):
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.distances, b.distances)


class TestBitIdentity:
    def test_budgeted_memmap_equals_in_ram(self, table):
        ram, mm = table
        q = np.arange(600, dtype=np.intp)
        r = np.arange(4096, dtype=np.intp)
        budget = MemoryBudget("8MiB")
        got = gsknn(mm, q, r, 16, memory_budget=budget)
        # reference at the SAME blocking the budget fitted, so the
        # comparison isolates streaming, not block-size effects
        plan = GsknnPlan(ram, r, memory_budget="8MiB")
        ref = gsknn(ram, q, r, 16, block_m=plan.block_m, block_n=plan.block_n)
        _assert_identical(got, ref)
        assert budget.peak_bytes <= budget.limit_bytes
        plan.release()

    def test_streamed_plan_equals_cached_plan(self, table):
        ram, mm = table
        q = np.arange(400, dtype=np.intp)
        r = np.arange(4095, -1, -1, dtype=np.intp)  # a gather, not a slice
        # float32 l2 panels are 4096*26*4 = 416 KiB; a 600 KiB budget
        # cannot hold 2x that, so the plan must stream them from the
        # memmap
        budgeted = GsknnPlan(mm, r, memory_budget="600KiB")
        assert budgeted.streams_panels
        cached = GsknnPlan(
            ram, r, block_m=budgeted.block_m, block_n=budgeted.block_n
        )
        assert not cached.streams_panels
        _assert_identical(budgeted.execute(q, 10), cached.execute(q, 10))
        # repeat executes stay identical (arena reuse, panels re-streamed)
        _assert_identical(budgeted.execute(q, 10), cached.execute(q, 10))
        budgeted.release()

    def test_norms_match_on_streamed_path(self, table):
        # cosine exercises the streamed-R2c einsum branch
        ram, mm = table
        q = np.arange(128, dtype=np.intp)
        r = np.arange(2048, dtype=np.intp)
        plan = GsknnPlan(mm, r, norm="cosine", memory_budget="8MiB")
        got = plan.execute(q, 8)
        ref = gsknn(
            ram, q, r, 8, norm="cosine",
            block_m=plan.block_m, block_n=plan.block_n,
        )
        _assert_identical(got, ref)
        plan.release()


class TestCacheVsStreamDecision:
    def test_large_budget_caches_panels(self, table):
        _, mm = table
        r = np.arange(1024, dtype=np.intp)
        plan = GsknnPlan(mm, r, memory_budget="64MiB")
        assert plan.panels_cached and not plan.streams_panels
        plan.release()

    def test_small_budget_streams(self, table):
        _, mm = table
        r = np.arange(4096, dtype=np.intp)
        # float32 l2 panels are 4096*26*4 = 416 KiB; 2x must not fit ->
        # stream
        plan = GsknnPlan(mm, r, memory_budget="800KiB")
        assert plan.streams_panels and not plan.panels_cached
        plan.release()

    @pytest.mark.parametrize("m", [400, 800])
    def test_row_workers_fit_what_the_queries_leave(
        self, table, monkeypatch, m
    ):
        """Two row workers are fitted beside a 400 KiB budget's panel
        before the batch is known; the workers an execute starts must
        also fit beside its packed queries and lists. At m = 800 only
        one worker's tile fits (two raised ``MemoryBudgetError`` at
        ``arena:lists.mask``); m = 400 is the case first recorded."""
        ram, mm = table
        monkeypatch.setattr(workers, "host_threads", lambda: (2, 1))
        q, r = np.arange(m, dtype=np.intp), np.arange(0, 4096, 2)
        plan = GsknnPlan(mm, r, memory_budget="400KiB")
        assert plan.streams_panels
        for _ in range(2):  # and again over the grown arena
            got = plan.execute(q, 10)
            want = ref_knn(ram, q, r, 10)
            np.testing.assert_array_equal(got.indices, want.indices)
            np.testing.assert_allclose(
                got.distances, want.distances, rtol=1e-12, atol=1e-12
            )
        assert plan.memory_budget.peak_bytes <= plan.memory_budget.limit_bytes
        plan.release()

    def test_block_autofit_under_tight_budget(self, table):
        _, mm = table
        r = np.arange(4096, dtype=np.intp)
        plan = GsknnPlan(
            mm, r, block_m=1024, block_n=2048, memory_budget="2MiB"
        )
        # default 1024x2048 f64 tile alone is 16 MiB; the fit must have
        # shrunk the blocks until a pass fits half the budget
        per_pass = plan.block_m * plan.block_n * 9 + plan.block_n * 25 * 8
        assert per_pass <= (2 << 20) // 2
        assert plan.block_m >= 64 and plan.block_n >= 64
        plan.release()


class TestEnforcement:
    def test_memory_checker_asserts_budget(self, table):
        _, mm = table
        q = np.arange(512, dtype=np.intp)
        r = np.arange(4096, dtype=np.intp)
        with memory_checker("8MiB") as report:
            gsknn(mm, q, r, 16, memory_budget=report.budget)
        report.assert_within()
        assert 0 < report.workspace_peak_bytes <= 8 << 20

    def test_memory_checker_raises_over_limit(self):
        budget = MemoryBudget("1MiB")
        with memory_checker(budget) as report:
            budget.reserve(budget.limit_bytes)  # legitimately at the cap
        # asserting against a tighter limit than the budget must trip
        with pytest.raises(MemoryBudgetError):
            report.assert_within(512 << 10)

    def test_explicit_var6_over_budget_refused(self, table):
        _, mm = table
        q = np.arange(2048, dtype=np.intp)
        r = np.arange(4096, dtype=np.intp)
        # scores matrix alone is 2048*4096*8 = 64 MiB
        with pytest.raises(MemoryBudgetError) as info:
            gsknn(mm, q, r, 512, variant=6, memory_budget="8MiB")
        assert info.value.site == "plan.variant#6"

    def test_inferred_var6_downgrades_to_var1(self, table):
        ram, mm = table
        q = np.arange(2048, dtype=np.intp)
        r = np.arange(4096, dtype=np.intp)
        k = 1024  # deep-k regime where "auto" would pick Var#6
        # Var#6 needs 128 MiB for its (2048, 4096) scores + argpartition
        # pair; 96 MiB holds Var#1's ~69 MiB workspace but not that, so
        # "auto" must downgrade instead of raising.
        got = gsknn(mm, q, r, k, variant="auto", memory_budget="96MiB")
        plan = GsknnPlan(ram, r, memory_budget="96MiB")
        ref = gsknn(
            ram, q, r, k, variant=1,
            block_m=plan.block_m, block_n=plan.block_n,
        )
        _assert_identical(got, ref)
        plan.release()

    def test_budget_too_small_for_lists_raises(self, table):
        _, mm = table
        q = np.arange(1024, dtype=np.intp)
        r = np.arange(4096, dtype=np.intp)
        # k=512 neighbor lists alone exceed 1 MiB: enforcement must
        # refuse rather than quietly overshoot
        with pytest.raises(MemoryBudgetError):
            gsknn(mm, q, r, 512, memory_budget="1MiB")


class TestSteadyState:
    def test_no_new_charges_after_first_execute(self, table):
        _, mm = table
        q = np.arange(512, dtype=np.intp)
        r = np.arange(4096, dtype=np.intp)
        budget = MemoryBudget("8MiB")
        plan = GsknnPlan(mm, r, memory_budget=budget)
        plan.execute(q, 16)
        settled = budget.used_bytes
        peak = budget.peak_bytes
        for _ in range(3):
            plan.execute(q, 16)
        assert budget.used_bytes == settled
        assert budget.peak_bytes == peak
        plan.release()

    def test_tracemalloc_no_large_allocs_at_steady_state(self, table):
        import tracemalloc

        _, mm = table
        q = np.arange(512, dtype=np.intp)
        r = np.arange(4096, dtype=np.intp)
        plan = GsknnPlan(mm, r, memory_budget="8MiB")
        plan.execute(q, 16)  # warm: arena buffers grow to their max
        tracemalloc.start()
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        plan.execute(q, 16)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # result arrays (indices + distances + temporaries of the final
        # argsort) are legitimate; workspace-sized allocations are not.
        result_bytes = 512 * 16 * 8 * 2
        assert peak - base < result_bytes * 8 + (1 << 20)
        plan.release()


class TestDrivers:
    def test_batch_budgeted_equals_unbudgeted(self, table):
        from repro.core.batch import KnnProblem, gsknn_batch

        ram, mm = table
        problems = [
            KnnProblem(np.arange(100), np.arange(2048), 8),
            KnnProblem(np.arange(50, 250), np.arange(0, 4096, 2), 12),
        ]
        ref = gsknn_batch(ram, problems, plan_reuse=False)
        got = gsknn_batch(
            mm, problems, plan_reuse=False, memory_budget="32MiB"
        )
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_array_equal(a.distances, b.distances)

    def test_plan_cache_keys_and_releases_budgeted_plans(self, table):
        _, mm = table
        r = np.arange(1024, dtype=np.intp)
        cache = PlanCache(max_plans=2)
        a = cache.get(mm, r, memory_budget="64MiB")
        b = cache.get(mm, r, memory_budget="64MiB")
        assert a is b  # same limit -> same cache entry
        c = cache.get(mm, r, memory_budget="32MiB")
        assert c is not a  # different limit -> different plan
        budget = a.memory_budget
        assert budget.used_bytes > 0  # cached panels are charged
        cache.clear()
        assert budget.used_bytes == 0  # eviction returned the charge

    def test_streaming_allknn_budgeted_matches_unbudgeted(self):
        from repro.trees.streaming import StreamingAllKnn

        ds = uniform_hypercube(800, 16, seed=3)
        plain = StreamingAllKnn(16, 8, seed=1)
        budgeted = StreamingAllKnn(16, 8, seed=1, memory_budget="16MiB")
        plain.insert(ds.points)
        budgeted.insert(ds.points)
        q = np.arange(64, dtype=np.intp)
        a = plain.exact_solve(q, 8)
        b = budgeted.exact_solve(q, 8)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.distances, b.distances)

    def test_serve_config_validates_budget_spec(self):
        from repro.serve import ServeConfig

        assert ServeConfig(memory_budget="16MiB").memory_budget == "16MiB"
        with pytest.raises(ValidationError):
            ServeConfig(memory_budget="16 parsecs")

    def test_serve_budgeted_service_solves(self, table):
        from repro.serve import KnnQueryService, ServeConfig

        ram, _ = table
        cfg = ServeConfig(memory_budget="32MiB", max_wait_ms=1.0)
        with KnnQueryService(ram, cfg) as svc:
            got = svc.submit(np.arange(8), k=8).result(timeout=30)
        ref = gsknn(
            ram, np.arange(8, dtype=np.intp),
            np.arange(ram.shape[0], dtype=np.intp), 8,
        )
        np.testing.assert_array_equal(got.indices, ref.indices)
        np.testing.assert_array_equal(got.distances, ref.distances)
        assert svc._budget.peak_bytes <= svc._budget.limit_bytes
