"""The kernel's 4th loop on several threads: same bits for any worker count.

The worker count ``p`` has no knob; these tests force it by patching the
host probe (``repro.core.workers.host_threads``) to report ``p`` usable
cores and one BLAS thread.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import gsknn
from repro.core import GsknnPlan
from repro.core import workers
from repro.core.arena import WorkspaceArena
from repro.core.membudget import MemoryBudget
from repro.obs.trace import Tracer, set_tracer
from repro.parallel.scheduler import Schedule, ScheduledTask, execute_schedule
from repro.select.vectorized import ArenaNeighborLists


def _force(monkeypatch, cores: int, blas: int = 1) -> None:
    monkeypatch.setattr(workers, "host_threads", lambda: (cores, blas))


def _stats(st):
    return st.blocks, st.candidates_offered, st.candidates_discarded


def _assert_same(a, b):
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.distances, b.distances)


@pytest.fixture
def tracer():
    tracer = Tracer(enabled=True)
    old = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(old)


@pytest.fixture
def cloud(rng):
    X = rng.random((900, 11))
    X[50:56] = X[3]  # exact duplicate rows: ties
    return X


def _solve_each_p(monkeypatch, solve):
    """``solve()`` under p = 1, 2, 3; returns the three outputs."""
    out = []
    for p in (1, 2, 3):
        _force(monkeypatch, p)
        out.append(solve())
    return out


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("variant", [1, 5, 6])
    @pytest.mark.parametrize("norm", ["l2", "cosine", 1])
    def test_variants_and_norms(self, monkeypatch, cloud, rng, variant, norm):
        q = rng.choice(900, 301, replace=False)  # ragged: 301 = 8 x 37 + 5
        r = rng.choice(900, 517, replace=False)
        runs = _solve_each_p(
            monkeypatch,
            lambda: gsknn(
                cloud, q, r, 9, variant=variant, norm=norm,
                block_m=37, block_n=128, return_stats=True,
            ),
        )
        (base, st0), *rest = runs
        for res, st in rest:
            _assert_same(res, base)
            assert _stats(st) == _stats(st0)

    def test_warm_seed_and_repeated_reference_ids(
        self, monkeypatch, cloud, rng
    ):
        q = rng.choice(900, 250, replace=False)
        rest = rng.choice(900, 400, replace=False)
        r = np.concatenate([rest, q[:20], q[:20]])
        seed = gsknn(cloud, q, r[:200], 7, block_m=32, block_n=64)
        runs = _solve_each_p(
            monkeypatch,
            lambda: gsknn(
                cloud, q, r, 7, initial=seed,
                block_m=32, block_n=64, return_stats=True,
            ),
        )
        (base, st0), *rest = runs
        for res, st in rest:
            _assert_same(res, base)
            assert _stats(st) == _stats(st0)

    def test_plan_warm_repeat(self, monkeypatch, cloud, rng):
        q = rng.choice(900, 300, replace=False)
        r = rng.choice(900, 600, replace=False)

        def solve():
            plan = GsknnPlan(cloud, r, block_m=40, block_n=100)
            cold = plan.execute(q, 8)
            warm, st = plan.execute(q, 8, return_stats=True)
            return cold, warm, st

        (c0, w0, st0), *rest = _solve_each_p(monkeypatch, solve)
        for cold, warm, st in rest:
            _assert_same(cold, c0)
            _assert_same(warm, w0)
            assert _stats(st) == _stats(st0)

    def test_budget_streamed_and_cached(self, monkeypatch, rng):
        X = rng.random((12000, 16))
        q = np.arange(500, dtype=np.intp)
        r = np.arange(12000, dtype=np.intp)

        def solve():
            # the 864 KB of float32 panels exceed half the budget:
            # streamed; the half share holds four 64 x 256 scratch sets
            budget = MemoryBudget("1536KiB")
            streamed = GsknnPlan(
                X, r, block_m=64, block_n=256, memory_budget=budget
            )
            assert streamed.streams_panels
            cached = GsknnPlan(
                X, r, block_m=streamed.block_m, block_n=streamed.block_n
            )
            out = streamed.execute(q, 10), cached.execute(q, 10)
            assert budget.peak_bytes <= budget.limit_bytes
            streamed.release()
            return out

        (s0, c0), *rest = _solve_each_p(monkeypatch, solve)
        _assert_same(s0, c0)
        for streamed, cached in rest:
            _assert_same(streamed, s0)
            _assert_same(cached, s0)

    def test_rows_path(self, monkeypatch, cloud, rng):
        Q = rng.random((130, 11))
        r = rng.choice(900, 500, replace=False)
        plan = GsknnPlan(cloud, r, block_m=16, block_n=96)
        a, b, c = _solve_each_p(monkeypatch, lambda: plan.execute_rows(Q, 5))
        _assert_same(b, a)
        _assert_same(c, a)


class TestWorkerCount:
    def test_blas_threads_take_the_cores(self, monkeypatch):
        monkeypatch.setattr(workers, "_usable_cores", lambda: 2)
        monkeypatch.setattr(workers, "_blas_threads", lambda: 2)
        assert workers.row_workers(8)[0] == 1

    def test_pinned_blas_frees_the_cores(self, monkeypatch):
        monkeypatch.setattr(workers, "_usable_cores", lambda: 2)
        monkeypatch.setattr(workers, "_blas_threads", lambda: 1)
        p, attrs = workers.row_workers(8)
        assert p == 2
        assert attrs == {
            "workers": 2, "split": "rows", "reason": "cores",
            "row_blocks": 8, "cores": 2, "blas_threads": 1,
        }
        assert workers.row_workers(1)[0] == 1  # one row block, no panels

    def test_unknown_blas_stays_serial(self, monkeypatch):
        monkeypatch.setattr(workers, "_usable_cores", lambda: 4)
        monkeypatch.setattr(workers, "_blas_threads", lambda: None)
        assert workers.row_workers(8)[0] == 1

    def test_budget_cap(self, monkeypatch):
        _force(monkeypatch, 4)
        assert workers.row_workers(8, cap=3)[0] == 3

    def test_narrowed_affinity_lowers_p(self, monkeypatch):
        """The affinity is read on every call, so narrowing it after a
        kernel call lowers p on the next one; the BLAS is probed once."""
        affinity = {0, 1, 2, 3}
        probes = []
        monkeypatch.setattr(
            workers.os, "sched_getaffinity", lambda pid: set(affinity)
        )
        monkeypatch.setattr(
            workers, "_probe_blas", lambda: probes.append(1) or 1
        )
        workers._blas_threads.cache_clear()
        try:
            assert workers.row_workers(8)[0] == 4
            affinity.difference_update({1, 2, 3})
            assert workers.row_workers(8)[0] == 1
        finally:
            workers._blas_threads.cache_clear()  # forget the fake probe
        assert len(probes) == 1


class _PoolSpy:
    """Counts the kernel calls that fanned out to helper threads while
    patched in (the helpers themselves live across calls)."""

    def __init__(self, monkeypatch):
        self.built = 0
        real = workers.RowWorkers.__init__

        def build(deal, blocks, p, *args, **kwargs):
            self.built += p > 1
            real(deal, blocks, p, *args, **kwargs)

        monkeypatch.setattr(workers.RowWorkers, "__init__", build)


class TestNoNestedFanOut:
    def test_schedule_thread_tasks_stay_serial(self, monkeypatch, cloud):
        _force(monkeypatch, 2)
        spy = _PoolSpy(monkeypatch)
        q = np.arange(600)
        r = np.arange(300, 900)
        # positive control: a plain call with these blocks fans out
        ref = gsknn(cloud, q, r, 6, block_m=64, block_n=128)
        assert spy.built == 1
        lanes = [[ScheduledTask(i, 1.0, q[i * 300 : (i + 1) * 300])]
                 for i in range(2)]
        halves = Schedule(2, lanes)
        parts = execute_schedule(
            halves,
            lambda t: gsknn(cloud, t.payload, r, 6, block_m=64, block_n=128),
        )
        assert spy.built == 1  # the tasks (5 row blocks each) made none
        for half, rows in ((0, slice(0, 300)), (1, slice(300, 600))):
            assert np.array_equal(parts[half].indices, ref.indices[rows])
            assert np.array_equal(parts[half].distances, ref.distances[rows])

    def test_serial_kernels_scope(self, monkeypatch):
        _force(monkeypatch, 2)
        with workers.serial_kernels():
            assert workers.row_workers(8, panels=8) == (1, {
                "workers": 1, "split": "rows", "reason": "nested",
                "row_blocks": 8, "nested": True,
            })
        assert workers.row_workers(8)[0] == 2

    def test_process_worker_mark_lasts_for_the_thread(self, monkeypatch):
        _force(monkeypatch, 2)
        seen = []

        def worker_main():
            workers.serial_process()
            seen.append(workers.row_workers(8)[0])

        t = threading.Thread(target=worker_main)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        assert seen == [1]
        assert workers.row_workers(8)[0] == 2  # other threads unaffected


class TestWorkerErrors:
    @pytest.fixture
    def case(self, monkeypatch, cloud, rng):
        q = rng.choice(900, 400, replace=False)
        r = rng.choice(900, 500, replace=False)
        _force(monkeypatch, 1)
        expected = gsknn(cloud, q, r, 8, block_m=50, block_n=200)
        _force(monkeypatch, 3)
        # 8 row blocks dealt to 3 workers: rows 0-99, 100-249, 250-399
        plan = GsknnPlan(cloud, r, block_m=50, block_n=200)
        return plan, q, expected

    def _fail(self, monkeypatch, failing: dict[str, Exception]) -> list:
        """Patch the lists so the named workers raise on their first
        update and the others finish theirs slowly; returns the rows the
        others finished."""
        real_update = ArenaNeighborLists.update
        finished = []

        def update(self, row_start, *args, **kwargs):
            if self.scratch in failing:
                raise failing[self.scratch]
            time.sleep(0.02)
            real_update(self, row_start, *args, **kwargs)
            finished.append(row_start)

        monkeypatch.setattr(ArenaNeighborLists, "update", update)
        return finished

    def _recovers(self, monkeypatch, plan, q, expected):
        monkeypatch.undo()
        _force(monkeypatch, 3)
        _assert_same(plan.execute(q, 8), expected)
        assert plan.arena_pool.created == 1

    def test_caller_error_waits_for_the_other_workers(
        self, monkeypatch, case
    ):
        plan, q, expected = case
        finished = self._fail(monkeypatch, {"": RuntimeError("worker 0")})
        with pytest.raises(RuntimeError, match="worker 0"):
            plan.execute(q, 8, warm_start=False)
        # workers 1 and 2 finished their first panel before the raise
        assert sorted(finished) == [100, 150, 200, 250, 300, 350]
        self._recovers(monkeypatch, plan, q, expected)

    def test_lowest_failed_worker_error_wins(self, monkeypatch, case):
        plan, q, expected = case
        finished = self._fail(
            monkeypatch,
            {"@1": RuntimeError("worker 1"), "@2": ValueError("worker 2")},
        )
        with pytest.raises(RuntimeError, match="worker 1"):
            plan.execute(q, 8, warm_start=False)
        assert finished == [0, 50]  # worker 0's first panel
        self._recovers(monkeypatch, plan, q, expected)


class TestBudgetHonesty:
    def _plan(self, X, r, limit):
        return GsknnPlan(
            X, r, block_m=128, block_n=256, memory_budget=MemoryBudget(limit),
        )

    def test_budget_for_one_worker_runs_one(self, monkeypatch, rng, tracer):
        X = rng.random((2500, 16))
        q = np.arange(600, dtype=np.intp)
        r = np.arange(1000, 2500, dtype=np.intp)
        _force(monkeypatch, 3)
        # half of 1 MB holds one 128 x 256 scratch set (295 KB) beside a
        # streamed panel (68 KB), not two
        plan = self._plan(X, r, 1_000_000)
        assert (plan.block_m, plan.block_n) == (128, 256)
        got = plan.execute(q, 10)
        assert plan.memory_budget.peak_bytes <= plan.memory_budget.limit_bytes
        (root,) = tracer.find("plan.execute")
        assert root.attrs["workers"] == 1
        _force(monkeypatch, 1)
        _assert_same(got, gsknn(X, q, r, 10, block_m=128, block_n=256))

    def test_roomier_budget_runs_more(self, monkeypatch, rng, tracer):
        X = rng.random((2500, 16))
        q = np.arange(600, dtype=np.intp)
        r = np.arange(1000, 2500, dtype=np.intp)
        _force(monkeypatch, 3)
        plan = self._plan(X, r, 2_500_000)
        plan.execute(q, 10)
        assert plan.memory_budget.peak_bytes <= plan.memory_budget.limit_bytes
        (root,) = tracer.find("plan.execute")
        assert root.attrs["workers"] == 3

    def test_dense_survivors_stay_in_the_tile_budget(self):
        # points on a line, farthest panel first: every panel beats the
        # last, so each warm tile's whole width survives in every row —
        # a 64 x 128 survivor strip (an l2 screen panel is 2 x block_n
        # wide) whose rescore and merge only fit the mask's bytes in
        # rounds
        N, d, k = 3000, 3, 13
        X = np.zeros((N, d))
        X[:, 0] = np.linspace(0.0, 1.0, N)
        q = np.arange(94, dtype=np.intp)
        r = np.arange(N, dtype=np.intp)[::-1].copy()
        panel_nbytes = N * (d + 2) * 4  # float32 l2 panels
        plan = GsknnPlan(X, r, variant=1, memory_budget=2 * panel_nbytes - 1)
        assert plan.streams_panels
        assert (plan.block_m, plan.block_n) == (64, 64)
        got = plan.execute(q, k)
        assert plan.memory_budget.peak_bytes <= plan.memory_budget.limit_bytes
        _assert_same(got, gsknn(X, q, r, k, variant=1, block_m=64, block_n=64))


class TestTrace:
    @pytest.mark.parametrize("variant", [1, 6])
    def test_worker_spans_hang_under_the_root(
        self, monkeypatch, cloud, tracer, variant
    ):
        _force(monkeypatch, 2)
        gsknn(
            cloud, np.arange(400), np.arange(900), 5,
            variant=variant, block_m=50, block_n=300,
        )
        (root,) = tracer.find("gsknn")
        assert root.attrs["workers"] == 2
        assert root.attrs["row_blocks"] == 8
        assert root.attrs["cores"] == 2
        assert root.attrs["blas_threads"] == 1
        spans = tracer.spans
        assert [s.name for s in spans if s.parent_id == -1] == ["gsknn"]
        by_id = {s.span_id: s for s in spans}
        threads = set()
        for s in spans:
            if s.name in ("rank_update", "heap"):
                assert by_id[s.parent_id] is root
                threads.add(s.thread)
        assert len(threads) == 2


@pytest.fixture
def fast_switching():
    """Switch threads every microsecond, so races get a chance to show."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


class TestStress:
    def test_arena_grows_disjoint_keys_from_many_threads(self, fast_switching):
        budget = MemoryBudget("64MiB")
        arena = WorkspaceArena(budget=budget)

        def grow(w: int) -> None:
            for size in range(1, 400):
                arena.take_c(f"tile@{w}", (size, 7), np.float64)
                arena.take_c(f"mask@{w}", (size,), np.bool_)

        with ThreadPoolExecutor(8) as pool:
            for future in [pool.submit(grow, w) for w in range(8)]:
                future.result(timeout=60)
        held = sum(buf.nbytes for buf in arena._buffers.values())
        assert arena.nbytes == held == budget.used_bytes
        assert len(arena) == 16

    def test_more_workers_than_cores(
        self, monkeypatch, cloud, rng, fast_switching
    ):
        q = rng.choice(900, 600, replace=False)
        r = rng.choice(900, 700, replace=False)
        _force(monkeypatch, 1)
        expected, st0 = gsknn(
            cloud, q, r, 10, block_m=16, block_n=128, return_stats=True
        )
        _force(monkeypatch, 6)
        got, st = gsknn(
            cloud, q, r, 10, block_m=16, block_n=128, return_stats=True
        )
        _assert_same(got, expected)
        assert _stats(st) == _stats(st0)
