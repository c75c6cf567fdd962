"""Resilience threaded through the scheduler and the distributed solver."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.data import gaussian_mixture
from repro.distributed import DistributedAllKnn
from repro.errors import KernelTimeoutError, ValidationError
from repro.parallel.scheduler import (
    ScheduledTask,
    execute_schedule,
    lpt_schedule,
)
from repro.resilience import FaultPlan, RetryPolicy


@pytest.fixture
def schedule():
    tasks = [ScheduledTask(i, 0.001 * (i + 1)) for i in range(9)]
    return lpt_schedule(tasks, 3)


class TestScheduleExecutor:
    def test_faults_recovered(self, schedule, metrics, clean_env):
        out = execute_schedule(
            schedule,
            lambda t: t.task_id * 10,
            fault_plan="seed=3,crash=0.6",
        )
        assert out == {i: i * 10 for i in range(9)}
        assert metrics.snapshot()["counters"]["resilience.retries"] >= 1

    def test_explicit_retry_budget(self, schedule, clean_env):
        out = execute_schedule(
            schedule,
            lambda t: t.task_id,
            fault_plan=FaultPlan(seed=1, alloc=0.5),
            retry=RetryPolicy(max_attempts=4, backoff_base=0.001),
        )
        assert len(out) == 9

    def test_deadline_expiry_carries_progress(self, schedule, clean_env):
        deadline_seen = {}

        def slow(t):
            import time

            time.sleep(0.05)
            return t.task_id

        with pytest.raises(KernelTimeoutError) as excinfo:
            execute_schedule(schedule, slow, backend="serial", deadline=0.08)
        deadline_seen = excinfo.value.partial
        assert set(deadline_seen) == {"completed", "total"}
        assert deadline_seen["total"] == 9
        assert 0 < deadline_seen["completed"] < 9

    def test_non_retryable_propagates(self, schedule, clean_env):
        def broken(t):
            raise ValidationError("shape mismatch")

        with pytest.raises(ValidationError):
            execute_schedule(
                schedule, broken, fault_plan=FaultPlan(seed=0)
            )


@pytest.fixture
def points():
    return gaussian_mixture(700, 6, n_clusters=4, seed=2).points


class TestDistributedSolver:
    def test_faults_do_not_change_result(self, points, metrics, clean_env):
        clean = DistributedAllKnn(
            n_ranks=3, leaf_size=96, iterations=2
        ).solve(points, 5)
        faulty = DistributedAllKnn(
            n_ranks=3, leaf_size=96, iterations=2
        ).solve(
            points, 5,
            fault_plan="seed=11,crash=0.5",
            retry=RetryPolicy(backoff_base=0.001),
        )
        assert np.array_equal(
            clean.result.distances, faulty.result.distances
        )
        assert np.array_equal(clean.result.indices, faulty.result.indices)
        counters = metrics.snapshot()["counters"]
        assert counters["resilience.retries"] >= 1

    def test_deadline_raises_in_comm_or_kernel(self, points, clean_env):
        solver = DistributedAllKnn(n_ranks=3, leaf_size=96, iterations=2)
        with pytest.raises(KernelTimeoutError) as excinfo:
            solver.solve(points, 5, deadline=1e-6)
        assert excinfo.value.site in (
            "comm.send",
            "comm.recv",
            "rank kernel",
        )

    def test_env_plan_defaults_retry_on(self, points, monkeypatch):
        """$REPRO_FAULT_PLAN alone (the CI fault-matrix setup) must
        enable recovery, not convert every solve into a failure."""
        monkeypatch.setenv("REPRO_FAULT_PLAN", "seed=23,crash=0.4")
        clean = DistributedAllKnn(
            n_ranks=2, leaf_size=96, iterations=1
        ).solve(points, 4)
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        want = DistributedAllKnn(
            n_ranks=2, leaf_size=96, iterations=1
        ).solve(points, 4)
        assert np.array_equal(
            clean.result.distances, want.result.distances
        )


#: Every site slow for 4x the budget: an injected slow fault that sleeps
#: outside the ladder's bounded wait overruns the deadline by 4x.
SLOW_PLAN = "seed=1,slow=1.0,slow_ms=2000"
BUDGET = 0.5


class TestDeadlineBoundsInjectedFaults:
    @pytest.mark.parametrize("backend", ["threads", "serial"])
    def test_schedule(self, schedule, backend, clean_env):
        t0 = time.perf_counter()
        with pytest.raises(KernelTimeoutError):
            execute_schedule(
                schedule,
                lambda t: t.task_id,
                backend=backend,
                deadline=BUDGET,
                fault_plan=SLOW_PLAN,
            )
        assert time.perf_counter() - t0 < 2 * BUDGET

    @pytest.mark.parametrize("transport", ["sim", "process"])
    def test_distributed(self, points, transport, clean_env):
        solver = DistributedAllKnn(
            n_ranks=3, leaf_size=96, iterations=2, transport=transport
        )
        t0 = time.perf_counter()
        with pytest.raises(KernelTimeoutError):
            solver.solve(points, 5, deadline=BUDGET, fault_plan=SLOW_PLAN)
        assert time.perf_counter() - t0 < 2 * BUDGET


class TestDistributedProcessTransport:
    def _solve(self, points, transport, **kwargs):
        return DistributedAllKnn(
            n_ranks=3, leaf_size=96, iterations=2, transport=transport
        ).solve(points, 5, **kwargs).result

    def test_matches_sim(self, points, clean_env):
        want = self._solve(points, "sim")
        got = self._solve(points, "process")
        assert np.array_equal(got.distances, want.distances)
        assert np.array_equal(got.indices, want.indices)

    def test_crash_plan_does_not_change_result(
        self, points, metrics, clean_env
    ):
        want = self._solve(points, "sim")
        got = self._solve(
            points,
            "process",
            fault_plan="seed=11,crash=0.5",
            retry=RetryPolicy(backoff_base=0.001),
        )
        assert np.array_equal(got.distances, want.distances)
        assert np.array_equal(got.indices, want.indices)
        counters = metrics.snapshot()["counters"]
        assert counters["resilience.retries"] >= 1

    def test_killed_worker_resolved_in_parent_without_retry(
        self, points, kill_first_worker, metrics, clean_env
    ):
        """No retry policy, no fault plan: a rank worker that dies is
        restarted and its leaf re-solved in the parent."""
        want = self._solve(points, "sim")
        got = self._solve(points, "process")
        assert kill_first_worker
        assert np.array_equal(got.distances, want.distances)
        assert np.array_equal(got.indices, want.indices)
        counters = metrics.snapshot()["counters"]
        assert counters["resilience.fallbacks.serial"] == 1
        assert counters["resilience.pool_rebuilds"] == 1
