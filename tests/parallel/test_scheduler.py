"""Unit tests for the task-parallel LPT scheduler."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.parallel import ScheduledTask, Schedule, graham_bound, lpt_schedule
from repro.parallel.scheduler import execute_schedule


def _tasks(estimates):
    return [ScheduledTask(i, e) for i, e in enumerate(estimates)]


class TestLptSchedule:
    def test_all_tasks_assigned_once(self):
        tasks = _tasks([5, 4, 3, 2, 1])
        sched = lpt_schedule(tasks, 2)
        assigned = [t.task_id for procs in sched.assignments for t in procs]
        assert sorted(assigned) == [0, 1, 2, 3, 4]

    def test_classic_lpt_example(self):
        # LPT on {5,3,3,2,2,2} with p=2: optimal makespan 9 wait compute:
        # total=17, LPT: p0:5+2+2=9? p0:5, p1:3 -> p1:3+3=6 ... check bound instead
        tasks = _tasks([5, 3, 3, 2, 2, 2])
        sched = lpt_schedule(tasks, 2)
        total = sum(t.estimate for t in tasks)
        optimal_lower = total / 2
        assert sched.makespan <= graham_bound(2) * max(optimal_lower, 5)

    def test_descending_assignment_order(self):
        sched = lpt_schedule(_tasks([1, 9, 5]), 1)
        order = [t.estimate for t in sched.assignments[0]]
        assert order == [9, 5, 1]

    def test_balances_equal_tasks(self):
        sched = lpt_schedule(_tasks([1.0] * 12), 4)
        assert sched.loads == [3.0, 3.0, 3.0, 3.0]
        assert sched.imbalance == pytest.approx(1.0)

    def test_single_processor(self):
        sched = lpt_schedule(_tasks([2, 3]), 1)
        assert sched.makespan == 5.0

    def test_more_processors_than_tasks(self):
        sched = lpt_schedule(_tasks([2, 3]), 5)
        assert sched.makespan == 3.0
        assert sum(len(a) for a in sched.assignments) == 2

    def test_empty_tasks(self):
        sched = lpt_schedule([], 3)
        assert sched.makespan == 0.0
        assert sched.imbalance == 1.0

    def test_invalid_processors(self):
        with pytest.raises(ValidationError):
            lpt_schedule(_tasks([1]), 0)

    def test_negative_estimate_rejected(self):
        with pytest.raises(ValidationError):
            ScheduledTask(0, -1.0)

    def test_makespan_within_graham_bound_random(self, rng):
        """LPT is a (4/3 - 1/3p)-approximation; check against the trivial
        lower bound max(total/p, longest task)."""
        for _ in range(20):
            estimates = rng.random(15) * 10
            p = int(rng.integers(2, 6))
            sched = lpt_schedule(_tasks(estimates), p)
            lower = max(estimates.sum() / p, estimates.max())
            assert sched.makespan <= graham_bound(p) * lower + 1e-9


class TestGrahamBound:
    def test_values(self):
        assert graham_bound(1) == pytest.approx(1.0)
        assert graham_bound(2) == pytest.approx(4 / 3 - 1 / 6)
        assert graham_bound(10) < 4 / 3

    def test_invalid(self):
        with pytest.raises(ValidationError):
            graham_bound(0)


class TestExecuteSchedule:
    def test_runs_all_tasks(self):
        tasks = _tasks([3, 1, 2, 5])
        sched = lpt_schedule(tasks, 2)
        results = execute_schedule(sched, lambda t: t.estimate * 2)
        assert results == {0: 6, 1: 2, 2: 4, 3: 10}

    def test_payload_passed_through(self):
        tasks = [ScheduledTask(0, 1.0, payload="hello")]
        sched = lpt_schedule(tasks, 1)
        results = execute_schedule(sched, lambda t: t.payload.upper())
        assert results[0] == "HELLO"

    def test_serial_and_threads_agree(self):
        sched = lpt_schedule(_tasks(range(17)), 4)
        fn = lambda t: t.task_id * t.task_id  # noqa: E731
        assert execute_schedule(sched, fn, backend="serial") == (
            execute_schedule(sched, fn, backend="threads")
        )

    def test_empty_schedule(self):
        assert execute_schedule(lpt_schedule([], 4), lambda t: t) == {}

    def test_processes_backend_rejected(self):
        sched = lpt_schedule(_tasks([1.0, 2.0]), 2)
        with pytest.raises(ValidationError):
            execute_schedule(sched, lambda t: t, backend="processes")

    def test_greedy_list_order(self, monkeypatch):
        """Tasks start in descending-estimate order, each on the first
        free worker: with one worker that is exactly the LPT order."""
        # an ambient fault plan would resubmit failed tasks out of order
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        started = []
        sched = lpt_schedule(_tasks([1.0, 4.0, 2.0, 3.0]), 1)
        execute_schedule(
            sched, lambda t: started.append(t.task_id), backend="threads"
        )
        assert started == [1, 3, 2, 0]
