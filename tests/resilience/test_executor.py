"""The one retry/fallback loop: recovery, bit-identity, deadlines, shm.

These are the acceptance tests of the resilience layer, over the two
ladders that leave the calling thread:

* schedule tasks (:func:`repro.parallel.scheduler.execute_schedule`):
  a thread pool, then inline serial;
* shard partitions (:class:`repro.shard.ShardedAllKnn`): worker
  processes over shared memory, then parent-side threads, then inline
  serial.

A fault plan that kills a worker mid-solve must not fail the solve —
item retry and the ladder complete it **bit-identical** to the
fault-free answer, with ``resilience.*`` counters recording the
recovery and no shared-memory leak. A solve that exceeds its deadline
must raise ``KernelTimeoutError`` within 2x the budget, with worker
processes reaped and ``/dev/shm`` segments unlinked.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.core.gsknn import gsknn
from repro.core.table import TableHandle
from repro.errors import BackendError, KernelTimeoutError, ValidationError
from repro.parallel.scheduler import (
    ScheduledTask,
    execute_schedule,
    lpt_schedule,
)
from repro.resilience import Deadline, FaultPlan, RetryPolicy, run_ladder
from repro.resilience.executor import InlineRung
from repro.shard import ShardedAllKnn
from repro.shard.transport import (
    ProcessTransport,
    SharedSegments,
    ShardWorld,
    _TransportRung,
    segment_prefix,
)

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs POSIX shared memory"
)

#: shard panels of 64 rows, so both shards own part of the table
BLOCKS = {"block_m": 64, "block_n": 64}


def shm_segments() -> set[str]:
    """This process's shared-memory segments: another process's, a
    concurrent test run's among them, never enter the comparison."""
    prefix = segment_prefix()
    return {n for n in os.listdir("/dev/shm") if n.startswith(prefix)}


def assert_reaped() -> None:
    """Every worker process is gone within a few seconds."""
    limit = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < limit:
        time.sleep(0.05)
    assert not multiprocessing.active_children()


@pytest.fixture
def problem(cloud):
    q = np.arange(160, dtype=np.intp)
    r = np.arange(cloud.shape[0], dtype=np.intp)
    k = 6
    return cloud, q, r, k


def slices(problem) -> list[np.ndarray]:
    return np.array_split(problem[1], 4)


def truth(problem) -> list:
    """Each schedule task's fault-free answer."""
    X, _, r, k = problem
    return [gsknn(X, q, r, k) for q in slices(problem)]


def schedule_solve(problem, backend: str = "threads", **kwargs) -> list:
    """The problem's queries as four tasks on two workers."""
    X, _, r, k = problem
    tasks = [
        ScheduledTask(i, float(q.size), payload=q)
        for i, q in enumerate(slices(problem))
    ]
    out = execute_schedule(
        lpt_schedule(tasks, 2),
        lambda t: gsknn(X, t.payload, r, k),
        backend=backend,
        **kwargs,
    )
    return [out[i] for i in range(len(tasks))]


def assert_same(got: list, want: list) -> None:
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a.distances, b.distances)
        assert np.array_equal(a.indices, b.indices)


def sharded(X, **kwargs) -> ShardedAllKnn:
    return ShardedAllKnn(X, 2, transport="process", **BLOCKS, **kwargs)


class TestBitIdentityUnderFaults:
    def test_worker_crash_mid_solve_recovers_bit_identical(
        self, problem, metrics, clean_env
    ):
        """The headline acceptance path: crash=1.0 kills a real shard
        worker on every attempt, so recovery must walk the whole ladder
        — and the answer must not change by a single bit."""
        X, q, _, k = problem
        before = shm_segments()
        with sharded(
            X,
            fault_plan=FaultPlan(crash=1.0),
            retry=RetryPolicy(backoff_base=0.001),
        ) as router:
            got = router.solve(q, k)
            want = router.solve_reference(q, k)
        assert_same([got], [want])
        counters = metrics.snapshot()["counters"]
        assert counters["resilience.solves"] == 1
        assert counters["resilience.retries"] >= 1
        assert counters["resilience.fallbacks"] >= 1
        assert counters["resilience.chunks_recovered"] >= 1
        assert counters["resilience.degraded_solves"] == 1
        assert shm_segments() == before

    def test_seeded_crash_plan_threads(self, problem, clean_env):
        got = schedule_solve(
            problem,
            fault_plan="seed=101,crash=0.4",
            retry=RetryPolicy(backoff_base=0.001),
        )
        assert_same(got, truth(problem))

    def test_certain_alloc_failure_degrades_to_serial(
        self, problem, metrics, clean_env
    ):
        """alloc=1.0 fails every attempt on every rung except the final
        fault-free serial rung — the solve must still complete."""
        got = schedule_solve(
            problem,
            fault_plan=FaultPlan(alloc=1.0),
            retry=RetryPolicy(max_attempts=2, backoff_base=0.001),
        )
        assert_same(got, truth(problem))
        counters = metrics.snapshot()["counters"]
        assert counters["resilience.fallbacks.serial"] == 1
        assert counters["resilience.faults_injected.alloc"] >= 1

    def test_slow_faults_complete(self, problem, clean_env):
        got = schedule_solve(problem, fault_plan="seed=5,slow=1.0,slow_ms=1")
        assert_same(got, truth(problem))

    def test_executor_serial_matches_kernel(self, problem, clean_env):
        got = schedule_solve(problem, backend="serial", retry=RetryPolicy())
        assert_same(got, truth(problem))

    def test_unknown_backend_rejected(self, problem):
        """Schedules run on two backends; anything else is refused
        before a task starts."""
        with pytest.raises(ValidationError):
            schedule_solve(problem, backend="gpu", retry=RetryPolicy())


class TestDeadline:
    def test_raises_within_twice_budget(self, problem, clean_env):
        """Cooperative enforcement: every task sleeps past the budget,
        and the wait loop's slicing must surface the timeout well before
        2x the budget."""
        budget = 0.25
        t0 = time.perf_counter()
        with pytest.raises(KernelTimeoutError) as excinfo:
            schedule_solve(
                problem,
                deadline=budget,
                fault_plan=FaultPlan(slow=1.0, slow_seconds=3 * budget),
            )
        elapsed = time.perf_counter() - t0
        assert elapsed < 2 * budget
        exc = excinfo.value
        assert exc.budget == budget
        assert "completed" in exc.partial and "total" in exc.partial

    def test_processes_deadline_reaps_workers_and_unlinks(
        self, problem, metrics, clean_env
    ):
        X, q, _, k = problem
        before = shm_segments()
        with pytest.raises(KernelTimeoutError):
            with sharded(
                X, fault_plan=FaultPlan(slow=1.0, slow_seconds=5.0)
            ) as router:
                router.solve(q, k, deadline=0.3)
        assert shm_segments() == before
        # terminated workers must actually disappear, not grind on
        assert_reaped()
        counters = metrics.snapshot()["counters"]
        assert counters["resilience.deadline_hits"] >= 1

    def test_inline_rung_progress_counts_finished_items(self, clean_env):
        """An inline rung finishes items inside ``submit``: expiry must
        count them, not report ``completed=0``."""

        def open_solver():
            def solve(key, item):
                time.sleep(0.05)
                return key

            return solve

        with pytest.raises(KernelTimeoutError) as excinfo:
            run_ladder(
                {i: None for i in range(9)},
                [InlineRung(open_solver)],
                retry=RetryPolicy(max_attempts=1),
                deadline=Deadline(0.12),
            )
        assert excinfo.value.partial["total"] == 9
        assert 0 < excinfo.value.partial["completed"] < 9

    def test_generous_deadline_is_harmless(self, problem, clean_env):
        got = schedule_solve(problem, deadline=60.0)
        assert_same(got, truth(problem))


class TestShmLifecycle:
    def test_segments_carry_this_process_prefix(self, cloud):
        """The leak checks see only this process's segments; one this
        process leaks still shows."""
        segments = SharedSegments({"X": cloud.shape})
        try:
            name, shape, _ = segments.specs["X"]
            assert name.startswith(segment_prefix()) and shape == cloud.shape
            assert name in shm_segments()
        finally:
            segments.unlink()
        assert name not in shm_segments()
        assert str(os.getpid()) in segment_prefix()

    def test_partial_export_failure_leaks_nothing(self, cloud, monkeypatch):
        """If the 3rd of 4 segments cannot be created, the first two
        must be unlinked before the error escapes."""
        import repro.shard.transport as transport

        real = transport._shm_create
        calls = {"n": 0}

        def failing(nbytes):
            calls["n"] += 1
            if calls["n"] == 3:
                raise OSError("no space left on device")
            return real(nbytes)

        monkeypatch.setattr(transport, "_shm_create", failing)
        before = shm_segments()
        with pytest.raises(OSError):
            SharedSegments(
                {
                    "X": cloud.shape,
                    "X2": (cloud.shape[0],),
                    "q_idx": (10,),
                    "r_idx": (20,),
                }
            )
        assert calls["n"] == 3
        assert shm_segments() == before

    def test_keyboard_interrupt_unlinks_and_reaps(
        self, cloud, monkeypatch, clean_env
    ):
        """An interrupt inside the ladder once the first partition is
        back must tear down the shared segments and every worker."""
        import repro.shard.transport as transport

        real = transport._absorb_worker_obs
        live = {}

        def interrupt_after_first(payload, parent_id):
            real(payload, parent_id)
            live["segments"] = shm_segments() - before
            raise KeyboardInterrupt

        monkeypatch.setattr(
            transport, "_absorb_worker_obs", interrupt_after_first
        )
        before = shm_segments()
        with pytest.raises(KeyboardInterrupt):
            with sharded(cloud) as router:
                router.solve(np.arange(80), 4)
        assert live["segments"]  # the segments were live mid-solve
        assert shm_segments() == before
        assert_reaped()

    def test_dead_worker_no_leak(self, cloud, kill_first_worker, clean_env):
        before = shm_segments()
        with sharded(cloud) as router:
            q = np.arange(60)
            got = router.solve(q, 5)
            assert_same([got], [router.solve_reference(q, 5)])
        assert kill_first_worker
        assert shm_segments() == before

    def test_plain_dead_worker_counts_nothing(
        self, cloud, kill_first_worker, metrics, clean_env
    ):
        """A one-rung, one-attempt ladder over process workers recovers
        nothing, so it records nothing under ``resilience.*``."""
        transport = ProcessTransport()
        transport.start(
            ShardWorld(
                table=TableHandle(cloud),
                local_ids=[np.arange(cloud.shape[0])],
                epoch=0,
            )
        )
        try:
            with pytest.raises(BackendError):
                run_ladder(
                    {0: ("idx", np.arange(60), 5)},
                    [_TransportRung(transport)],
                    retry=RetryPolicy(max_attempts=1),
                )
        finally:
            transport.close()
        assert kill_first_worker
        counters = metrics.snapshot()["counters"]
        assert not [c for c in counters if c.startswith("resilience.")]


class TestNonRetryable:
    def test_validation_error_propagates_immediately(self, clean_env):
        """Neither retried nor degraded: the same inputs would fail on
        every rung."""
        calls = []

        def open_solver():
            def solve(key, item):
                calls.append(key)
                raise ValidationError("bad chunk")

            return solve

        with pytest.raises(ValidationError):
            run_ladder(
                {0: None, 1: None},
                [InlineRung(open_solver), InlineRung(open_solver)],
                retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
            )
        assert calls == [0, 1]
