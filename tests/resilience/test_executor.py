"""The resilient chunk executor: recovery, bit-identity, deadlines, shm.

These are the acceptance tests of the resilience layer:

* a fault plan that kills a worker mid-solve must not fail the solve —
  chunk retry and the ``processes -> threads -> serial`` ladder complete
  it **bit-identical** to the serial backend, with ``resilience.*``
  counters recording the recovery and no shared-memory leak;
* a solve that exceeds its deadline must raise ``KernelTimeoutError``
  within 2x the budget, with worker processes reaped and ``/dev/shm``
  segments unlinked.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.gsknn import gsknn
from repro.errors import KernelTimeoutError, ValidationError
from repro.parallel.backends import ExecutionBackend, SharedSegments
from repro.parallel.data_parallel import gsknn_data_parallel
from repro.resilience import Deadline, FaultPlan, RetryPolicy, run_ladder
from repro.resilience.executor import InlineRung

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs POSIX shared memory"
)


def shm_segments() -> set[str]:
    return set(os.listdir("/dev/shm"))


@pytest.fixture
def problem(cloud):
    q = np.arange(160, dtype=np.intp)
    r = np.arange(cloud.shape[0], dtype=np.intp)
    k = 6
    return cloud, q, r, k, gsknn(cloud, q, r, k)


class TestBitIdentityUnderFaults:
    def test_worker_crash_mid_solve_recovers_bit_identical(
        self, problem, metrics, clean_env
    ):
        """The headline acceptance path: crash_at kills a real worker
        process on every attempt, so recovery must walk the whole
        ladder — and the answer must not change by a single bit."""
        X, q, r, k, truth = problem
        before = shm_segments()
        got = gsknn_data_parallel(
            X, q, r, k,
            p=2, backend="processes",
            fault_plan=FaultPlan(crash_at=(0,)),
            retry=RetryPolicy(backoff_base=0.001),
        )
        assert np.array_equal(got.distances, truth.distances)
        assert np.array_equal(got.indices, truth.indices)
        counters = metrics.snapshot()["counters"]
        assert counters["resilience.solves"] == 1
        assert counters["resilience.retries"] >= 1
        assert counters["resilience.fallbacks"] >= 1
        assert counters["resilience.chunks_recovered"] >= 1
        assert counters["resilience.degraded_solves"] == 1
        assert shm_segments() == before

    def test_seeded_crash_plan_threads(self, problem, clean_env):
        X, q, r, k, truth = problem
        got = gsknn_data_parallel(
            X, q, r, k,
            p=2, backend="threads", chunks_per_worker=3,
            fault_plan="seed=101,crash=0.4",
            retry=RetryPolicy(backoff_base=0.001),
        )
        assert np.array_equal(got.distances, truth.distances)
        assert np.array_equal(got.indices, truth.indices)

    def test_certain_alloc_failure_degrades_to_serial(
        self, problem, metrics, clean_env
    ):
        """alloc=1.0 fails every attempt on every rung except the final
        fault-free serial rung — the solve must still complete."""
        X, q, r, k, truth = problem
        got = gsknn_data_parallel(
            X, q, r, k,
            p=2, backend="threads",
            fault_plan=FaultPlan(alloc=1.0),
            retry=RetryPolicy(max_attempts=2, backoff_base=0.001),
        )
        assert np.array_equal(got.distances, truth.distances)
        counters = metrics.snapshot()["counters"]
        assert counters["resilience.fallbacks.serial"] == 1
        assert counters["resilience.faults_injected.alloc"] >= 1

    def test_slow_faults_complete(self, problem, clean_env):
        X, q, r, k, truth = problem
        got = gsknn_data_parallel(
            X, q, r, k,
            p=2, backend="threads",
            fault_plan="seed=5,slow=1.0,slow_ms=1",
        )
        assert np.array_equal(got.distances, truth.distances)

    def test_executor_serial_matches_kernel(self, problem, clean_env):
        X, q, r, k, truth = problem
        got = gsknn_data_parallel(
            X, q, r, k, p=4, backend="serial", variant=1, retry=RetryPolicy()
        )
        want = gsknn(X, q, r, k, variant=1)
        assert np.array_equal(got.distances, want.distances)
        assert np.array_equal(got.indices, want.indices)

    def test_unknown_backend_rejected(self, problem):
        """A backend with no fallback ladder cannot run resiliently."""

        class Gpu(ExecutionBackend):
            name = "gpu"
            p = 1

        X, q, r, k, _ = problem
        with pytest.raises(ValidationError):
            gsknn_data_parallel(X, q, r, k, backend=Gpu(), retry=RetryPolicy())


class TestChunkRouting:
    def test_crashed_worker_chunks_rerouted_once(self, problem, clean_env):
        """Over-decomposed chunks on a crashed worker: chunk ``i`` runs on
        worker ``i % p``, so ``crash_at`` chunk 2 kills worker 0 on every
        attempt. Its later chunks fall down the ladder while worker 1
        keeps its own, and every chunk is solved exactly once."""
        import multiprocessing

        from repro.obs.trace import disable_tracing, enable_tracing
        from repro.parallel.chunking import contiguous_chunks

        X, q, r, k, _ = problem
        chunks = contiguous_chunks(q.size, 2 * 3)
        want = gsknn_data_parallel(
            X, q, r, k, p=2, backend="serial", chunks_per_worker=3
        )
        before = shm_segments()
        tracer = enable_tracing()
        try:
            got = gsknn_data_parallel(
                X, q, r, k,
                p=2, backend="processes", chunks_per_worker=3,
                fault_plan=FaultPlan(crash_at=(chunks[2][0],)),
                retry=RetryPolicy(backoff_base=0.001),
            )
        finally:
            disable_tracing()
        assert np.array_equal(got.distances, want.distances)
        assert np.array_equal(got.indices, want.indices)
        assert shm_segments() == before
        limit = time.monotonic() + 5.0
        while multiprocessing.active_children() and time.monotonic() < limit:
            time.sleep(0.05)
        assert not multiprocessing.active_children()

        spans = [s for s in tracer.spans if s.name == "worker.chunk"]
        solved = sorted(s.attrs["chunk"] for s in spans)
        assert solved == [start for start, _ in chunks]
        survivor = {s.pid for s in spans if s.attrs["chunk"] in (
            chunks[1][0], chunks[3][0], chunks[5][0]
        )}
        assert len(survivor) == 1
        assert os.getpid() not in survivor


class TestDeadline:
    def test_raises_within_twice_budget(self, problem, clean_env):
        """Cooperative enforcement: every chunk sleeps past the budget,
        and the wait loop's slicing must surface the timeout well before
        2x the budget."""
        X, q, r, k, _ = problem
        budget = 0.25
        t0 = time.perf_counter()
        with pytest.raises(KernelTimeoutError) as excinfo:
            gsknn_data_parallel(
                X, q, r, k,
                p=2, backend="threads",
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
        import multiprocessing

        X, q, r, k, _ = problem
        before = shm_segments()
        with pytest.raises(KernelTimeoutError):
            gsknn_data_parallel(
                X, q, r, k,
                p=2, backend="processes",
                deadline=0.3,
                fault_plan=FaultPlan(slow=1.0, slow_seconds=5.0),
            )
        assert shm_segments() == before
        # terminated workers must actually disappear, not grind on
        limit = time.monotonic() + 5.0
        while multiprocessing.active_children() and time.monotonic() < limit:
            time.sleep(0.05)
        assert not multiprocessing.active_children()
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
        X, q, r, k, truth = problem
        got = gsknn_data_parallel(
            X, q, r, k, p=2, backend="threads", deadline=60.0
        )
        assert np.array_equal(got.distances, truth.distances)


class TestShmLifecycle:
    def test_partial_export_failure_leaks_nothing(self, cloud, monkeypatch):
        """If the 3rd of 4 segment exports dies, the first two (and the
        failed one) must be unlinked before the error escapes."""
        import repro.parallel.backends as backends

        real = backends._shm_export
        calls = {"n": 0}

        def failing(arr):
            calls["n"] += 1
            if calls["n"] == 3:
                raise OSError("no space left on device")
            return real(arr)

        monkeypatch.setattr(backends, "_shm_export", failing)
        before = shm_segments()
        with pytest.raises(OSError):
            SharedSegments(
                {
                    "X": cloud,
                    "X2": (cloud**2).sum(axis=1),
                    "q_idx": np.arange(10, dtype=np.intp),
                    "r_idx": np.arange(20, dtype=np.intp),
                }
            )
        assert shm_segments() == before

    def test_keyboard_interrupt_unlinks_and_reaps(
        self, cloud, monkeypatch, clean_env
    ):
        """An interrupt inside the executor once the first chunk is back
        must tear down the shared-memory session and every worker."""
        import multiprocessing

        import repro.parallel.backends as backends

        real = backends._absorb_worker_obs
        live = {}

        def interrupt_after_first(payload, parent_id):
            real(payload, parent_id)
            live["segments"] = shm_segments() - before
            raise KeyboardInterrupt

        monkeypatch.setattr(
            backends, "_absorb_worker_obs", interrupt_after_first
        )
        before = shm_segments()
        with pytest.raises(KeyboardInterrupt):
            gsknn_data_parallel(
                cloud,
                np.arange(80),
                np.arange(cloud.shape[0]),
                4,
                p=2,
                backend="processes",
                chunks_per_worker=2,
            )
        assert live["segments"]  # the session was live mid-solve
        assert shm_segments() == before
        limit = time.monotonic() + 5.0
        while multiprocessing.active_children() and time.monotonic() < limit:
            time.sleep(0.05)
        assert not multiprocessing.active_children()

    def test_dead_worker_no_leak(self, cloud, kill_first_worker, clean_env):
        from repro.errors import BackendError

        before = shm_segments()
        with pytest.raises(BackendError):
            gsknn_data_parallel(
                cloud,
                np.arange(60),
                np.arange(cloud.shape[0]),
                5,
                p=2,
                backend="processes",
            )
        assert kill_first_worker
        assert shm_segments() == before

    def test_plain_dead_worker_counts_nothing(
        self, cloud, kill_first_worker, metrics, clean_env
    ):
        """A plain call is a one-rung, one-attempt ladder: it recovers
        nothing, so it records nothing under ``resilience.*``."""
        from repro.errors import BackendError

        with pytest.raises(BackendError):
            gsknn_data_parallel(
                cloud,
                np.arange(60),
                np.arange(cloud.shape[0]),
                5,
                p=2,
                backend="processes",
            )
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
