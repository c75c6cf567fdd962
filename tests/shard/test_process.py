"""The same contracts over real long-lived worker processes.

These are the acceptance tests of the sharding PR: two or more actual
OS processes, shared-memory reference table, scatter/gather merge —
bit-identical (indices AND distances) to the single-process fused
solve, including after streaming churn and under an injected shard
crash recovered through the failure ladder.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.errors import KernelTimeoutError, ValidationError
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.shard import ShardedAllKnn

BLOCKS = {"block_m": 64, "block_n": 64}


def assert_bit_identical(got, want):
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.distances, want.distances)


@pytest.fixture
def router(table):
    with ShardedAllKnn(table, 2, transport="process", **BLOCKS) as r:
        yield r


class TestProcessBitIdenticality:
    def test_two_processes_match_single_process(self, router):
        q = np.arange(0, 300, 3)
        got = router.solve(q, 12)
        want = router.solve_reference(q, 12)
        assert_bit_identical(got, want)

    def test_rows_and_repeat_batches(self, router, rng):
        """Second batch hits warm per-shard plans — same answer."""
        Q = rng.random((7, router.dim))
        first = router.solve_rows(Q, 9)
        second = router.solve_rows(Q, 9)
        assert_bit_identical(first, second)
        q = np.arange(20)
        assert_bit_identical(
            router.solve(q, 9), router.solve_reference(q, 9)
        )

    def test_bit_identical_after_churn(self, router, rng):
        """Insert + delete re-export the table to fresh shared segments
        and re-derive the panel grid; workers re-attach and drop their
        packed plans. The merged result must still be exact."""
        router.insert(rng.random((23, router.dim)))
        router.delete(np.arange(0, 100, 4))
        q = np.arange(0, router.map.n_total, 6)
        got = router.solve(q, 8)
        want = router.solve_reference(q, 8)
        assert_bit_identical(got, want)


class TestParentTwin:
    def test_healthy_path_builds_no_twin(self, table, rng):
        with ShardedAllKnn(
            table, 2, transport="process", fault_plan=FaultPlan(), **BLOCKS
        ) as router:
            router.solve(np.arange(20), 5)
            router.insert(rng.random((9, router.dim)))
            router.solve(np.arange(20), 5)
            assert router._twin is None

    def test_fallback_in_new_epoch_sees_new_membership(self, table, rng):
        """crash=1.0 sends every partition to the fault-free serial rung
        on the parent-side twin, before and after churn: the twin must
        follow the membership, or the merge would miss rows."""
        with ShardedAllKnn(
            table,
            2,
            transport="process",
            fault_plan="seed=5,crash=1.0",
            retry=RetryPolicy(max_attempts=1, backoff_base=0.0),
            **BLOCKS,
        ) as router:
            q = np.arange(30)
            assert_bit_identical(
                router.solve(q, 6), router.solve_reference(q, 6)
            )
            router.insert(rng.random((17, router.dim)))
            router.delete(np.arange(0, 60, 3))
            q = np.arange(0, router.map.n_total, 7)
            assert_bit_identical(
                router.solve(q, 6), router.solve_reference(q, 6)
            )


class TestProcessCrashRecovery:
    def test_worker_crash_recovered_through_ladder(self, table):
        """crash=1.0 in scope "shard" makes every worker attempt die via
        ``os._exit`` (a genuine BrokenProcessPool) and the threads rung
        raise InjectedFault; the serial rung recovers, bit-identically,
        and the restarted pool serves the next epoch."""
        with ShardedAllKnn(
            table,
            2,
            transport="process",
            fault_plan="seed=5,crash=1.0",
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
            **BLOCKS,
        ) as router:
            q = np.arange(40)
            assert_bit_identical(
                router.solve(q, 6), router.solve_reference(q, 6)
            )
            # the broken pools were restarted; a second solve (new
            # attempt coordinates, same crash rate) recovers again
            assert_bit_identical(
                router.solve(q, 6), router.solve_reference(q, 6)
            )

    def test_partial_crash_leaves_healthy_shards_untouched(self, table):
        """A crash rate below 1 kills some (epoch, shard) keys and not
        others; whichever mix fires, the merge must stay exact and the
        healthy shards' futures are consumed as-is."""
        with ShardedAllKnn(
            table,
            3,
            transport="process",
            fault_plan="seed=11,crash=0.5",
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
            **BLOCKS,
        ) as router:
            q = np.arange(0, 300, 5)
            for _ in range(3):
                assert_bit_identical(
                    router.solve(q, 7), router.solve_reference(q, 7)
                )


class TestProcessDeadlines:
    def test_slow_shard_raises_kernel_timeout(self, table):
        """A shard that outlives the budget surfaces as the library's
        timeout, whatever ``concurrent.futures`` calls its own."""
        with ShardedAllKnn(
            table,
            2,
            transport="process",
            fault_plan="seed=1,slow=1.0,slow_ms=1500",
            **BLOCKS,
        ) as router:
            with pytest.raises(KernelTimeoutError):
                router.solve(np.arange(20), 5, deadline=0.3)

    def test_deadline_holds_across_rungs(self, table):
        """Shard 0 crashes on its worker (epoch 0, attempt 0) and is
        slow on the threads rung (attempt 1): the deadline must still
        land within twice its budget, not after the slow fault."""
        budget = 0.5
        with ShardedAllKnn(
            table,
            2,
            transport="process",
            fault_plan="seed=24,crash=0.4,slow=0.4,slow_ms=2000",
            retry=RetryPolicy(max_attempts=1),
            **BLOCKS,
        ) as router:
            t0 = time.perf_counter()
            with pytest.raises(KernelTimeoutError):
                router.solve(np.arange(20), 5, deadline=budget)
            elapsed = time.perf_counter() - t0
        assert elapsed < 2 * budget


class TestNonFiniteRejected:
    """Non-finite rows are refused before they reach any state."""

    def test_constructor_rejects_non_finite_table(self, table):
        bad = table.copy()
        bad[17, 3] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            ShardedAllKnn(bad, 2, transport="process", **BLOCKS)

    def test_rejected_insert_changes_nothing(self, table):
        with ShardedAllKnn(table, 2, transport="process", **BLOCKS) as router:
            q = np.arange(0, 300, 11)
            before = router.solve(q, 8)
            epoch, alive = router.map.epoch, router.map.alive_ids()
            rows = np.ones((3, 13))
            rows[1, 4] = np.nan
            with pytest.raises(ValidationError, match="non-finite"):
                router.insert(rows)
            assert router.table.shape == (300, 13)
            assert router.map.epoch == epoch
            np.testing.assert_array_equal(router.map.alive_ids(), alive)
            assert_bit_identical(router.solve(q, 8), before)
            assert router.insert(np.ones((2, 13))).tolist() == [300, 301]
