"""Scatter/gather router correctness on the in-process transport.

The local transport runs the exact worker code path (same task codec,
same per-shard plans) without process overhead, so these tests pin the
bit-identicality contract cheaply; ``test_process.py`` re-asserts the
headline cases over real worker processes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import BackendError, KernelTimeoutError, ValidationError
from repro.shard import ShardedAllKnn
from repro.tune import decide_variant

BLOCKS = {"block_m": 64, "block_n": 64}  # 300 refs -> 5 panels


def make(table, n_shards, **kw):
    kw.setdefault("transport", "local")
    return ShardedAllKnn(table, n_shards, **BLOCKS, **kw)


def assert_bit_identical(got, want):
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.distances, want.distances)


class TestBitIdenticality:
    def test_var6_ties_follow_distance_then_id(self):
        """At k = 300 both sides run Var#6; on a table of small-integer
        rows each repeated 3 times, exact ties crowd every row, and the
        shards' merge and the single solve must list them alike."""
        base = np.random.default_rng(3).integers(0, 4, (129, 5))
        X = np.repeat(base.astype(np.float64), 3, axis=0)
        q = np.arange(0, X.shape[0], 3)
        with ShardedAllKnn(X, 2, transport="local") as router:
            assert_bit_identical(
                router.solve(q, 300), router.solve_reference(q, 300)
            )

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    def test_solve_matches_reference(self, table, n_shards):
        with make(table, n_shards) as router:
            q = np.arange(0, 300, 7)
            got = router.solve(q, 10)
            want = router.solve_reference(q, 10)
        assert_bit_identical(got, want)

    @pytest.mark.parametrize("norm", ["l2", "l1", "linf"])
    def test_norms_pinned_across_shards(self, table, norm):
        with make(table, 3, norm=norm) as router:
            q = np.arange(40)
            assert_bit_identical(
                router.solve(q, 6), router.solve_reference(q, 6)
            )

    def test_solve_rows_matches_single_shard(self, table, rng):
        """One shard's partition is the whole table, so its rows solve
        IS the single-process fused solve; more shards must agree."""
        Q = rng.random((9, table.shape[1]))
        with make(table, 3) as many, make(table, 1) as one:
            assert_bit_identical(many.solve_rows(Q, 8), one.solve_rows(Q, 8))

    def test_k_exceeding_smallest_shard(self, table):
        """k larger than a shard's partition: the shard returns all it
        owns and the merge pads — still exact."""
        with make(table, 5) as router:  # smallest shard owns 44 ids
            q = np.arange(25)
            assert_bit_identical(
                router.solve(q, 60), router.solve_reference(q, 60)
            )

    def test_shards_exceeding_panels(self, table):
        """Empty shards are skipped entirely, not scattered to."""
        with make(table, 8) as router:  # only 5 panels exist
            q = np.arange(15)
            assert_bit_identical(
                router.solve(q, 5), router.solve_reference(q, 5)
            )

    @pytest.mark.parametrize("k, var", [(256, 1), (257, 6)])
    def test_auto_variant_across_the_switch(self, table, k, var):
        """variant="auto" runs Var#1 at k = 256 and Var#6 at k = 257 on
        the shards; both match the fused reference (random coordinates:
        distinct distances, so Var#6's tie order cannot matter)."""
        q = np.arange(0, 300, 13)
        assert decide_variant("auto", q.size, 300, 13, k) == (var, True)
        with make(table, 3, variant="auto") as router:
            want = router.solve_reference(q, k)
            assert_bit_identical(router.solve(q, k), want)
            assert_bit_identical(router.solve_rows(table[q], k), want)


class TestChurn:
    def test_bit_identical_after_insert_and_delete(self, table, rng):
        with make(table, 3) as router:
            router.insert(rng.random((37, table.shape[1])))
            router.delete(np.arange(0, 120, 5))
            router.insert(rng.random((8, table.shape[1])))
            q = np.arange(0, router.map.n_total, 11)
            got = router.solve(q, 9)
            want = router.solve_reference(q, 9)
        assert_bit_identical(got, want)
        assert router.map.epoch == 3

    def test_deleted_ids_never_returned(self, table):
        dead = np.arange(0, 300, 3)
        with make(table, 3) as router:
            router.delete(dead)
            res = router.solve(np.arange(50), 12)
        assert not np.isin(res.indices, dead).any()

    def test_insert_returns_global_ids(self, table, rng):
        with make(table, 2) as router:
            ids = router.insert(rng.random((4, table.shape[1])))
        np.testing.assert_array_equal(ids, np.arange(300, 304))

    def test_insert_shape_checked(self, table):
        with make(table, 2) as router:
            with pytest.raises(ValidationError):
                router.insert(np.ones((3, table.shape[1] + 1)))


class TestLadder:
    def test_injected_crashes_recover_bit_identically(self, table):
        """crash=1.0 fails every worker attempt AND the threads rung;
        the serial rung is fault-free, so the solve must still land and
        still match the reference exactly."""
        from repro.resilience.retry import RetryPolicy

        with make(
            table,
            3,
            fault_plan="seed=3,crash=1.0",
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
        ) as router:
            q = np.arange(30)
            assert_bit_identical(
                router.solve(q, 7), router.solve_reference(q, 7)
            )
            # and again: recovery must not poison the next batch
            assert_bit_identical(
                router.solve(q, 7), router.solve_reference(q, 7)
            )

    def test_expired_deadline_raises(self, table):
        with make(table, 2) as router:
            with pytest.raises(KernelTimeoutError):
                router.solve(np.arange(10), 4, deadline=1e-9)

    def test_validation_errors_not_retried(self, table):
        with make(table, 2) as router:
            with pytest.raises(ValidationError):
                router.solve(np.arange(10), 0)
            with pytest.raises(ValidationError):
                router.solve(np.arange(10), router.n_refs + 1)
            with pytest.raises(ValidationError):
                router.solve_rows(np.ones((2, 99)), 3)


class TestLifecycle:
    def test_closed_router_rejects_solves(self, table):
        router = make(table, 2)
        router.close()
        with pytest.raises(BackendError):
            router.solve(np.arange(5), 3)

    def test_close_idempotent(self, table):
        router = make(table, 2)
        router.close()
        router.close()

    def test_stats_shape(self, table):
        with make(table, 3) as router:
            s = router.stats()
        assert s["n_shards"] == 3
        assert s["transport"] == "local"
        assert s["n_alive"] == 300
        assert sum(s["shard_sizes"]) == 300
        assert s["panel_width"] == 64

    def test_table_frozen_and_readonly(self, table):
        with make(table, 2) as router:
            with pytest.raises(ValueError):
                table[0, 0] = 123.0  # caller mutation must not leak in
            assert router.table[0, 0] != 123.0
            with pytest.raises(ValueError):
                router.table[0, 0] = 0.0
            router.insert(np.ones((2, 13)))
            assert router.table.shape == (302, 13)
            assert table.shape == (300, 13)  # appends never touch it

    def test_unknown_transport_rejected(self, table):
        with pytest.raises(ValidationError):
            ShardedAllKnn(table, 2, transport="carrier-pigeon")


class TestObservability:
    def test_solve_counts_batches(self, table):
        from repro.obs.metrics import disable_metrics, enable_metrics

        registry = enable_metrics()
        try:
            with make(table, 3) as router:
                router.solve(np.arange(10), 4)
                router.insert(np.ones((1, table.shape[1])))
            snap = registry.snapshot()
            assert snap["counters"]["shard.batches"] == 1
            assert snap["counters"]['shard.refreshes{op="insert"}'] == 1
        finally:
            disable_metrics()


class TestNonFiniteRejected:
    """Non-finite rows are refused before they reach any state."""

    def test_constructor_rejects_non_finite_table(self, table):
        bad = table.copy()
        bad[17, 3] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            ShardedAllKnn(bad, 2, transport="local", **BLOCKS)

    def test_rejected_insert_changes_nothing(self, table):
        with ShardedAllKnn(table, 2, transport="local", **BLOCKS) as router:
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
