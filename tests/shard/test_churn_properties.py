"""Churn properties of the sharded table: every epoch answers exactly.

Random interleavings of ``insert``, ``delete``, ``solve`` and
``solve_rows`` run on the local and the process transport. After every
operation — so at every membership epoch — ``solve`` must be
bit-identical to :meth:`ShardedAllKnn.solve_reference` (one fused
single-process solve over the same membership) and ``solve_rows`` to
the single-process plan over the alive rows, for l2 below the
Var#1/Var#6 switch (the float32 screen), l2 above it (Var#6, whose
distance bits depend on the panel grid) and l1. No answer may name a
deleted row.

The process transport appends into shared segments that start with no
spare row, so the first insert of every example crosses a capacity
doubling (new segments, every worker re-attaches); later inserts write
in place and reach the workers as deltas, until another doubling.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import GsknnPlan
from repro.errors import ValidationError
from repro.obs import disable_metrics, enable_metrics
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.shard import ShardedAllKnn
from repro.shard.transport import segment_prefix
from repro.tune import decide_variant

D = 4
BLOCKS = {"block_m": 16, "block_n": 16}
#: (norm, k): Var#1 (float32 screen), Var#6 ("auto" past the switch), l1
CASES = [("l2", 5), ("l2", 257), ("l1", 5)]

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(1, 70)),
        st.tuples(st.just("delete"), st.integers(1, 40)),
        st.tuples(st.just("solve"), st.integers(1, 9)),
        st.tuples(st.just("rows"), st.integers(1, 4)),
    ),
    min_size=1,
    max_size=8,
)


def own_segments() -> set[str]:
    """This process's shared-memory segments."""
    if not os.path.isdir("/dev/shm"):
        return set()
    prefix = segment_prefix()
    return {n for n in os.listdir("/dev/shm") if n.startswith(prefix)}


def assert_same(got, want) -> None:
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.distances, want.distances)


def reference_rows(router: ShardedAllKnn, norm: str, Q, k: int):
    """The single-process plan over the alive rows: what one shard
    owning every panel runs for ``solve_rows``."""
    var = decide_variant("auto", Q.shape[0], router.n_refs, D, k)[0]
    plan = GsknnPlan(
        router.handle, router.map.alive_ids(), norm=norm, **BLOCKS
    )
    return plan.execute_rows(Q, k, variant=var)


def check_epoch(router, norm, k, rng, q_rows=3, m_rows=1) -> None:
    q = rng.choice(router.map.n_total, q_rows, replace=False)
    got = router.solve(q, k)
    assert_same(got, router.solve_reference(q, k))
    assert router.map.alive_mask[got.indices].all()
    Q = rng.random((m_rows, D))
    got = router.solve_rows(Q, k)
    assert_same(got, reference_rows(router, norm, Q, k))
    assert router.map.alive_mask[got.indices].all()


def run_churn(transport, norm, k, n0, ops, seed, **router_kwargs) -> int:
    """Run ``ops`` on a fresh router, checking every epoch; returns how
    many stores the table lived in."""
    rng = np.random.default_rng(seed)
    with ShardedAllKnn(
        rng.random((n0, D)),
        2,
        transport=transport,
        norm=norm,
        **BLOCKS,
        **router_kwargs,
    ) as router:
        stores = [router.handle.store]
        check_epoch(router, norm, k, rng)
        for op, size in [("insert", 1)] + ops:
            if op == "insert":
                router.insert(rng.random((size, D)))
            elif op == "delete":
                count = min(size, router.n_refs - k)
                if count < 1:
                    continue
                router.delete(
                    rng.choice(router.map.alive_ids(), count, replace=False)
                )
            elif op == "solve":
                q = rng.choice(router.map.n_total, size, replace=False)
                assert_same(router.solve(q, k), router.solve_reference(q, k))
                continue
            else:
                Q = rng.random((size, D))
                assert_same(
                    router.solve_rows(Q, k), reference_rows(router, norm, Q, k)
                )
                continue
            if not any(router.handle.store is s for s in stores):
                stores.append(router.handle.store)
            check_epoch(router, norm, k, rng)
    return len(stores)


def table_rows(k: int):
    """Initial rows: enough alive rows for ``k`` and a ragged panel."""
    return st.integers(k + 3, k + 90)


class TestChurnEpochs:
    @pytest.mark.parametrize("norm, k", CASES)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_local_transport(self, norm, k, data):
        run_churn(
            "local",
            norm,
            k,
            data.draw(table_rows(k)),
            data.draw(OPS),
            data.draw(st.integers(0, 2**31)),
        )

    @pytest.mark.parametrize("norm, k", CASES)
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_process_transport(self, norm, k, data):
        before = own_segments()
        stores = run_churn(
            "process",
            norm,
            k,
            data.draw(table_rows(k)),
            data.draw(OPS),
            data.draw(st.integers(0, 2**31)),
        )
        # the first insert outgrew the segments the table was moved into
        assert stores >= 2
        assert own_segments() == before

    def test_inserts_write_in_place_between_doublings(self, rng):
        with ShardedAllKnn(
            rng.random((40, D)), 2, transport="process", **BLOCKS
        ) as router:
            router.insert(rng.random((3, D)))  # 40 -> capacity 80
            store = router.handle.store
            for _ in range(12):  # 43 -> 79 rows
                router.insert(rng.random((3, D)))
                router.delete(router.map.alive_ids()[:2])
                assert router.handle.store is store
            router.insert(rng.random((3, D)))  # 82 rows: doubled
            assert router.handle.store is not store
            assert router.handle.store.capacity == 160
            check_epoch(router, "l2", 5, rng, q_rows=9, m_rows=3)


def _refresh_crash_plan() -> FaultPlan:
    """A plan that kills shard 0 in the refresh to epoch 2 (an
    in-place delta) and fires at no solve site of epochs 0-2, first
    attempts; the first such seed, found deterministically."""
    for seed in range(10_000):
        plan = FaultPlan(seed=seed, crash=0.5)
        solves = [
            plan.decide("shard", f"{e}:{s}", 0)
            for e in range(3)
            for s in range(2)
        ]
        refreshes = [
            plan.decide("shard.refresh", f"{e}:1", 0) for e in (1, 2)
        ]
        if (
            plan.decide("shard.refresh", "2:0", 0) == "crash"
            and plan.decide("shard.refresh", "1:0", 0) is None
            and not any(solves)
            and not any(refreshes)
        ):
            return plan
    raise AssertionError("no seed found")  # pragma: no cover


class TestFaultsAndTables:
    def test_crash_during_refresh_answers_exactly(self, rng, monkeypatch):
        """A worker killed while it applies a delta comes back from full
        state, the answer stays exact, and no segment leaks."""
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        registry = enable_metrics()
        before = own_segments()
        try:
            with ShardedAllKnn(
                rng.random((70, D)),
                2,
                transport="process",
                fault_plan=_refresh_crash_plan(),
                retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
                **BLOCKS,
            ) as router:
                q = np.arange(0, 70, 4)
                assert_same(router.solve(q, 5), router.solve_reference(q, 5))
                router.insert(rng.random((6, D)))  # epoch 1: re-attach
                router.delete(np.arange(0, 30, 3))  # epoch 2: crash
                assert_same(router.solve(q, 5), router.solve_reference(q, 5))
                router.insert(rng.random((4, D)))  # epoch 3: a delta again
                assert_same(router.solve(q, 5), router.solve_reference(q, 5))
            counters = registry.snapshot()["counters"]
        finally:
            disable_metrics()
        assert counters["resilience.pool_rebuilds"] >= 1
        assert own_segments() == before

    def test_interior_write_to_grown_table_raises(self, rng):
        with ShardedAllKnn(
            rng.random((50, D)), 2, transport="process", **BLOCKS
        ) as router:
            for _ in range(3):
                router.insert(rng.random((30, D)))
            for row in (0, 49, 100):
                with pytest.raises(ValueError, match="read-only"):
                    router.table[row, 0] = 1.0
            router.handle.X.flags.writeable = True
            with pytest.raises(ValidationError, match="writeable"):
                router.solve_reference(np.arange(4), 3)

    def test_stale_handle_appends_leave_the_table_alone(self, rng):
        """A handle the router has moved past appends into a copy: the
        router's rows, and its workers' answers, do not change."""
        with ShardedAllKnn(
            rng.random((60, D)), 2, transport="process", **BLOCKS
        ) as router:
            router.insert(rng.random((5, D)))
            stale = router.handle
            router.insert(rng.random((5, D)))
            rows = router.table.copy()
            fork = stale.append(rng.random((20, D)))
            assert fork.store is not router.handle.store
            np.testing.assert_array_equal(router.table, rows)
            check_epoch(router, "l2", 5, rng, q_rows=8)
