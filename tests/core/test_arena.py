"""Tests for the workspace arena (grow-only buffers, pools)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.arena import ArenaPool, WorkspaceArena
from repro.errors import ValidationError


class TestWorkspaceArena:
    def test_same_shape_reuses_buffer(self):
        arena = WorkspaceArena()
        a = arena.take("tile", (4, 5))
        a[:] = 7.0
        b = arena.take("tile", (4, 5))
        assert b.base is a.base or b is a
        assert np.shares_memory(a, b)

    def test_grow_only(self):
        arena = WorkspaceArena()
        arena.take("tile", (4, 8))
        big = arena.take("tile", (6, 2))  # grows rows, keeps cols
        assert big.shape == (6, 2)
        again = arena.take("tile", (6, 8))
        assert again.shape == (6, 8)
        assert len(arena) == 1

    def test_smaller_request_returns_view(self):
        arena = WorkspaceArena()
        full = arena.take("tile", (8, 8))
        small = arena.take("tile", (3, 5))
        assert small.shape == (3, 5)
        assert np.shares_memory(full, small)

    def test_dtype_change_reallocates(self):
        arena = WorkspaceArena()
        a = arena.take("buf", (4,), np.float64)
        b = arena.take("buf", (4,), np.bool_)
        assert b.dtype == np.bool_
        assert not np.shares_memory(a, b)

    def test_distinct_keys_are_independent(self):
        arena = WorkspaceArena()
        a = arena.take("a", (4,))
        b = arena.take("b", (4,))
        assert not np.shares_memory(a, b)

    def test_nbytes_and_clear(self):
        arena = WorkspaceArena()
        arena.take("tile", (10, 10))
        assert arena.nbytes == 10 * 10 * 8
        arena.clear()
        assert arena.nbytes == 0 and len(arena) == 0

    def test_negative_shape_rejected(self):
        with pytest.raises(ValidationError):
            WorkspaceArena().take("x", (-1, 2))


class TestArenaPool:
    def test_serial_borrow_reuses_one_arena(self):
        pool = ArenaPool()
        with pool.borrow() as a:
            a.take("t", (4,))
        with pool.borrow() as b:
            assert b.nbytes == 4 * 8  # the same arena came back
        assert pool.created == 1

    def test_nested_borrows_get_distinct_arenas(self):
        pool = ArenaPool()
        with pool.borrow() as a, pool.borrow() as b:
            assert a is not b
        assert pool.created == 2


class TestBudgetedArena:
    def test_growth_charges_budget(self):
        from repro.core.membudget import MemoryBudget

        budget = MemoryBudget(10_000)
        arena = WorkspaceArena(budget=budget)
        arena.take("tile", (10, 10))  # 800 bytes
        assert budget.used_bytes == 800
        arena.take("tile", (20, 10))  # grows to 1600, releases 800 first
        assert budget.used_bytes == 1600
        assert budget.peak_bytes == 1600  # never 800 + 1600 at once
        assert arena.peak_nbytes == 1600

    def test_over_budget_refused_before_allocation(self):
        from repro.core.membudget import MemoryBudget
        from repro.errors import MemoryBudgetError

        budget = MemoryBudget(1000)
        arena = WorkspaceArena(budget=budget)
        arena.take("a", (100,))  # 800 bytes
        with pytest.raises(MemoryBudgetError):
            arena.take("b", (100,))  # another 800 would cross
        # the denied key allocated nothing and the old state is intact
        assert arena.nbytes == 800
        assert budget.used_bytes == 800
        # same-shape reuse still works after a denial
        assert arena.take("a", (100,)).shape == (100,)

    def test_grow_only_under_cap_many_rounds(self):
        # Repeatedly cycling shapes below the high-water mark must not
        # re-charge the budget: steady state means zero net reservations.
        from repro.core.membudget import MemoryBudget

        budget = MemoryBudget(100_000)
        arena = WorkspaceArena(budget=budget)
        arena.take("tile", (64, 64))
        settled = budget.used_bytes
        for rows in (8, 64, 17, 33, 64):
            arena.take("tile", (rows, 64))
        assert budget.used_bytes == settled
        assert arena.peak_nbytes == settled

    def test_clear_returns_charges(self):
        from repro.core.membudget import MemoryBudget

        budget = MemoryBudget(10_000)
        arena = WorkspaceArena(budget=budget)
        arena.take("a", (10,))
        arena.take_c("b", (10,))
        assert budget.used_bytes == 160
        arena.clear()
        assert budget.used_bytes == 0
        assert arena.peak_nbytes == 160  # peak is a lifetime property


class TestTakeCReshape:
    def test_ragged_shapes_reuse_flat_buffer(self):
        arena = WorkspaceArena()
        a = arena.take_c("buf", (6, 4))
        b = arena.take_c("buf", (4, 6))  # same size, different shape
        assert b.shape == (4, 6)
        assert b.flags["C_CONTIGUOUS"]
        assert np.shares_memory(a, b)
        assert len(arena) == 1

    def test_shrinking_request_is_contiguous_not_strided(self):
        arena = WorkspaceArena()
        arena.take_c("buf", (8, 8))
        small = arena.take_c("buf", (3, 5))
        assert small.shape == (3, 5)
        assert small.flags["C_CONTIGUOUS"]
        # a plain take() view of an (8, 8) buffer would be strided here;
        # take_c must hand out a dense prefix instead
        assert small.strides == (5 * 8, 8)

    def test_dimensionality_change(self):
        arena = WorkspaceArena()
        a = arena.take_c("buf", (24,))
        b = arena.take_c("buf", (2, 3, 4))
        assert b.shape == (2, 3, 4)
        assert np.shares_memory(a, b)

    def test_zero_size_shape(self):
        arena = WorkspaceArena()
        z = arena.take_c("buf", (0, 5))
        assert z.shape == (0, 5)
        assert z.size == 0

    def test_budgeted_pool_shares_one_budget(self):
        from repro.core.membudget import MemoryBudget

        budget = MemoryBudget(10_000)
        pool = ArenaPool(budget=budget)
        with pool.borrow() as a, pool.borrow() as b:
            a.take("t", (100,))
            b.take("t", (100,))
        assert budget.used_bytes == 1600  # both arenas charged the same cap
        assert pool.peak_nbytes == 1600

    def test_pool_rejects_factory_plus_budget(self):
        from repro.core.membudget import MemoryBudget

        with pytest.raises(ValidationError):
            ArenaPool(WorkspaceArena, budget=MemoryBudget(100))
