"""Tests for the validated, frozen coordinate table handle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.norms import squared_norms
from repro.core.plan import GsknnPlan
from repro.core.table import ALL_ROWS, TableHandle, TableStore, as_table
from repro.errors import ValidationError


class TestTableHandle:
    def test_norms_computed_once(self, rng):
        X = rng.random((40, 7))
        handle = TableHandle(X)
        assert handle.norms is handle.norms
        np.testing.assert_array_equal(handle.norms, squared_norms(X))

    def test_x2_seeds_the_norms(self, rng):
        X = rng.random((40, 7))
        X2 = squared_norms(X)
        assert TableHandle(X, X2).norms is X2

    def test_plans_share_the_handles_norms(self, rng):
        handle = TableHandle(rng.random((64, 5)))
        a = GsknnPlan(handle, np.arange(32))
        b = GsknnPlan(handle, ALL_ROWS)
        assert a.table is b.table is handle

    def test_freezes_in_place(self, rng):
        X = rng.random((12, 5))
        handle = TableHandle(X)
        assert handle.X is X
        assert not X.flags.writeable

    def test_view_over_writeable_base_is_copied(self, rng):
        X = rng.random((12, 5))
        handle = TableHandle(X[2:])
        assert not np.shares_memory(handle.X, X)
        assert X.flags.writeable
        X[5] = 7.0  # the base stays writeable; the handle's copy is not moved
        assert not np.array_equal(handle.X[3], X[5])

    def test_read_only_memmap_is_referenced(self, rng, tmp_path):
        path = tmp_path / "table.npy"
        np.save(path, rng.random((50, 4)))
        mm = np.load(path, mmap_mode="r")
        handle = TableHandle(mm)
        assert np.shares_memory(handle.X, mm)
        handle.check()

    def test_reshaped_view_stays_read_only(self, rng):
        X = rng.random((6, 4))
        TableHandle(X)
        with pytest.raises(ValueError, match="read-only"):
            X.reshape(8, 3)[0, 0] = 1.0

    def test_interior_write_raises(self, rng):
        X = rng.random((12, 5))
        handle = TableHandle(X)
        before = handle.norms.copy()
        with pytest.raises(ValueError, match="read-only"):
            X[6] += 1.0
        np.testing.assert_array_equal(handle.norms, before)

    def test_last_row_write_raises(self, rng):
        X = rng.random((12, 5))
        TableHandle(X)
        with pytest.raises(ValueError, match="read-only"):
            X[-1] *= 3.0

    def test_check_catches_a_table_made_writeable(self, rng):
        X = rng.random((12, 5))
        handle = TableHandle(X)
        handle.check()
        X.flags.writeable = True
        with pytest.raises(ValidationError, match="writeable"):
            handle.check()

    def test_non_finite_rejected(self, rng):
        X = rng.random((12, 5))
        X[7, 2] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            TableHandle(X)
        assert X.flags.writeable  # a rejected table is not taken over

    def test_bad_x2_shape_rejected(self, rng):
        with pytest.raises(ValidationError, match="X2"):
            TableHandle(rng.random((12, 5)), np.ones(11))

    def test_borrowed_leaves_the_array_as_it_was(self, rng):
        X = rng.random((12, 5))
        handle = as_table(X)
        assert not handle.owned and X.flags.writeable
        X[0] = 2.0  # nothing to check: the handle dies with its call
        handle.check()
        assert as_table(handle) is handle


class TestAppend:
    def test_append_matches_full_recompute(self, rng):
        X, rows = rng.random((30, 6)), rng.random((7, 6))
        old = TableHandle(X)
        new = old.append(rows)
        assert new is not old and old.n == 30
        np.testing.assert_array_equal(new.X, np.vstack([X, rows]))
        np.testing.assert_array_equal(new.norms, squared_norms(new.X))
        assert not new.X.flags.writeable
        assert rows.flags.writeable

    @pytest.mark.parametrize("bad", ["nan", "width"])
    def test_rejected_append_changes_nothing(self, rng, bad):
        old = TableHandle(rng.random((30, 6)))
        rows = rng.random((3, 6 if bad == "nan" else 5))
        if bad == "nan":
            rows[1, 1] = np.inf
        with pytest.raises(ValidationError):
            old.append(rows)
        assert old.n == 30 and old.norms.shape == (30,)


class TestGrowth:
    """Appends write in place after a frozen prefix; storage doubles."""

    def test_appends_share_one_store(self, rng):
        old = TableHandle(rng.random((30, 6)))
        a = old.append(rng.random((4, 6)))  # the first append moves it
        b = a.append(rng.random((5, 6)))
        assert a.store is b.store and a.store.capacity == 60
        assert np.shares_memory(a.X, b.X)
        assert b.n == 39 and a.n == 34

    def test_storage_doubles_only_when_full(self, rng):
        handle = TableHandle(rng.random((8, 3)))
        stores = []
        for _ in range(60):
            handle = handle.append(rng.random((3, 3)))
            if not any(handle.store is s for s in stores):
                stores.append(handle.store)
        # 8 -> 188 rows: capacities 16, 32, 64, 128, 256
        assert [s.capacity for s in stores] == [16, 32, 64, 128, 256]

    def test_grown_table_matches_full_recompute(self, rng):
        parts = [rng.random((n, 5)) for n in (7, 1, 12, 30, 2)]
        handle = TableHandle(parts[0].copy())
        for rows in parts[1:]:
            handle = handle.append(rows)
        want = np.vstack(parts)
        np.testing.assert_array_equal(handle.X, want)
        np.testing.assert_array_equal(handle.norms, squared_norms(want))

    def test_interior_write_to_grown_table_raises(self, rng):
        handle = TableHandle(rng.random((10, 4))).append(rng.random((3, 4)))
        for row in (0, 11, -1):
            with pytest.raises(ValueError, match="read-only"):
                handle.X[row, 1] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            handle.norms[2] = 0.0
        handle.check()
        handle.X.flags.writeable = True
        with pytest.raises(ValidationError, match="writeable"):
            handle.check()

    def test_stale_append_copies(self, rng):
        base = TableHandle(rng.random((10, 4))).append(rng.random((2, 4)))
        newer = base.append(rng.random((3, 4)))
        want = newer.X.copy()
        fork = base.append(rng.random((5, 4)))  # base is stale now
        assert fork.store is not newer.store
        np.testing.assert_array_equal(newer.X, want)
        np.testing.assert_array_equal(fork.X[:12], base.X)
        # the newer handle still owns the store's spare rows
        assert newer.append(rng.random((1, 4))).store is newer.store

    @given(
        steps=st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(1, 9)),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_stale_appends_never_touch_newer_rows(self, steps):
        """Appends from any earlier handle, in any order: every handle
        keeps exactly the rows it was made with."""
        rng = np.random.default_rng(len(steps))
        first = rng.random((4, 3))
        handles = [(TableHandle(first.copy()), first)]
        for pick, m in steps:
            parent, rows = handles[pick % len(handles)]
            extra = rng.random((m, 3))
            handles.append((parent.append(extra), np.vstack([rows, extra])))
            for handle, want in handles:
                np.testing.assert_array_equal(handle.X, want)
                np.testing.assert_array_equal(
                    handle.norms, squared_norms(want)
                )

    def test_extended_validates_only_new_rows(self, rng):
        store = TableStore.private(16, 3)
        store.X[:10] = rng.random((10, 3))
        store.X2[:10] = squared_norms(store.X[:10])
        store.n = 16  # rows past the prefix are another writer's
        handle = TableHandle.over(store, 6)
        store.X[2, 0] = np.nan  # inside the prefix: not read again
        grown = handle.extended(10)
        assert grown.n == 10 and grown.store is store
        store.X[11, 1] = np.inf
        with pytest.raises(ValidationError, match="non-finite"):
            grown.extended(12)
        with pytest.raises(ValidationError):
            grown.extended(17)
        with pytest.raises(ValidationError, match="non-finite"):
            TableHandle.over(store, 4)

    def test_moved_copies_into_the_given_store(self, rng):
        handle = TableHandle(rng.random((9, 2)))
        made = []

        def grow(capacity, d):
            store = TableStore.private(capacity, d)
            store.grow = grow
            made.append(store)
            return store

        moved = handle.moved(grow)
        assert moved.store is made[0] and made[0].capacity == 9
        np.testing.assert_array_equal(moved.X, handle.X)
        assert not np.shares_memory(moved.X, handle.X)
        # the store's own growth goes through the same factory
        moved.append(rng.random((1, 2)))
        assert len(made) == 2 and made[1].capacity == 18
