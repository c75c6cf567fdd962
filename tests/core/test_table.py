"""Tests for the validated, frozen coordinate table handle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.norms import squared_norms
from repro.core.plan import GsknnPlan
from repro.core.table import ALL_ROWS, TableHandle, as_table
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
