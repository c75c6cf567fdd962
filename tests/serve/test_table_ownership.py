"""The service validates its table once, freezes it, and re-checks nothing."""

from __future__ import annotations

import sys
import zlib

import numpy as np
import pytest

from repro.core.ref_kernel import ref_knn
from repro.errors import ValidationError
from repro.serve import KnnQueryService, ServeConfig


def _assert_matches_oracle(got, X, q_idx, k):
    want = ref_knn(X, q_idx, np.arange(X.shape[0]), k)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_allclose(got.distances, want.distances, atol=1e-12)


class TestFrozenTable:
    def test_interior_row_write_raises_and_answers_stay_current(self, rng):
        X = rng.random((5000, 8))
        q = np.arange(3, 7)
        with KnnQueryService(X) as svc:
            svc.submit(q, 6).result(timeout=30)
            svc.submit_rows(X[q], 6).result(timeout=30)
            # a content fingerprint of the first and last rows misses this
            try:
                X[2500] = X[3] + 1e-9
                wrote = True
            except ValueError:
                wrote = False
            by_index = svc.submit(q, 6).result(timeout=30)
            by_rows = svc.submit_rows(X[q], 6).result(timeout=30)
        _assert_matches_oracle(by_index, X, q, 6)
        _assert_matches_oracle(by_rows, X, q, 6)
        assert not wrote, "the served table accepted an in-place write"

    def test_unfrozen_table_fails_requests(self, table):
        with KnnQueryService(table) as svc:
            svc.submit([1, 2], 3).result(timeout=30)
            table.flags.writeable = True
            with pytest.raises(ValidationError, match="writeable"):
                svc.submit([1, 2], 3).result(timeout=30)
            with pytest.raises(ValidationError, match="writeable"):
                svc.submit_rows(table[:2], 3).result(timeout=30)

    def test_table_is_frozen_not_copied(self, table):
        svc = KnnQueryService(table)
        assert svc.X is table
        assert not table.flags.writeable


class TestWarmWindows:
    def test_warm_windows_scan_nothing_whole(self, rng, monkeypatch):
        """Twenty warm windows: no finiteness scan of the table and no
        hash of a reference id array (both happen once, if at all, when
        the service and its plan are built)."""
        import repro.validation as validation

        n = 4096
        X = rng.random((n, 8))
        calls = {"check_finite": 0, "crc32": 0}
        check_finite, crc32 = validation.check_finite, zlib.crc32

        def counting_check(arr, *args, **kwargs):
            if np.shape(arr)[0] >= n:
                calls["check_finite"] += 1
            return check_finite(arr, *args, **kwargs)

        def counting_crc(data, *args):
            calls["crc32"] += 1
            return crc32(data, *args)

        q, Q = np.array([5, 9, 77]), rng.random((3, 8))
        with KnnQueryService(X, ServeConfig(max_wait_ms=1.0)) as svc:
            svc.submit(q, 5).result(timeout=30)
            svc.submit_rows(Q, 5).result(timeout=30)
            for module in list(sys.modules.values()):
                if getattr(module, "check_finite", None) is check_finite:
                    monkeypatch.setattr(module, "check_finite", counting_check)
            monkeypatch.setattr(zlib, "crc32", counting_crc)
            windows = svc.stats()["windows"]
            for _ in range(10):
                svc.submit(q, 5).result(timeout=30)
                svc.submit_rows(Q, 5).result(timeout=30)
            assert svc.stats()["windows"] - windows == 20
        assert calls == {"check_finite": 0, "crc32": 0}
