"""Data-parallel GSKNN (paper §2.5) — parallel must equal serial.

The 4th loop's query blocks go to the kernel's own row workers
(:mod:`repro.core.workers`). These tests force the host probe to report
``p`` usable cores and one BLAS thread, so every ``p`` runs on any host.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import workers
from repro.core.gsknn import gsknn


def _force(monkeypatch, cores: int) -> None:
    monkeypatch.setattr(workers, "host_threads", lambda: (cores, 1))


def _solve_at(monkeypatch, cores: int, *args, **kwargs):
    _force(monkeypatch, cores)
    return gsknn(*args, **kwargs)


class TestQueryChunks:
    """How a panel's row blocks are dealt to the workers."""

    blocks = [(i, 8) for i in range(0, 80, 8)] + [(80, 3)]

    def test_covers_all_queries(self):
        deal = workers.RowWorkers(self.blocks, 3)
        assert sum(deal.runs, []) == self.blocks
        covered = []
        for w in range(deal.p):
            rows = deal.rows(w)
            covered.extend(range(rows.start, rows.stop))
        assert covered == list(range(83))

    def test_near_equal_sizes(self):
        sizes = [len(run) for run in workers.RowWorkers(self.blocks, 3).runs]
        assert max(sizes) - min(sizes) <= 1

    def test_more_workers_than_queries(self, monkeypatch):
        _force(monkeypatch, 5)
        assert workers.row_workers(2)[0] == 2


class TestDataParallel:
    @pytest.mark.parametrize("p", [1, 2, 3, 7])
    def test_matches_serial(self, monkeypatch, small_cloud, rng, p):
        q = rng.integers(0, 300, 50)
        r = rng.permutation(300)[:150]
        kwargs = dict(block_m=8, block_n=64)
        serial = _solve_at(monkeypatch, 1, small_cloud, q, r, 8, **kwargs)
        parallel = _solve_at(monkeypatch, p, small_cloud, q, r, 8, **kwargs)
        np.testing.assert_array_equal(serial.distances, parallel.distances)
        np.testing.assert_array_equal(serial.indices, parallel.indices)

    def test_tiny_query_set_falls_back(self, monkeypatch, small_cloud):
        """Two queries are one row block: one worker, whatever the host."""
        _force(monkeypatch, 8)
        assert workers.row_workers(1)[0] == 1
        res = gsknn(small_cloud, np.arange(2), np.arange(20), 3)
        assert res.m == 2

    def test_norms_supported(self, monkeypatch, small_cloud, rng):
        q = rng.integers(0, 300, 20)
        r = rng.permutation(300)[:60]
        kwargs = dict(norm="l1", block_m=4, block_n=32)
        serial = _solve_at(monkeypatch, 1, small_cloud, q, r, 4, **kwargs)
        parallel = _solve_at(monkeypatch, 3, small_cloud, q, r, 4, **kwargs)
        np.testing.assert_array_equal(serial.distances, parallel.distances)
