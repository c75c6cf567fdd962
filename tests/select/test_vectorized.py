"""Unit tests for the batched vectorized neighbor lists."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.arena import WorkspaceArena
from repro.errors import ValidationError
from repro.select import ArenaNeighborLists, BatchedNeighborLists, merge_block
from repro.select.heap import BinaryMaxHeap


class TestMergeBlock:
    def test_keeps_k_smallest_union(self, rng):
        values = rng.random((4, 3))
        ids = rng.integers(0, 100, (4, 3))
        cand = rng.random((4, 6))
        cand_ids = np.arange(100, 106)
        new_values, new_ids = merge_block(values, ids, cand, cand_ids)
        for i in range(4):
            union = np.concatenate([values[i], cand[i]])
            np.testing.assert_allclose(
                np.sort(new_values[i]), np.sort(union)[:3]
            )

    def test_2d_candidate_ids(self, rng):
        values = np.full((2, 2), np.inf)
        ids = np.full((2, 2), -1)
        cand = np.array([[1.0, 2.0], [3.0, 4.0]])
        cand_ids = np.array([[10, 20], [30, 40]])
        _, new_ids = merge_block(values, ids, cand, cand_ids)
        assert set(new_ids[0]) == {10, 20}
        assert set(new_ids[1]) == {30, 40}

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            merge_block(np.ones((2, 2)), np.ones((2, 2)), np.ones((3, 2)), np.arange(2))

    def test_k_wider_than_union_unsupported_shapes(self):
        # merged width is always >= k because values already has k columns
        values = np.full((1, 3), np.inf)
        ids = np.full((1, 3), -1)
        new_values, _ = merge_block(values, ids, np.array([[1.0]]), np.array([7]))
        assert new_values.shape == (1, 3)
        assert 1.0 in new_values


class TestBatchedNeighborLists:
    def test_matches_per_row_heaps(self, rng):
        """The batch structure must agree with scalar heap semantics."""
        m, k, n = 7, 4, 50
        lists = BatchedNeighborLists(m, k)
        heaps = [BinaryMaxHeap(k) for _ in range(m)]
        ids = np.arange(n)
        for start in range(0, n, 13):
            block_ids = ids[start : start + 13]
            tile = rng.random((m, block_ids.size))
            lists.update(0, tile, block_ids)
            for i in range(m):
                heaps[i].update_many(tile[i], block_ids)
        dist, _ = lists.sorted()
        for i in range(m):
            np.testing.assert_allclose(dist[i], heaps[i].sorted_pairs()[0])

    def test_partial_row_update(self, rng):
        lists = BatchedNeighborLists(10, 2)
        tile = rng.random((4, 5))
        lists.update(3, tile, np.arange(5))
        # rows outside [3, 7) untouched
        assert (lists.ids[:3] == -1).all()
        assert (lists.ids[7:] == -1).all()
        assert (lists.ids[3:7] >= 0).all()

    def test_row_range_validation(self):
        lists = BatchedNeighborLists(4, 2)
        with pytest.raises(ValidationError):
            lists.update(3, np.ones((2, 2)), np.arange(2))

    def test_id_count_validation(self):
        lists = BatchedNeighborLists(2, 2)
        with pytest.raises(ValidationError):
            lists.update(0, np.ones((2, 3)), np.arange(2))

    def test_early_discard_skips_blocks(self):
        lists = BatchedNeighborLists(2, 2)
        lists.update(0, np.array([[0.1, 0.2], [0.3, 0.4]]), np.array([0, 1]))
        merged_before = lists.stats.rows_merged
        # all candidates worse than current max: nothing merges
        lists.update(0, np.array([[5.0, 6.0], [7.0, 8.0]]), np.array([2, 3]))
        assert lists.stats.rows_merged == merged_before
        assert lists.stats.rows_offered == 4

    def test_discard_fraction_increases_with_stream(self, rng):
        lists = BatchedNeighborLists(8, 4)
        for start in range(0, 400, 40):
            tile = rng.random((8, 40))
            lists.update(0, tile, np.arange(start, start + 40))
        assert lists.stats.discard_fraction > 0.5

    def test_is_complete(self, rng):
        lists = BatchedNeighborLists(3, 2)
        assert not lists.is_complete()
        lists.update(0, rng.random((3, 4)), np.arange(4))
        assert lists.is_complete()

    def test_sorted_rows_ascending(self, rng):
        lists = BatchedNeighborLists(5, 6)
        lists.update(0, rng.random((5, 30)), np.arange(30))
        dist, idx = lists.sorted()
        assert (np.diff(dist, axis=1) >= 0).all()
        assert (idx >= 0).all()

    def test_invalid_construction(self):
        with pytest.raises(ValidationError):
            BatchedNeighborLists(0, 3)
        with pytest.raises(ValidationError):
            BatchedNeighborLists(3, 0)

    def test_candidate_tile_must_be_2d(self):
        lists = BatchedNeighborLists(2, 2)
        with pytest.raises(ValidationError):
            lists.update(0, np.ones(3), np.arange(3))


class TestArenaNeighborLists:
    @staticmethod
    def _pair(m, k):
        return BatchedNeighborLists(m, k), ArenaNeighborLists(
            m, k, WorkspaceArena()
        )

    def test_streaming_matches_batched(self, rng):
        """Cold rows fall back, warm rows take the masked path — the final
        lists must match the legacy structure on tie-free data."""
        m, k, n = 9, 4, 160
        legacy, masked = self._pair(m, k)
        for start in range(0, n, 23):
            ids = np.arange(start, min(start + 23, n))
            tile = rng.random((m, ids.size))
            legacy.update(0, tile, ids)
            masked.update(0, tile, ids)
        ld, li = legacy.sorted()
        md, mi = masked.sorted()
        np.testing.assert_array_equal(md, ld)
        np.testing.assert_array_equal(mi, li)

    def test_warm_seeded_thresholds_match(self, rng):
        """Seeded row_max (the plan's warm start) must behave like legacy
        lists seeded the same way."""
        m, k = 6, 3
        warm = np.full(m, 0.25)
        legacy, masked = self._pair(m, k)
        for lists in (legacy, masked):
            lists.row_max[:] = warm
            lists._touched[:] = True
        tile = rng.random((m, 40))
        ids = np.arange(40)
        legacy.update(0, tile, ids)
        masked.update(0, tile, ids)
        np.testing.assert_array_equal(masked.values, legacy.values)
        np.testing.assert_array_equal(masked.ids, legacy.ids)

    def test_survivors_beyond_the_strip_share_merge_in_rounds(self, rng):
        """A 20-column tile's mask holds one 16-byte strip slot per live
        row, so every survivor past the first merges in a later round;
        the lists still match the legacy structure."""
        m, k = 8, 6
        legacy, masked = self._pair(m, k)
        for lists in (legacy, masked):
            lists.row_max[:] = 0.9
            lists._touched[:] = True
        tile = rng.random((m, 20))
        ids = np.arange(20)
        legacy.update(0, tile, ids)
        masked.update(0, tile, ids)
        assert masked.stats.candidates_surviving == int((tile < 0.9).sum())
        ld, li = legacy.sorted()
        md, mi = masked.sorted()
        np.testing.assert_array_equal(md, ld)
        np.testing.assert_array_equal(mi, li)
        # beyond the lists themselves the arena holds only the mask
        assert masked._arena.nbytes - m * (16 * k + 9) <= tile.size

    def test_zero_survivors_merge_nothing(self):
        m, k = 3, 2
        _, masked = self._pair(m, k)
        masked.row_max[:] = 0.1
        masked._touched[:] = True
        masked.update(0, np.full((m, 5), 9.0), np.arange(5))
        assert masked.stats.rows_merged == 0
        assert (masked.ids == -1).all()

    def test_partial_row_update_falls_back(self, rng):
        """Rows outside the update window stay cold; the fallback must keep
        them untouched exactly like the legacy structure."""
        legacy, masked = self._pair(10, 2)
        tile = rng.random((4, 5))
        legacy.update(3, tile, np.arange(5))
        masked.update(3, tile, np.arange(5))
        np.testing.assert_array_equal(masked.ids, legacy.ids)
        np.testing.assert_array_equal(masked.values, legacy.values)
