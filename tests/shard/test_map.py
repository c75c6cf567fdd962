"""Unit tests for the panel-aligned consistent shard map."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.shard import ShardMap


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ShardMap(100, 0)
        with pytest.raises(ValidationError):
            ShardMap(100, 2, panel_width=0)
        with pytest.raises(ValidationError):
            ShardMap(0, 2)

    def test_initial_state(self):
        m = ShardMap(100, 3, panel_width=16)
        assert m.n_total == 100
        assert m.n_alive == 100
        assert m.epoch == 0
        np.testing.assert_array_equal(m.alive_ids(), np.arange(100))


class TestOwnership:
    def test_partitions_are_disjoint_and_cover(self):
        m = ShardMap(100, 3, panel_width=16)
        parts = [m.local_ids(s) for s in range(3)]
        allids = np.concatenate(parts)
        assert allids.size == 100
        np.testing.assert_array_equal(np.sort(allids), np.arange(100))

    def test_panels_never_split(self):
        """Every run of panel_width consecutive alive ids lands on one
        shard — the grid the bit-identicality contract rests on."""
        m = ShardMap(100, 3, panel_width=16)
        owner = m.owner_of(np.arange(100))
        for start in range(0, 100, 16):
            panel = owner[start : start + 16]
            assert np.unique(panel).size == 1

    def test_round_robin_panel_assignment(self):
        m = ShardMap(100, 3, panel_width=16)
        owner = m.owner_of(np.arange(100))
        for j, start in enumerate(range(0, 100, 16)):
            assert owner[start] == j % 3

    def test_owner_of_matches_partitions(self):
        m = ShardMap(75, 4, panel_width=8)
        for s in range(4):
            np.testing.assert_array_equal(m.owner_of(m.local_ids(s)), s)

    def test_local_ids_ascending(self):
        m = ShardMap(200, 3, panel_width=16)
        for s in range(3):
            ids = m.local_ids(s)
            assert (np.diff(ids) > 0).all()

    def test_more_shards_than_panels(self):
        """Shards past the panel count own nothing; solves must skip them."""
        m = ShardMap(10, 5, panel_width=8)  # only 2 panels
        sizes = [m.local_ids(s).size for s in range(5)]
        assert sizes[:2] == [8, 2]
        assert sizes[2:] == [0, 0, 0]

    def test_shard_index_validated(self):
        m = ShardMap(10, 2, panel_width=8)
        with pytest.raises(ValidationError):
            m.local_ids(2)
        with pytest.raises(ValidationError):
            m.owner_of([10])


class TestMutation:
    def test_append_returns_fresh_ids_and_bumps_epoch(self):
        m = ShardMap(20, 2, panel_width=8)
        ids = m.append(5)
        np.testing.assert_array_equal(ids, np.arange(20, 25))
        assert m.epoch == 1
        assert m.n_alive == 25

    def test_tombstone_removes_from_partitions(self):
        m = ShardMap(40, 2, panel_width=8)
        m.tombstone([3, 17, 31])
        assert m.epoch == 1
        assert m.n_alive == 37
        np.testing.assert_array_equal(m.owner_of([3, 17, 31]), -1)
        allids = np.concatenate([m.local_ids(s) for s in range(2)])
        assert not np.isin([3, 17, 31], allids).any()
        assert allids.size == 37

    def test_grid_rederived_after_tombstone(self):
        """Deleting ids shifts later ids into earlier panels — the map
        is a pure function of the current alive sequence."""
        m = ShardMap(32, 2, panel_width=8)
        before = int(m.owner_of([8])[0])
        m.tombstone(np.arange(8))  # first panel gone; id 8 now rank 0
        after = int(m.owner_of([8])[0])
        assert before == 1 and after == 0

    def test_tombstone_validation(self):
        m = ShardMap(10, 2, panel_width=4)
        with pytest.raises(ValidationError):
            m.tombstone([10])
        m.tombstone([4])
        with pytest.raises(ValidationError):
            m.tombstone([4])  # already dead
        with pytest.raises(ValidationError):
            m.tombstone(np.setdiff1d(np.arange(10), [4]))  # last alive

    def test_append_validation(self):
        m = ShardMap(10, 2)
        with pytest.raises(ValidationError):
            m.append(0)


class TestDeterminism:
    def test_same_history_same_ownership(self):
        a = ShardMap(90, 3, panel_width=8)
        b = ShardMap(90, 3, panel_width=8)
        for m in (a, b):
            m.append(14)
            m.tombstone([0, 9, 55, 91])
        for s in range(3):
            np.testing.assert_array_equal(a.local_ids(s), b.local_ids(s))
        assert a.epoch == b.epoch == 2

    def test_spec_snapshot(self):
        m = ShardMap(10, 2, panel_width=4)
        m.append(1)
        assert m.spec() == {"n_shards": 2, "panel_width": 4, "epoch": 1}

    def test_replica_follows_the_same_changes(self, rng):
        """A replica rebuilt from ``spec()`` and ``alive_mask`` and then
        given the same changes owns what the original owns."""
        m = ShardMap(50, 3, panel_width=8)
        m.tombstone([3, 4, 40])
        replica = ShardMap.from_spec(m.spec(), m.alive_mask)
        for step in range(30):
            if step % 3:
                ids = rng.choice(m.alive_ids(), 5, replace=False)
                for each in (m, replica):
                    each.tombstone(ids)
            else:
                for each in (m, replica):
                    each.append(7)
            np.testing.assert_array_equal(
                m.alive_ids(), np.flatnonzero(m.alive_mask)
            )
            assert replica.epoch == m.epoch and replica.n_alive == m.n_alive
            for s in range(3):
                np.testing.assert_array_equal(
                    replica.local_ids(s), m.local_ids(s)
                )

    def test_refused_last_tombstone_changes_nothing(self):
        m = ShardMap(6, 2, panel_width=2)
        with pytest.raises(ValidationError):
            m.tombstone(np.arange(6))
        assert m.n_alive == 6 and m.epoch == 0
        np.testing.assert_array_equal(m.alive_ids(), np.arange(6))
