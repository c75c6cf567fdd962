"""Consistent, panel-aligned shard map over the reference table.

The scatter/gather router's bit-identicality contract rests on one
observation: the fused kernel computes distances one ``(block_m x
block_n)`` GEMM tile at a time, and BLAS rounding for a given (query,
reference) pair depends on the *tile* it lands in, not just the pair.
Splitting the reference set at arbitrary boundaries changes tile shapes
and perturbs last-ulp distances, which would break "sharded == single
process" at the bit level.

So the shard map never cuts inside a panel. The alive reference
sequence (ascending global id, tombstones excluded) is cut into
consecutive panels of ``panel_width`` — exactly the reference-block
grid a single-process solve with ``block_n == panel_width`` walks —
and panel ``j`` is owned by shard ``j % n_shards``. Every GEMM tile a
shard computes is then byte-for-byte a tile of the single-process
solve, and the gather merge reassembles the identical result.

Mutations keep the same invariant: inserts append new ids (extending
the alive sequence), deletes tombstone ids (compacting it). Either way
the panel grid is re-derived from the *current* alive sequence — the
map is a pure function of ``(alive set, panel_width, n_shards)``, so
every process that sees the same membership epoch derives the same
ownership. A shard worker keeps its own replica
(:meth:`ShardMap.from_spec`) and applies each epoch's change to it, so
only the change crosses the process boundary. Each mutation bumps
``epoch``; shard workers drop their packed plans when the epoch moves
(the per-shard plan invalidation the streaming layer relies on).
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError

__all__ = ["ShardMap"]


class ShardMap:
    """Deterministic panel-aligned assignment of reference ids to shards.

    Parameters
    ----------
    n_refs:
        Initial reference-table length; ids ``0..n_refs-1`` start alive.
    n_shards:
        Number of shards; must be >= 1.
    panel_width:
        Reference-panel width, normally the solve's ``block_n`` so the
        shard grid coincides with the kernel's GEMM tile grid.
    """

    def __init__(self, n_refs: int, n_shards: int, *, panel_width: int = 2048):
        if n_shards < 1:
            raise ValidationError(f"n_shards must be >= 1, got {n_shards}")
        if panel_width < 1:
            raise ValidationError(
                f"panel_width must be >= 1, got {panel_width}"
            )
        if n_refs < 1:
            raise ValidationError(f"n_refs must be >= 1, got {n_refs}")
        self.n_shards = int(n_shards)
        self.panel_width = int(panel_width)
        self._alive = np.ones(int(n_refs), dtype=bool)
        # the alive ids, ascending: kept beside the mask so a change
        # costs O(alive), not a scan of every row ever appended
        self._ids = np.arange(int(n_refs), dtype=np.intp)
        self.epoch = 0
        self._locals: list[np.ndarray] | None = None

    # -- membership ----------------------------------------------------------

    @property
    def n_total(self) -> int:
        """Table length including tombstoned rows."""
        return self._alive.size

    @property
    def n_alive(self) -> int:
        return self._ids.size

    @property
    def alive_mask(self) -> np.ndarray:
        return self._alive.copy()

    def alive_ids(self) -> np.ndarray:
        """The alive reference sequence, ascending — the exact ``r_idx``
        a single-process solve over the same membership would use."""
        return self._ids.copy()

    def append(self, count: int) -> np.ndarray:
        """Register ``count`` fresh rows appended to the table; returns
        their global ids and bumps the epoch."""
        if count < 1:
            raise ValidationError(f"append count must be >= 1, got {count}")
        start = self._alive.size
        self._alive = np.concatenate(
            [self._alive, np.ones(int(count), dtype=bool)]
        )
        ids = np.arange(start, start + int(count), dtype=np.intp)
        self._ids = np.concatenate([self._ids, ids])
        self._bump()
        return ids

    def tombstone(self, ids) -> None:
        """Mark ids dead; they leave every shard's partition at the next
        epoch. Unknown or already-dead ids are a validation error."""
        ids = np.asarray(ids, dtype=np.intp).ravel()
        if ids.size == 0:
            return
        if ids.min() < 0 or ids.max() >= self._alive.size:
            raise ValidationError(
                f"tombstone ids out of range [0, {self._alive.size})"
            )
        if not self._alive[ids].all():
            raise ValidationError("tombstone of an id that is not alive")
        if np.unique(ids).size >= self.n_alive:
            raise ValidationError("cannot tombstone the last alive row")
        self._alive[ids] = False
        self._ids = np.delete(self._ids, np.searchsorted(self._ids, ids))
        self._bump()

    def _bump(self) -> None:
        self.epoch += 1
        self._locals = None

    # -- ownership -----------------------------------------------------------

    def _partitions(self) -> list[np.ndarray]:
        if self._locals is None:
            alive = self._ids
            parts: list[list[np.ndarray]] = [[] for _ in range(self.n_shards)]
            for j, start in enumerate(range(0, alive.size, self.panel_width)):
                parts[j % self.n_shards].append(
                    alive[start : start + self.panel_width]
                )
            self._locals = [
                np.concatenate(p).astype(np.intp)
                if p
                else np.empty(0, dtype=np.intp)
                for p in parts
            ]
        return self._locals

    def local_ids(self, shard: int) -> np.ndarray:
        """Global ids shard ``shard`` owns at the current epoch, in the
        global alive order (so a local solve's panel grid is a subset of
        the single-process one)."""
        if not 0 <= shard < self.n_shards:
            raise ValidationError(
                f"shard must be in [0, {self.n_shards}), got {shard}"
            )
        return self._partitions()[shard]

    def owner_of(self, ids) -> np.ndarray:
        """Owning shard per global id (-1 for tombstoned ids)."""
        ids = np.asarray(ids, dtype=np.intp).ravel()
        if ids.size and (ids.min() < 0 or ids.max() >= self._alive.size):
            raise ValidationError(
                f"ids out of range [0, {self._alive.size})"
            )
        # position of each id within the alive sequence -> panel -> shard
        rank = np.cumsum(self._alive) - 1
        owner = (rank[ids] // self.panel_width) % self.n_shards
        return np.where(self._alive[ids], owner, -1).astype(np.intp)

    def spec(self) -> dict:
        """Picklable snapshot a worker can rebuild the map from, with
        :attr:`alive_mask` (:meth:`from_spec`)."""
        return {
            "n_shards": self.n_shards,
            "panel_width": self.panel_width,
            "epoch": self.epoch,
        }

    @classmethod
    def from_spec(cls, spec: dict, alive: np.ndarray) -> "ShardMap":
        """The map that had this :meth:`spec` and :attr:`alive_mask`."""
        alive = np.array(alive, dtype=bool)
        replica = cls(
            alive.size, spec["n_shards"], panel_width=spec["panel_width"]
        )
        replica._alive = alive
        replica._ids = np.flatnonzero(alive)
        replica.epoch = int(spec["epoch"])
        return replica

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"ShardMap(n_shards={self.n_shards}, alive={self.n_alive}/"
            f"{self.n_total}, panel_width={self.panel_width}, "
            f"epoch={self.epoch})"
        )
