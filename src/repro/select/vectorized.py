"""Vectorized, batched neighbor-list maintenance — the numpy fast path.

The scalar heaps in :mod:`repro.select.heap` reproduce the paper's
per-query max-heap semantics exactly, but looping them per candidate from
Python would bury the algorithm in interpreter overhead. This module is
the numpy analogue GSKNN's fast path uses: all ``m`` query rows are
updated *as a batch* against a tile of candidate distances, with the two
ingredients the paper's fused kernel depends on preserved:

* **root filter / early discard** — a per-row threshold (the max retained
  distance, i.e. the heap root) lets whole rows of a candidate tile be
  rejected with one vectorized comparison and never stored;
* **O(k + n_b) update** — surviving rows merge their current list with the
  tile via ``np.argpartition`` (introselect), the vector analogue of
  streaming the tile through the heap.

The kernel's lists, :class:`ArenaNeighborLists`, take every tile
through one masked path: each row gets a cut, one compare extracts the
candidates at or below it, and only those are merged. A warm row's cut is its
threshold. A cold row (no finite threshold yet — its first tile) is cut
at the ``k``-th smallest of :func:`cut_bins` strided bin minima, which
TPU-KNN's PartialReduce shows is at or above the row's ``k``-th
distance: about ``k`` candidates survive, with no sort of the tile.

For the l2 norm the kernel hands :meth:`ArenaNeighborLists.update` a
float32 *screen* tile and its :class:`~repro.core.screen.TileScreen`:
a warm row's cut is already folded into the tile (it keeps what is
below 0), a cold row is cut at its bin cut widened by the screen's
error bound, and only the survivors are rescored in float64 — the
paper's §2.3 epilogue applied to the few candidates that can still
enter a list instead of the whole tile. :func:`finalize_sq_l2` is the
epilogue Var#5 applies to its whole float64 tiles.

Semantics are those of per-row heap selection under one total order:
after any sequence of updates each row holds the ``k`` smallest
``(distance, id)`` pairs seen so far, and :meth:`BatchedNeighborLists.sorted`
lists them in that order. A tie on distance breaks on the smaller id
(:func:`topk_lex`, :func:`sort_lex`), so which of two equal distances a
row keeps does not depend on the order its tiles arrived in, and lists
built over disjoint parts of the references merge (:func:`merge_lists`)
into the lists one pass over all of them builds.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ValidationError

if TYPE_CHECKING:
    from ..core.screen import TileScreen

__all__ = [
    "ArenaNeighborLists",
    "BatchedNeighborLists",
    "cut_bins",
    "finalize_sq_l2",
    "merge_block",
    "merge_lists",
    "sort_lex",
    "topk_lex",
]


def cut_bins(k: int, width: int) -> int:
    """Strided bins ``L`` whose minima cut a cold row of a ``width`` tile.

    Bin ``j`` holds columns ``j, j + L, j + 2L, ...`` of the first
    ``(width // L) * L``; the ``k``-th smallest of the ``L`` bin minima
    is at or above the row's ``k``-th distance. ``L = 4k`` keeps the
    surplus of survivors over ``k`` small (about ``k / 8``); at least
    128 bins keep the strided reduction's inner runs 1 KiB long (8-bin
    runs cost six times the tile's own compare). Returns
    0 when no cut can be formed (``width < k``): such a row keeps every
    candidate.
    """
    if width < k:
        return 0
    return min(width, max(4 * k, 128))


def topk_lex(values: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Column positions of each row's ``k`` smallest ``(value, id)`` pairs.

    ``values`` and ``ids`` are ``(rows, width)`` with ``width > k``; the
    positions come back ``(rows, k)``, unordered, except that column
    ``k - 1`` holds each row's largest pick. One argpartition on the
    values settles every row whose ``k``-th value is not repeated
    outside its picks; a row where it is (an exact tie at the boundary)
    is lexsorted on ``(value, id)`` instead. Rows whose ``k``-th value is
    +inf hold fewer than ``k`` real candidates and their ``(+inf, -1)``
    padding, so every real one is picked either way.
    """
    part = np.argpartition(values, k - 1, axis=1)[:, :k]
    kth = np.take_along_axis(values, part[:, k - 1 :], axis=1)
    crowded = np.count_nonzero(values <= kth, axis=1) > k
    crowded &= np.isfinite(kth[:, 0])
    if crowded.any():
        rows = np.flatnonzero(crowded)
        order = np.lexsort((ids[rows], values[rows]), axis=1)
        part[rows] = order[:, :k]
    return part


def sort_lex(values: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(values, ids)`` with each row ascending by ``(value, id)``; new arrays.

    A stable sort on the values, then a lexsort of only the rows where
    two equal values list their ids out of order.
    """
    order = np.argsort(values, axis=1, kind="stable")
    values = np.take_along_axis(values, order, axis=1)
    ids = np.take_along_axis(ids, order, axis=1)
    tied = (values[:, 1:] == values[:, :-1]) & (ids[:, 1:] < ids[:, :-1])
    rows = np.flatnonzero(tied.any(axis=1))
    if rows.size:
        order = np.lexsort((ids[rows], values[rows]), axis=1)
        values[rows] = np.take_along_axis(values[rows], order, axis=1)
        ids[rows] = np.take_along_axis(ids[rows], order, axis=1)
    return values, ids


def merge_lists(
    values: np.ndarray, ids: np.ndarray, k: int, dedup: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``k`` smallest ``(value, id)`` pairs of ``(rows, width)``
    lists, ascending; new arrays.

    The lists of several workers, side by side. With ``dedup`` an id a
    row lists twice keeps only its leftmost copy, so the caller puts the
    copies it trusts first.
    """
    if dedup:
        by_id = np.argsort(ids, axis=1, kind="stable")
        sorted_ids = np.take_along_axis(ids, by_id, axis=1)
        rows, cols = np.nonzero(
            (sorted_ids[:, 1:] == sorted_ids[:, :-1]) & (sorted_ids[:, 1:] >= 0)
        )
        if rows.size:
            values, ids = values.copy(), ids.copy()
            later = by_id[rows, cols + 1]
            values[rows, later] = np.inf
            ids[rows, later] = -1
    order = np.lexsort((ids, values), axis=1)[:, :k]
    return (
        np.take_along_axis(values, order, axis=1),
        np.take_along_axis(ids, order, axis=1),
    )


def finalize_sq_l2(raw: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Finish a raw ``r2 - 2 q.r`` tile into squared distances, in place.

    Adds each row's ``q2`` (``offset``) and clamps cancellation below
    zero: Var#5's epilogue on its whole float64 tiles.
    """
    np.add(raw, offset[:, None], out=raw)
    np.maximum(raw, 0.0, out=raw)
    return raw


def merge_block(
    values: np.ndarray,
    ids: np.ndarray,
    cand_values: np.ndarray,
    cand_ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge candidate columns into (m, k) neighbor lists; returns new arrays.

    Each row keeps its ``k`` smallest ``(value, id)`` pairs (:func:`topk_lex`).

    ``cand_ids`` may be 1-D of length ``n_b`` (shared across rows — the
    common case where a tile of the distance matrix shares its reference
    columns) or 2-D of shape ``(m, n_b)``.
    """
    values = np.asarray(values, dtype=np.float64)
    cand_values = np.asarray(cand_values, dtype=np.float64)
    if values.ndim != 2 or cand_values.ndim != 2:
        raise ValidationError("values and cand_values must be 2-D")
    m, k = values.shape
    if cand_values.shape[0] != m:
        raise ValidationError(
            f"candidate rows {cand_values.shape[0]} != list rows {m}"
        )
    cand_ids = np.asarray(cand_ids)
    if cand_ids.ndim == 1:
        cand_ids = np.broadcast_to(cand_ids, cand_values.shape)
    merged_values = np.concatenate([values, cand_values], axis=1)
    merged_ids = np.concatenate([ids, cand_ids], axis=1)
    if k < merged_values.shape[1]:
        part = topk_lex(merged_values, merged_ids, k)
    else:
        part = np.broadcast_to(
            np.arange(merged_values.shape[1]), merged_values.shape
        )
    rows = np.arange(m)[:, None]
    return merged_values[rows, part], merged_ids[rows, part]


@dataclass
class BlockUpdateStats:
    """Tallies of the early-discard filter's effectiveness.

    ``rows_offered`` / ``rows_merged`` count row-tiles seen vs. row-tiles
    that had at least one surviving candidate; their gap is distance data
    discarded straight from "registers" (never concatenated, never
    partitioned) — the memory saving at the heart of Var#1.
    """

    rows_offered: int = 0
    rows_merged: int = 0
    candidates_offered: int = 0
    candidates_surviving: int = 0
    #: screen survivors rescored in float64 (l2 Var#1 tiles)
    candidates_rescored: int = 0

    def add(self, other: "BlockUpdateStats") -> None:
        """Sum ``other``'s tallies into this one (per-worker stats)."""
        for f in fields(self):
            total = getattr(self, f.name) + getattr(other, f.name)
            setattr(self, f.name, total)

    @property
    def discard_fraction(self) -> float:
        """Fraction of candidate distances rejected by the root filter."""
        if self.candidates_offered == 0:
            return 0.0
        return 1.0 - self.candidates_surviving / self.candidates_offered


class BatchedNeighborLists:
    """(m, k) neighbor lists updated tile-by-tile with a root filter.

    This is the structure the fused numpy kernel threads through
    Algorithm 2.2's loop nest: ``update`` consumes one tile of squared
    distances (a row-slice of queries x a column-block of references) and
    folds it into the retained lists.
    """

    def __init__(self, m: int, k: int) -> None:
        if m < 1 or k < 1:
            raise ValidationError(f"need m >= 1 and k >= 1, got m={m}, k={k}")
        self.m = int(m)
        self.k = int(k)
        self.values = np.full((m, k), np.inf, dtype=np.float64)
        self.ids = np.full((m, k), -1, dtype=np.intp)
        # Per-row heap root: the largest retained distance.
        self.row_max = np.full(m, np.inf, dtype=np.float64)
        # Rows that have absorbed at least one tile; cold rows take the
        # cheap direct-assign path (nothing to merge with).
        self._touched = np.zeros(m, dtype=bool)
        self.stats = BlockUpdateStats()

    def update(
        self,
        row_start: int,
        cand_values: np.ndarray,
        cand_ids: np.ndarray,
    ) -> None:
        """Fold a (m_b, n_b) tile of candidates into rows starting at ``row_start``.

        ``cand_ids`` is the length-``n_b`` global reference-id vector for
        the tile's columns.
        """
        cand_values = np.asarray(cand_values, dtype=np.float64)
        if cand_values.ndim != 2:
            raise ValidationError("candidate tile must be 2-D")
        m_b, n_b = cand_values.shape
        if row_start < 0 or row_start + m_b > self.m:
            raise ValidationError(
                f"rows [{row_start}, {row_start + m_b}) out of range for m={self.m}"
            )
        cand_ids = np.asarray(cand_ids, dtype=np.intp).ravel()
        if cand_ids.size != n_b:
            raise ValidationError(
                f"tile has {n_b} columns but {cand_ids.size} reference ids"
            )
        rows = slice(row_start, row_start + m_b)

        # Root filter, stage 1: a row whose *best* candidate does not beat
        # its current max is discarded whole — the vector analogue of
        # rejecting at the heap root, at one reduction's cost and with no
        # boolean allocation.
        thresholds = self.row_max[rows]
        self.stats.rows_offered += m_b
        self.stats.candidates_offered += m_b * n_b
        if self._touched[rows].any():
            row_min = cand_values.min(axis=1)
            live_rows = np.flatnonzero(row_min < thresholds)
        else:
            # every target row is cold (all thresholds +inf): the filter
            # cannot reject anything, so skip its reduction pass entirely
            live_rows = np.arange(m_b)
        if live_rows.size == 0:
            return
        self.stats.rows_merged += live_rows.size
        live = cand_values[live_rows] if live_rows.size < m_b else cand_values

        # Stage 2: per surviving row, pre-select the k best of the block
        # (only they can possibly enter a k-slot list), then merge the
        # narrow (k + k_b) strip instead of the whole block width.
        k_b = min(self.k, n_b)
        if k_b < n_b:
            part = topk_lex(live, np.broadcast_to(cand_ids, live.shape), k_b)
        else:
            part = np.broadcast_to(np.arange(n_b), live.shape)
        sub_rows = np.arange(live.shape[0])[:, None]
        best_values = live[sub_rows, part]
        best_ids = cand_ids[part]
        self.stats.candidates_surviving += int(
            (best_values < thresholds[live_rows, None]).sum()
        )

        abs_rows = live_rows + row_start
        touched = self._touched[abs_rows]
        if not touched.any():
            # Cold rows: the lists hold only +inf sentinels, so the block's
            # k_b best *are* the new lists — no merge needed. This makes
            # the first (and for one-block problems, only) pass as cheap
            # as a direct selection.
            self.values[abs_rows, :k_b] = best_values
            self.ids[abs_rows, :k_b] = best_ids
            if k_b == self.k:
                self.row_max[abs_rows] = best_values.max(axis=1)
            self._touched[abs_rows] = True
            return
        new_values, new_ids = merge_block(
            self.values[abs_rows],
            self.ids[abs_rows],
            best_values,
            best_ids,
        )
        self.values[abs_rows] = new_values
        self.ids[abs_rows] = new_ids
        # Never loosen the threshold: a warm-started row_max (seeded from
        # a caller's existing lists) and the running kth both upper-bound
        # the true merged kth distance, so their min is the tightest safe
        # filter.
        self.row_max[abs_rows] = np.minimum(
            self.row_max[abs_rows], new_values.max(axis=1)
        )
        self._touched[abs_rows] = True

    def sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (distances, ids), each row ascending by (distance, id)."""
        return sort_lex(self.values, self.ids)

    def is_complete(self) -> bool:
        """True when every slot has been filled with a real candidate."""
        return bool((self.ids >= 0).all())


class ArenaNeighborLists(BatchedNeighborLists):
    """Arena-backed lists with threshold-masked survivor extraction.

    The kernel's selection structure: plan executes and one-shot
    :func:`~repro.core.gsknn.gsknn` calls (an ephemeral plan) both run
    it. Differences from the base class, none observable in the results
    on tie-free data:

    * all state (``values``/``ids``/``row_max``/``_touched``) lives in a
      :class:`~repro.core.arena.WorkspaceArena`, so a plan's repeated
      executions reuse the same buffers instead of reallocating per call;
    * ``update`` never copies and partitions a whole tile. Each row gets
      a cut — its threshold when finite, else the bin cut of
      :func:`cut_bins` — and one vectorized ``tile < cut`` compare
      extracts the few surviving ``(row, col)`` pairs; only those are
      merged. A warm row's survivors are the candidates at or below its
      threshold; a cold row keeps about ``k`` of the tile;
    * ``update`` also takes l2 float32 screen tiles and rescores only
      their survivors in float64 (see the module docstring and
      ``docs/PERF.md``);
    * :meth:`worker` hands a row worker a view that shares the lists but
      owns its scratch keys and tallies, so workers updating disjoint
      rows never touch the same buffer; :meth:`own` hands a panel
      worker lists of its own, cut by the owner's thresholds;
    * ``wholesale=True`` gives Var#5's semantics instead: every tile is
      finished whole and merged through the base class's path, with no
      early discard.

    Equivalence: a candidate above its row's threshold can never enter
    the final k (the threshold upper-bounds the row's kth distance),
    and neither can one above a cold row's bin cut (``k`` distinct
    candidates sit at or below it), so dropping either before the merge
    instead of after is lossless. A candidate *at* the threshold is
    kept: it may still displace the row's ``k``-th on a smaller id. Both
    paths retain the ``k`` smallest ``(distance, id)`` pairs, so the
    output is identical, ties included.
    """

    def __init__(
        self, m: int, k: int, arena, wholesale: bool = False, suffix: str = ""
    ) -> None:
        if m < 1 or k < 1:
            raise ValidationError(f"need m >= 1 and k >= 1, got m={m}, k={k}")
        self.m = int(m)
        self.k = int(k)
        self.wholesale = wholesale
        self._arena = arena
        self.values = arena.take_c("lists.values" + suffix, (m, k), np.float64)
        self.values.fill(np.inf)
        self.ids = arena.take_c("lists.ids" + suffix, (m, k), np.intp)
        self.ids.fill(-1)
        self.row_max = arena.take_c("lists.row_max" + suffix, (m,), np.float64)
        self.row_max.fill(np.inf)
        self._touched = arena.take_c("lists.touched" + suffix, (m,), np.bool_)
        self._touched.fill(False)
        self._dedup = False
        # set when a dedup overwrite actually changed a seeded value —
        # the zero-survivor shortcut must not return the stale seed then
        self._seed_dirty = False
        self.stats = BlockUpdateStats()
        self.scratch = suffix  # suffix of this view's arena scratch keys

    def worker(self, w: int) -> "ArenaNeighborLists":
        """A view for row worker ``w``: the same lists, its own scratch.

        The view writes ``values``/``ids``/``row_max`` rows in place like
        the owner, but takes its mask and merge buffer under
        worker-suffixed arena keys (worker 0 keeps the plain names) and
        counts into its own :class:`BlockUpdateStats`; :meth:`absorb`
        folds the views back after the loop.
        """
        view = copy.copy(self)
        view.stats = BlockUpdateStats()
        view._seed_dirty = False
        view.scratch = f"@{w}" if w else ""
        return view

    def own(self, w: int) -> "ArenaNeighborLists":
        """Lists of their own for panel worker ``w`` (``w >= 1``).

        Every key, lists and scratch, carries the worker's suffix. The
        lists start empty, not seeded, and cut by this one's thresholds:
        a warm seed's largest distances bound what any worker can still
        add. :func:`merge_lists` joins them after the loop.
        """
        lists = ArenaNeighborLists(
            self.m, self.k, self._arena, self.wholesale, suffix=f"@{w}"
        )
        lists.row_max[:] = self.row_max
        return lists

    def take_mask(self, cells: int, pair_bytes: int = 0) -> np.ndarray:
        """The mask's bytes for a tile of ``cells``: at least a merge
        round's ``16 (k + 1)`` and a rescore pair's ``pair_bytes``."""
        room = max(cells, 16 * (self.k + 1), pair_bytes)
        return self._arena.take_c("lists.mask" + self.scratch, (room,), np.uint8)

    def absorb(self, views: list["ArenaNeighborLists"]) -> None:
        """Fold the workers' tallies and seed-dirty flags into this one."""
        for view in views:
            self.stats.add(view.stats)
            self._seed_dirty |= view._seed_dirty

    def seed(self, distances: np.ndarray, indices: np.ndarray) -> None:
        """Fold fully-finite warm lists into the structure itself.

        Updates then merge candidates *into* the seed, so the caller's
        final dedup-merge pass against the seed becomes unnecessary —
        the merge happens incrementally, only on rows a tile actually
        improves. Requires every seeded distance finite (every row a
        complete list) and no repeated reference id across the whole
        pass — the dedup below compares candidates with the retained
        list, never two copies inside one tile, so the plan folds a seed
        only after checking its ``r_idx`` has no repeats. Seeding
        switches the masked path into dedup mode, because
        a candidate that already sits in a row's list (same id, same
        distance — both produced by the exact kernel over one table)
        must not enter twice.
        """
        if distances.shape != (self.m, self.k):
            raise ValidationError(
                f"seed must be shape ({self.m}, {self.k}), got {distances.shape}"
            )
        self.values[:] = distances
        self.ids[:] = indices
        np.max(distances, axis=1, out=self.row_max)
        self._touched.fill(True)
        self._dedup = True

    def update(
        self,
        row_start: int,
        cand_values: np.ndarray,
        cand_ids: np.ndarray,
        screen: "TileScreen | None" = None,
    ) -> None:
        """Fold a tile into rows ``row_start...``, as the base class does.

        Without ``screen``, ``cand_values`` holds finished distances: a
        row with a finite threshold keeps the candidates at or below it,
        a row without one those at or below the ``k``-th smallest of
        :func:`cut_bins` strided bin minima. With a
        :class:`~repro.core.screen.TileScreen`, ``cand_values`` is the
        l2 float32 screen tile: the same two cuts are taken on it, each
        widened by the screen's error bound, and only the survivors are
        rescored in float64 and re-checked against ``row_max``. Either
        way the lists and thresholds come out as if every candidate had
        been finished first. The tile itself is never written.
        """
        cand_values = np.asarray(cand_values)
        if cand_values.ndim != 2:
            raise ValidationError("candidate tile must be 2-D")
        m_b, n_b = cand_values.shape
        if row_start < 0 or row_start + m_b > self.m:
            raise ValidationError(
                f"rows [{row_start}, {row_start + m_b}) out of range for m={self.m}"
            )
        if self.wholesale:
            # Var#5: no early discard — every tile is merged whole, and
            # the threshold never engages
            super().update(row_start, cand_values, cand_ids)
            self.row_max[row_start : row_start + m_b] = np.inf
            return
        cand_ids = np.asarray(cand_ids, dtype=np.intp).ravel()
        if cand_ids.size != n_b:
            raise ValidationError(
                f"tile has {n_b} columns but {cand_ids.size} reference ids"
            )
        self.stats.rows_offered += m_b
        self.stats.candidates_offered += m_b * n_b
        thresholds = self.row_max[row_start : row_start + m_b]
        cold = np.isinf(thresholds)
        all_cold = bool(cold.all())
        any_cold = all_cold or bool(cold.any())
        if screen is None:
            cut = thresholds
        elif any_cold:
            # a warm row's cut is folded into its screen tile: it keeps
            # what screens below 0
            cut = np.where(cold, np.float32(np.inf), np.float32(0))
        bins = cut_bins(self.k, n_b)
        if bins and any_cold:
            # Cold rows: the k-th smallest of `bins` strided bin minima
            # is an element with k-1 others at or below it, so every
            # candidate of the row's k best is at or below it too (above
            # it by at most the screen's widening). The view over the
            # first groups * bins columns is a slice, never a copy; the
            # remaining columns are only compared.
            groups = n_b // bins
            mins = cand_values[:, : groups * bins]
            mins = mins.reshape(m_b, groups, bins).min(axis=1)
            mins.partition(self.k - 1, axis=1)
            if screen is None:
                kth = mins[:, self.k - 1]  # kept at or below
            else:
                kth = screen.cold_cut(mins[:, self.k - 1])
            cut = kth if all_cold else np.where(cold, kth, cut)

        # The mask's bytes also hold the rescore scratch and the merge
        # buffer below (the mask is dead once `flat` is taken), so they
        # cost no workspace beyond the tile and mask bytes the budget fit
        # counts. Only a tile of fewer than 16 (k + 1) cells gets more: a
        # merge round holds at least one row and one survivor, a rescore
        # round one pair.
        key = "lists.mask" + self.scratch
        buf = self.take_mask(
            cand_values.size, 0 if screen is None else screen.pair_bytes
        )
        room = buf.size
        mask = buf[: cand_values.size].view(np.bool_).reshape(m_b, n_b)
        if screen is None:
            # at the threshold too: a tie may still win on its id
            np.less_equal(cand_values, cut[:, None], out=mask)
        elif any_cold:
            np.less(cand_values, cut[:, None], out=mask)
        else:
            # a scalar compare runs several times faster than one
            # broadcasting a column of cuts
            np.less(cand_values, np.float32(0), out=mask)
        # flatnonzero on the dense mask is several times faster than the
        # generic 2-D nonzero, and divmod keeps the same row-major order
        flat = np.flatnonzero(mask)
        surv_rows, surv_cols = np.divmod(flat, n_b)
        surv_ids = cand_ids[surv_cols]
        if screen is None:
            surv_values = cand_values[surv_rows, surv_cols]
        else:
            # rescore the survivors in float64, then drop the ones the
            # widening let through: what remains is exactly what a
            # float64 `distance <= row_max` compare would keep (cold
            # rows: `<= inf`)
            self.stats.candidates_rescored += int(surv_rows.size)
            surv_values = screen.rescore(surv_rows, surv_ids, buf)
            if not all_cold:
                keep = surv_values <= thresholds[surv_rows]
                if not keep.all():
                    surv_rows = surv_rows[keep]
                    surv_ids = surv_ids[keep]
                    surv_values = surv_values[keep]
        if surv_rows.size == 0:
            return
        if self._dedup:
            # Seeded lists: a survivor whose id is already retained must
            # not enter the merge twice. Its freshly computed distance
            # overwrites the seed's copy in place (a seed computed by
            # another path may differ from it in the last bits; a final
            # dedup-merge would keep the fresh value, so the fold does
            # too), then the candidate is dropped. Done before the row
            # grouping so rows_merged stays an honest count and the
            # caller's zero-survivor shortcut keeps firing.
            abs_r = surv_rows + row_start
            eq = self.ids[abs_r] == surv_ids[:, None]
            dup = eq.any(axis=1)
            if dup.any():
                fresh = surv_values[dup]
                at = (abs_r[dup], eq.argmax(axis=1)[dup])
                if not self._seed_dirty and (self.values[at] != fresh).any():
                    self._seed_dirty = True
                self.values[at] = fresh
                keep = ~dup
                surv_rows = surv_rows[keep]
                surv_ids = surv_ids[keep]
                surv_values = surv_values[keep]
                if surv_rows.size == 0:
                    return
        # row-major order: rows ascending, columns ascending within a
        # row — survivors group by row without sorting
        counts = np.bincount(surv_rows, minlength=m_b)
        starts = np.cumsum(counts) - counts
        pos = np.arange(surv_rows.size) - starts[surv_rows]
        live_rows = np.flatnonzero(counts)
        rank = np.cumsum(counts > 0) - 1  # a tile row's place among live rows
        self.stats.rows_merged += int(live_rows.size)
        self.stats.candidates_surviving += int(surv_rows.size)
        self._merge_rounds(
            live_rows + row_start, counts[live_rows], rank[surv_rows], pos,
            surv_values, surv_ids, room, key,
        )

    def _merge_rounds(
        self,
        rows: np.ndarray,
        counts: np.ndarray,
        strip_rows: np.ndarray,
        pos: np.ndarray,
        values: np.ndarray,
        ids: np.ndarray,
        room: int,
        key: str,
    ) -> None:
        """Merge grouped survivors into ``rows`` in rounds that fit ``room``.

        Live row ``i`` (absolute row ``rows[i]``) has ``counts[i]``
        survivors, grouped in row order; ``strip_rows`` holds each
        survivor's ``i`` and ``pos`` numbers it within its row. A round's
        ``(rows, k + slots)`` buffer takes 16 bytes a cell and must fit
        ``room``: a row with more survivors than ``slots`` merges them
        in several rounds, in column order, and when the live rows' lists
        alone crowd the buffer, rows take turns.
        """
        k = self.k
        nlive = counts.size
        cap = room // 16
        most = int(counts.max())
        slots = min(most, max(cap // nlive - k, k), cap - k)
        per = min(nlive, cap // (k + slots))  # rows per round
        if per == nlive and slots == most:
            self._merge_strip(rows, strip_rows, pos, values, ids, slots, key)
            return
        ends = np.cumsum(counts)
        for r0 in range(0, nlive, per):
            r1 = min(r0 + per, nlive)
            # the chunk's survivors are contiguous: rows group in order
            span = slice(ends[r0] - counts[r0], ends[r1 - 1])
            chunk, p = counts[r0:r1], pos[span]
            widest = int(chunk.max())
            for lo in range(0, widest, slots):
                # the rows with survivors left, renumbered within the round
                more = chunk > lo
                rank = np.cumsum(more) - 1
                take = (p >= lo) & (p < lo + slots)
                self._merge_strip(
                    rows[r0:r1][more], rank[strip_rows[span][take] - r0],
                    p[take] - lo, values[span][take], ids[span][take],
                    min(slots, widest - lo), key,
                )

    def _merge_strip(
        self,
        rows: np.ndarray,
        strip_rows: np.ndarray,
        strip_cols: np.ndarray,
        values: np.ndarray,
        ids: np.ndarray,
        slots: int,
        key: str,
    ) -> None:
        """Merge survivors into ``rows``' lists through one buffer at ``key``.

        Buffer row ``i`` holds ``rows[i]``'s current ``k`` entries, then
        ``slots`` survivor cells padded with +inf/-1; :func:`topk_lex`
        keeps the ``k`` smallest ``(distance, id)`` pairs, and one flat
        index gathers them back from both halves (a third the cost of
        ``take_along_axis``).
        """
        k = self.k
        nrows = rows.size
        width = k + slots
        cells = nrows * width
        buf = self._arena.take_c(key, (16 * cells,), np.uint8)
        merged = buf[: 8 * cells].view(np.float64).reshape(nrows, width)
        merged_ids = buf[8 * cells :].view(np.intp).reshape(nrows, width)
        merged[:, :k] = self.values[rows]
        merged_ids[:, :k] = self.ids[rows]
        merged[:, k:] = np.inf
        merged_ids[:, k:] = -1
        at = strip_rows * width + k + strip_cols
        merged.ravel()[at] = values
        merged_ids.ravel()[at] = ids
        part = topk_lex(merged, merged_ids, k)
        part += np.arange(0, cells, width)[:, None]
        new_values = np.take(merged, part)
        self.values[rows] = new_values
        self.ids[rows] = np.take(merged_ids, part)
        # topk_lex leaves a row's k-th smallest, its new maximum, last
        self.row_max[rows] = np.minimum(
            self.row_max[rows], new_values[:, k - 1]
        )
