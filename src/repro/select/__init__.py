"""Neighbor-selection algorithms (paper §2.2, Table 3).

The kNN kernel must pick the ``k`` smallest of ``n`` candidate distances
per query. The paper analyzes three families and chooses max-heap
selection for its O(n) best case and array locality:

* :class:`~repro.select.heap.BinaryMaxHeap` — the classic array-embedded
  binary max heap (used by GSKNN Var#1 for small ``k``);
* :class:`~repro.select.heap.DHeap` — the padded d-ary heap (a 4-heap by
  default) whose children share a cache line (used by Var#6 for large
  ``k``);
* :func:`~repro.select.quickselect.quickselect_smallest` — Hoare
  partition-based selection, O(n+k) average;
* :func:`~repro.select.mergeselect.merge_select` — chunked merge-sort
  selection, O(n log k) best *and* worst case.

All scalar implementations count comparisons/moves via
:class:`~repro.select.counters.SelectionStats` so Table 3's complexity rows
can be measured, not just asserted. The production fast path used by the
numpy GSKNN kernel is the batched vectorized merge in
:mod:`repro.select.vectorized`.
"""

from .bitonic import (
    bitonic_merge_rows,
    bitonic_merge_select_rows,
    bitonic_sort_rows,
)
from .counters import SelectionStats
from .heap import BinaryMaxHeap, DHeap, heap_select_smallest
from .mergeselect import merge_partial_topk, merge_select
from .quickselect import quickselect_smallest
from .vectorized import (
    ArenaNeighborLists,
    BatchedNeighborLists,
    cut_bins,
    finalize_sq_l2,
    merge_block,
)

__all__ = [
    "SelectionStats",
    "BinaryMaxHeap",
    "DHeap",
    "heap_select_smallest",
    "quickselect_smallest",
    "merge_partial_topk",
    "merge_select",
    "ArenaNeighborLists",
    "BatchedNeighborLists",
    "cut_bins",
    "finalize_sq_l2",
    "merge_block",
    "bitonic_sort_rows",
    "bitonic_merge_rows",
    "bitonic_merge_select_rows",
]
