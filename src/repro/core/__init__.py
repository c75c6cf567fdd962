"""The paper's primary contribution: the fused GSKNN kernel and baseline.

Public surface:

* :func:`~repro.core.gsknn.gsknn` — the fused kernel (Algorithm 2.2);
* :func:`~repro.core.gsknn.gsknn_exact_loops` — the faithful six-loop
  reference implementation with packed micro-panels and scalar heaps;
* :func:`~repro.core.ref_kernel.ref_knn` — the GEMM-based baseline
  (Algorithm 2.1), with phase timing via
  :func:`~repro.core.ref_kernel.ref_knn_timed`;
* :class:`~repro.core.plan.GsknnPlan` / :class:`~repro.core.plan.PlanCache`
  — the amortized repeated-query engine (cached reference panels, a
  reusable workspace arena, resolved blocking; see ``docs/PERF.md``);
* :class:`~repro.core.table.TableHandle` — one validated, frozen
  coordinate table with its squared norms, the unit plans key on
  (:data:`~repro.core.table.ALL_ROWS` names its every row);
* :class:`~repro.core.neighbors.KnnResult` and merge/recall utilities.

The variant and blocking decisions the kernel applies (``variant="auto"``,
``blocking="tuned"``) live in :mod:`repro.tune`.
"""

from .gsknn import GsknnStats, gsknn, gsknn_exact_loops
from .membudget import MemoryBudget, parse_bytes
from .neighbors import KnnResult, merge_neighbor_lists, recall
from .norms import Norm, pairwise_block, pairwise_lp, pairwise_sq_l2, resolve_norm
from .plan import GsknnPlan, PlanCache
from .ref_kernel import ref_knn, ref_knn_timed
from .table import ALL_ROWS, TableHandle
from .variants import Variant, VariantInfo, VARIANT_INFO, resolve_variant

__all__ = [
    "gsknn",
    "gsknn_exact_loops",
    "GsknnStats",
    "GsknnPlan",
    "PlanCache",
    "TableHandle",
    "ALL_ROWS",
    "MemoryBudget",
    "parse_bytes",
    "KnnResult",
    "merge_neighbor_lists",
    "recall",
    "Norm",
    "resolve_norm",
    "pairwise_sq_l2",
    "pairwise_lp",
    "pairwise_block",
    "ref_knn",
    "ref_knn_timed",
    "Variant",
    "VariantInfo",
    "VARIANT_INFO",
    "resolve_variant",
]

