"""GSKNN — the fused General Stride k-Nearest Neighbors kernel.

Two implementations of Algorithm 2.2 live here:

* :func:`gsknn` — the production path. It preserves the two properties
  that give GSKNN its advantage over the GEMM approach — distances are
  consumed *block by block* (the ``m x n`` matrix is never materialized
  for Var#1) and candidates are filtered against the per-query heap root
  before any selection work — but expresses each cache block with one
  BLAS call and one batched merge, which is the efficient granularity
  for numpy (per-register-tile Python loops would be interpreter-bound).

* :func:`gsknn_exact_loops` — the faithful six-loop structure with
  Z-packed micro-panels, an ``m_r x n_r`` register tile, per-query
  scalar heaps and the Var#1 fused tail, exactly as Algorithms 2.2/2.3
  specify. It is the semantic reference the fast path and the trace
  simulator are validated against, and is intended for small problems.

Both accept the paper's general-stride interface: the coordinate table
``X`` plus *index arrays* ``q_idx``/``r_idx``; gathering happens inside
the kernel (fused with packing), never as a separate caller-side pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..config import (
    DEFAULT_BLOCK_M,
    DEFAULT_BLOCK_N,
    BlockingParams,
    TEST_BLOCKING,
    iter_blocks,
)
from ..errors import ValidationError
from ..gemm.packing import pack_micropanels
from ..obs import trace as _trace
from ..select.heap import BinaryMaxHeap, DHeap
from ..tune.decision import decide_variant
from ..validation import as_coordinate_table, as_index_array, check_finite, check_k
from . import microkernel
from .neighbors import KnnResult
from .norms import Norm, resolve_norm, squared_norms
from .variants import Variant, VARIANT_INFO

__all__ = [
    "gsknn",
    "gsknn_exact_loops",
    "GsknnStats",
]


@dataclass
class GsknnStats:
    """Execution statistics of one fused-kernel run.

    ``blocks`` counts (row block, ``block_n``-wide panel) pairs, however
    many panels a tile groups: a short batch whose tile spans several
    panels still counts one block per panel, and an l2 screen panel,
    ``2 block_n`` wide, counts two. ``candidates_discarded`` counts
    what the root filter dropped, so it depends on the tile width: a
    wider tile filters against thresholds refreshed once per tile.
    """

    variant: Variant
    blocks: int = 0
    candidates_offered: int = 0
    candidates_discarded: int = 0
    m: int = 0
    n: int = 0
    d: int = 0

    @property
    def discard_fraction(self) -> float:
        if self.candidates_offered == 0:
            return 0.0
        return self.candidates_discarded / self.candidates_offered

    def counters(self):
        """This run's work as a :class:`~repro.perf.counters.KernelCounters`.

        Flops are the exact useful count ``(2d + 3) m n``; slow-memory
        doubles follow the Var#1/Var#6 accounting (gathered operands for
        both, plus the stored matrix for Var#6); heap/discard tallies
        come from the run itself.
        """
        from ..perf.counters import KernelCounters

        slow_reads = self.d * (self.m + self.n) + self.m + self.n  # X + X2
        slow_writes = 0
        if self.variant is Variant.VAR6:
            slow_writes += self.m * self.n  # the stored distance matrix
            slow_reads += self.m * self.n  # re-read during selection
        return KernelCounters(
            flops=(2 * self.d + 3) * self.m * self.n,
            slow_reads=slow_reads,
            slow_writes=slow_writes,
            heap_updates=self.candidates_offered - self.candidates_discarded,
            discarded=self.candidates_discarded,
        )


def gsknn(
    X: np.ndarray,
    q_idx: np.ndarray,
    r_idx: np.ndarray,
    k: int,
    *,
    norm: str | float | Norm = "l2",
    variant: int | str | Variant = "auto",
    X2: np.ndarray | None = None,
    block_m: int = DEFAULT_BLOCK_M,
    block_n: int = DEFAULT_BLOCK_N,
    blocking: str | object | None = None,
    initial: KnnResult | None = None,
    return_stats: bool = False,
    request=None,
    memory_budget=None,
) -> KnnResult | tuple[KnnResult, GsknnStats]:
    """Exact k nearest neighbors of ``X[q_idx]`` among ``X[r_idx]``, fused.

    Parameters
    ----------
    X:
        ``(N, d)`` coordinate table (row = point), or a
        :class:`~repro.core.table.TableHandle` (whose norms are then
        used and ``X2`` is ignored). A bare array is validated once for
        this call and left as it was.
    q_idx, r_idx:
        Global indices of the ``m`` query and ``n`` reference points.
        Duplicates are allowed; results carry these *global* ids.
    k:
        Neighbors per query, ``1 <= k <= len(r_idx)``.
    norm:
        ``"l2"`` (default; distances returned are *squared*), ``"l1"``,
        ``"linf"``, or any ``p > 0``.
    variant:
        ``"auto"`` (this path's empirical Var#1/Var#6 threshold,
        :data:`repro.tune.NUMPY_VARIANT_SWITCH_K`), ``"model"`` (Table 4's predicted
        threshold — Figure 5's rule), ``"paper"`` (the static §3 rule:
        Var#1 iff k <= 512), or an explicit 1/5/6 — only Var#1, Var#5
        and Var#6 are executable (see :mod:`repro.core.variants` for
        why the others never win).
    X2:
        Optional precomputed squared norms ``X2[i] = |X[i]|^2`` (the
        paper's global side table; avoids recomputation across kernel
        calls). Ignored for non-l2 norms.
    block_m, block_n:
        Cache-block sizes of the fast path (the numpy-scale analogues of
        ``m_c``/``n_c``).
    blocking:
        ``"tuned"`` loads this host's persisted autotuner result
        (:mod:`repro.tune`) and applies its block sizes — and, when
        ``variant="auto"``, its measured Var#1/Var#6 switch-``k`` —
        falling back to the defaults cleanly when no cache entry
        matches this host. A :class:`~repro.tune.TunedConfig` instance
        applies directly; ``None``/``"default"`` uses ``block_m`` /
        ``block_n`` as passed.
    initial:
        Existing ``(m, k)`` neighbor lists to *update* — the paper's
        kernel semantics ("update the neighbor lists of the queries").
        Losslessly accelerates Var#1: a candidate can only enter the
        merged list if it beats the initial list's k-th distance, so
        the root filter starts warm instead of accepting everything;
        the returned lists are the dedup-merge of ``initial`` with the
        new candidates (a re-found pair's distance may differ from the
        seed's by an ulp; see docs/PERF.md). Ids in ``initial`` must be
        globally consistent with ``r_idx``'s id space.
    return_stats:
        Also return a :class:`GsknnStats` with early-discard counters.
    request:
        Optional :class:`~repro.obs.context.RequestContext` (or bare
        request-id string): tags the kernel's spans and metrics with the
        originating request. Without it any ambient scope is inherited.
    memory_budget:
        A :class:`~repro.MemoryBudget`, byte count, or spec string
        (``"64MiB"``) capping this call's workspace. The call then runs
        through a budget-charging arena with reference panels streamed
        per-tile from ``X`` — pass a memmapped table (see
        ``load_dataset(mmap_mode=...)``) to solve against datasets
        larger than RAM. Results are bit-identical to the unbudgeted
        path at the same block sizes; an infeasible combination raises
        :class:`~repro.errors.MemoryBudgetError` instead of OOMing.

    Returns
    -------
    :class:`~repro.core.neighbors.KnnResult` — rows sorted ascending —
    and, if requested, the run statistics.
    """
    # One-shot calls run through an *ephemeral* plan (lazy imports: the
    # plan module imports this one at load time) over a per-call table
    # handle: panels are gathered per block into an arena borrowed for
    # this call only, so nothing outlives the call. Callers with
    # repeated queries build a GsknnPlan and keep it.
    from ..obs.context import coerce_request, request_scope
    from .plan import GsknnPlan, _record_kernel_stats
    from .table import as_table

    table = as_table(X, X2)
    table.check()
    q_idx = as_index_array(q_idx, table.n, name="q_idx")
    r_idx = as_index_array(r_idx, table.n, name="r_idx")
    k = check_k(k, r_idx.size)
    if initial is not None:
        if initial.distances.shape != (q_idx.size, k):
            raise ValidationError(
                f"initial lists must be shape ({q_idx.size}, {k}), got "
                f"{initial.distances.shape}"
            )

    plan = GsknnPlan(
        table,
        r_idx,
        norm=norm,
        variant=variant,
        block_m=block_m,
        block_n=block_n,
        blocking=blocking,
        cache_panels=False,
        memory_budget=memory_budget,
    )
    m, n, d = q_idx.size, r_idx.size, table.d
    var = plan._resolve_variant(m, k, None)
    stats = GsknnStats(variant=var, m=m, n=n, d=d)

    with request_scope(coerce_request(request)):
        t0 = time.perf_counter()
        with _trace.span(
            "gsknn", variant=int(var), m=m, n=n, d=d, k=k
        ):
            with plan.arena_pool.borrow() as arena:
                result = plan._execute_impl(
                    q_idx, k, var, initial, arena, stats
                )
        _record_kernel_stats(stats, k, t0)
    if return_stats:
        return result, stats
    return result


def gsknn_exact_loops(
    X: np.ndarray,
    q_idx: np.ndarray,
    r_idx: np.ndarray,
    k: int,
    *,
    norm: str | float | Norm = "l2",
    variant: int | str | Variant = Variant.VAR1,
    blocking: BlockingParams = TEST_BLOCKING,
    heap_arity: int | None = None,
    X2: np.ndarray | None = None,
) -> KnnResult:
    """The faithful six-loop Algorithm 2.2/2.3 with Z-packed micro-panels.

    Loop-for-loop and tile-for-tile the paper's structure: packed
    ``Q_c``/``R_c`` micro-panels, an ``m_r x n_r`` register tile
    accumulated across ``d_c`` depth blocks in a ``C_c`` buffer, norms
    gathered only on the last depth block, and the heap selection placed
    after the loop the chosen variant names:

    * Var#1 — fused in the micro-kernel tail (Algorithm 2.3);
    * Var#2 — after the 2nd loop (a complete ``m_b x n_r`` strip);
    * Var#3 — after the 3rd loop (a complete ``m_b x n_b`` block);
    * Var#5 — after the 5th loop (a complete ``m x n_b`` slab);
    * Var#6 — after the 6th loop (the full ``m x n`` matrix, streamed
      through a 4-heap — the paper's large-k configuration).

    Var#4 is rejected: the 5th loop blocks the d dimension, so no
    complete distances exist at that point (§2.3). All executable
    placements return identical results — the property the tests pin —
    differing only in buffering and locality, which is the entire
    subject of the paper's variant analysis.

    Python-loop bound: use for small problems (tests, trace validation).
    """
    X = as_coordinate_table(X)
    check_finite(X)
    q_idx = as_index_array(q_idx, X.shape[0], name="q_idx")
    r_idx = as_index_array(r_idx, X.shape[0], name="r_idx")
    k = check_k(k, r_idx.size)
    norm = resolve_norm(norm)
    var, _ = decide_variant(variant, q_idx.size, r_idx.size, X.shape[1], k)
    if var is Variant.VAR4:
        raise ValidationError(
            "Var#4 is not executable: " + VARIANT_INFO[Variant.VAR4].notes
        )
    fused = var is Variant.VAR1
    if heap_arity is None:
        heap_arity = 2 if fused else 4  # paper §2.4: binary small k, 4-heap large k

    m, n, d = q_idx.size, r_idx.size, X.shape[1]
    blk = blocking
    if norm.is_l2 or norm.is_cosine:
        table_norms = squared_norms(X) if X2 is None else np.asarray(X2, np.float64)
    heaps: list[BinaryMaxHeap | DHeap] = [
        BinaryMaxHeap(k) if heap_arity == 2 else DHeap(k, arity=heap_arity)
        for _ in range(m)
    ]
    C_full = np.zeros((m, n), dtype=np.float64) if var is Variant.VAR6 else None

    for j_c, n_b in iter_blocks(n, blk.n_c):  # 6th loop
        # C_c accumulates rank-d_c partial sums across the 5th loop.
        C_c = np.zeros((m, n_b), dtype=np.float64)
        # Var#2/3/5 need a completed-distance buffer for their scope.
        slab = (
            np.zeros((m, n_b), dtype=np.float64)
            if var in (Variant.VAR2, Variant.VAR3, Variant.VAR5)
            else None
        )
        r_block = r_idx[j_c : j_c + n_b]
        for p_c, d_b in iter_blocks(d, blk.d_c):  # 5th loop
            last_depth = p_c + d_b >= d
            with _trace.span("pack", which="R", rows=n_b, depth=d_b):
                Rc = pack_micropanels(X[r_block, p_c : p_c + d_b], blk.n_r)
            R2c = (
                table_norms[r_block]
                if (last_depth and (norm.is_l2 or norm.is_cosine))
                else None
            )
            for i_c, m_b in iter_blocks(m, blk.m_c):  # 4th loop
                q_block = q_idx[i_c : i_c + m_b]
                with _trace.span("pack", which="Q", rows=m_b, depth=d_b):
                    Qc = pack_micropanels(X[q_block, p_c : p_c + d_b], blk.m_r)
                Q2c = (
                    table_norms[q_block]
                    if (last_depth and (norm.is_l2 or norm.is_cosine))
                    else None
                )
                _exact_macro_kernel(
                    C_c,
                    Qc,
                    Rc,
                    Q2c,
                    R2c,
                    heaps,
                    C_full,
                    slab,
                    i_c,
                    j_c,
                    m_b,
                    n_b,
                    blk,
                    norm,
                    r_block,
                    last_depth=last_depth,
                    variant=var,
                )
                if var is Variant.VAR3 and last_depth:
                    # selection after the 3rd loop: the m_b x n_b block of
                    # completed distances for this 4th-loop iteration
                    assert slab is not None
                    for i in range(m_b):
                        heaps[i_c + i].update_many(
                            slab[i_c + i], r_block
                        )
        if var is Variant.VAR5:
            # selection after the 5th loop: the full m x n_b slab
            assert slab is not None
            with _trace.span("heap", stage="var5_slab", cols=n_b):
                for i in range(m):
                    heaps[i].update_many(slab[i], r_block)

    if var is Variant.VAR6:
        assert C_full is not None
        with _trace.span("heap", stage="var6_full"):
            for i in range(m):
                heaps[i].update_many(C_full[i], r_idx)

    dist = np.empty((m, k), dtype=np.float64)
    idx = np.empty((m, k), dtype=np.intp)
    with _trace.span("heap", stage="extract"):
        for i, heap in enumerate(heaps):
            dist[i], idx[i] = heap.sorted_pairs()
    return KnnResult(dist, idx)


def _exact_macro_kernel(
    C_c: np.ndarray,
    Qc: np.ndarray,
    Rc: np.ndarray,
    Q2c: np.ndarray | None,
    R2c: np.ndarray | None,
    heaps: list,
    C_full: np.ndarray | None,
    slab: np.ndarray | None,
    i_c: int,
    j_c: int,
    m_b: int,
    n_b: int,
    blk: BlockingParams,
    norm: Norm,
    r_block: np.ndarray,
    *,
    last_depth: bool,
    variant: Variant,
) -> None:
    """3rd/2nd loops plus the micro-kernel (1st loop) and its variant tail."""
    m_r, n_r = blk.m_r, blk.n_r
    for jp in range(Rc.shape[0]):  # 3rd loop
        j0 = jp * n_r
        cols = min(n_r, n_b - j0)
        for ip in range(Qc.shape[0]):  # 2nd loop
            i0 = ip * m_r
            rows = min(m_r, m_b - i0)
            tile = microkernel.init_tile(m_r, n_r, norm)
            tile[:rows, :cols] = C_c[
                i_c + i0 : i_c + i0 + rows, j0 : j0 + cols
            ]
            microkernel.rank_update(tile, Qc[ip], Rc[jp], norm)
            if not last_depth:
                C_c[i_c + i0 : i_c + i0 + rows, j0 : j0 + cols] = tile[
                    :rows, :cols
                ]
                continue
            if norm.is_l2 or norm.is_cosine:
                q2 = np.zeros(m_r)
                r2 = np.zeros(n_r)
                q2[:rows] = Q2c[i0 : i0 + rows]
                r2[:cols] = R2c[j0 : j0 + cols]
                dist_tile = microkernel.finalize_tile(tile, q2, r2, norm)
            else:
                dist_tile = microkernel.finalize_tile(tile, None, None, norm)
            if variant is Variant.VAR1:
                microkernel.fused_select(
                    dist_tile,
                    heaps,
                    i_c + i0,
                    r_block[j0 : j0 + cols],
                    live_rows=rows,
                    live_cols=cols,
                )
            elif variant is Variant.VAR6:
                assert C_full is not None
                C_full[
                    i_c + i0 : i_c + i0 + rows, j_c + j0 : j_c + j0 + cols
                ] = dist_tile[:rows, :cols]
            else:  # Var#2/3/5 buffer completed distances in the slab
                assert slab is not None
                slab[
                    i_c + i0 : i_c + i0 + rows, j0 : j0 + cols
                ] = dist_tile[:rows, :cols]
        if variant is Variant.VAR2 and last_depth:
            # selection after the 2nd loop: the m_b x n_r strip just
            # completed for this 3rd-loop iteration
            assert slab is not None
            for i in range(m_b):
                heaps[i_c + i].update_many(
                    slab[i_c + i, j0 : j0 + cols], r_block[j0 : j0 + cols]
                )
