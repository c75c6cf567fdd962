"""Kernel plans: amortized state for repeated GSKNN queries (§2.2's
amortization, carried *across* calls).

GSKNN's in-call trick is amortization — gather/pack once per cache
block, reuse across the micro-kernel loops — but the repeated-call
drivers (tree iterations, streaming refreshes, batches, shard
workers) historically rebuilt everything between calls: re-gathered the
same reference rows, recomputed their squared-norm side table,
re-resolved the variant, and reallocated every distance/merge temporary.
A :class:`GsknnPlan` hoists all of that to construction time:

* **cached reference panels** — the 6th loop's reference blocks, each
  stored once, depth-major, as ``R_a^T = [R_c | R2_c]^T`` (the
  coordinates' transpose with the squared norms as one extra row; the
  order §2.2 packs micro-panels in, so every tile GEMM reads an
  untransposed B operand), or for l2 as float32 screen panels (see
  below), gathered once and reused by every execute. The plan holds a
  :class:`~repro.core.table.TableHandle`, which froze the table when it
  was made, so the panels can never go stale: an in-place write to the
  table raises;
* **a workspace arena** (:mod:`repro.core.arena`) — distance tiles,
  survivor masks, and the neighbor-list state are ``out=``-written into
  grow-only buffers, so the warm steady state performs no large
  allocations per call (pinned by a tracemalloc regression test);
* **resolved blocking/variant decisions** — tuned block sizes load
  once; the Var#1/Var#6 choice is memoized per ``(m, k)``.

Every caller runs one loop nest with one selection structure. Plan
executes, batches, serving and shards use a long-lived plan; the
one-shot :func:`repro.core.gsknn.gsknn` builds an ephemeral plan that
caches nothing and borrows one arena for the call. Selection is masked
on every Var#1 tile, cold or warm: each row gets a cut — its threshold
once its list is full, else the ``k``-th smallest of strided bin minima
of the tile (:func:`repro.select.vectorized.cut_bins`) — and one
compare pass extracts only the candidates that can still enter its
list. No tile is copied and partitioned whole; Var#5, which never
filters, merges each tile wholesale.

For the l2 norm a Var#1 tile is **one float32 sgemm and no epilogue**
(paper §2.3 keeps the epilogue in registers; TPU-KNN folds the norms
into the operands). Panels hold ``[(R - c) s | |R - c|^2 s^2 | 1]^T``
in float32, ``2 block_n`` wide, and queries
``[-2 (Q - c) s | 1 | -o]`` with each warm row's widened cut ``o``, so
the tile is the screen less the cuts; only the candidates that pass
are rescored in float64 from ``Q_a = [-2 Q | 1]`` and the table, one
pair at a time (see :mod:`repro.core.screen`). Var#5 keeps the
float64 folded GEMM ``Q_a @ R_a^T = r2 - 2 q.r`` and finishes each tile
whole before merging it. Var#6, cosine and the general ``p`` norms
keep :func:`repro.core.norms.pairwise_block` arithmetic on float64
panels, read through ``R_c``/``R2_c`` views of ``R_a^T``; an l2 plan
streams those per call.

Repeated executes against the *same* queries warm-start automatically:
the previous result seeds the root filter, and when nothing beats it
the call returns without sorting or merging at all. Cold vs warm cost
is observable as ``plan.build`` / ``plan.execute`` spans and
``plan.reuse_hits`` metrics through the observability layer.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import OrderedDict

import numpy as np

from ..config import DEFAULT_BLOCK_M, DEFAULT_BLOCK_N, iter_blocks
from ..errors import MemoryBudgetError, ValidationError
from ..obs import trace as _trace
from ..obs.metrics import get_registry as _get_registry
from ..select.vectorized import ArenaNeighborLists, cut_bins, finalize_sq_l2
from ..tune.decision import apply_blocking, decide_variant
from ..validation import as_index_array, check_finite, check_k
from .arena import ArenaPool
from .membudget import MemoryBudget
from .gsknn import GsknnStats
from .microkernel import finalize_tile
from .neighbors import KnnResult, merge_neighbor_lists_fast
from .norms import Norm, pairwise_block, resolve_norm
from .screen import ScreenFrame, ScreenQueries, TileScreen
from .table import ALL_ROWS, TableHandle
from .variants import Variant, VARIANT_INFO, resolve_variant
from .workers import RowWorkers, row_workers

__all__ = ["GsknnPlan", "PlanCache"]


class GsknnPlan:
    """Reusable execution state for kNN queries against a fixed reference set.

    Parameters
    ----------
    table:
        A :class:`~repro.core.table.TableHandle`, or an ``(N, d)`` array
        the plan wraps in one — which freezes the array (see
        :mod:`repro.core.table`), so an in-place write raises instead of
        leaving the cached panels stale.
    r_idx:
        Global indices of the ``n`` reference points — fixed for the
        plan's lifetime — or :data:`~repro.core.table.ALL_ROWS`.
    norm, variant, block_m, block_n, blocking:
        Exactly as :func:`repro.core.gsknn.gsknn`. ``variant`` is the
        *spec* (``"auto"``/``"model"``/``"paper"``/1/5/6); resolution
        happens per execute and is memoized per ``(m, k)``.
    arena_pool:
        Workspace pool shared with other plans (a :class:`PlanCache`
        passes one pool to all its plans so tile buffers are shared).
        Defaults to a private pool.
    cache_panels:
        Gather the reference panels at construction (default). ``False``
        gathers each panel into the execute's arena on every execute —
        the ephemeral one-shot configuration, which retains nothing
        between calls.
    memory_budget:
        A :class:`~repro.core.membudget.MemoryBudget` (or byte count /
        spec like ``"64MiB"``) capping the plan's workspace. A budgeted
        plan charges every arena buffer against the cap, *streams*
        reference panels per-tile from ``X`` (a memmap works unchanged —
        this is the out-of-core path, one sequential read per pass)
        whenever caching them whole would eat more than half the
        budget, and refuses Var#6 when its full scores matrix cannot
        fit. Streamed and cached executions are bit-identical at equal
        block sizes. See docs/MEMORY.md.
    """

    def __init__(
        self,
        table: TableHandle | np.ndarray,
        r_idx: np.ndarray,
        *,
        norm: str | float | Norm = "l2",
        variant: int | str | Variant = "auto",
        block_m: int = DEFAULT_BLOCK_M,
        block_n: int = DEFAULT_BLOCK_N,
        blocking: str | object | None = None,
        arena_pool: ArenaPool | None = None,
        cache_panels: bool = True,
        memory_budget: MemoryBudget | int | str | None = None,
    ) -> None:
        if not isinstance(table, TableHandle):
            table = TableHandle(table)
        self.table = table
        # every row in order: reference passes read slices of X
        self._in_order = r_idx is ALL_ROWS
        if r_idx is ALL_ROWS:
            self.r_idx = np.arange(table.n, dtype=np.intp)
            self._r_unique: bool | None = True
        else:
            self.r_idx = as_index_array(r_idx, table.n, name="r_idx")
            self._r_unique = None
        self.norm = resolve_norm(norm)
        # panels carry a squared-norm column for l2 and cosine
        self._norm_cols = int(self.norm.is_l2 or self.norm.is_cosine)
        # l2 plans screen Var#1 tiles in float32 (see repro.core.screen)
        self._screens = self.norm.is_l2
        # the panels built with the plan: screen panels for l2, unless
        # the plan names Var#5 or Var#6, whose tiles read float64 ones
        self._cache_screen = self._screens and not _names_dense_variant(
            variant
        )
        self._frame: ScreenFrame | None = None
        self._variant_spec = variant
        block_m, block_n, tuned_switch_k = apply_blocking(
            blocking, block_m, block_n
        )
        if block_m < 1 or block_n < 1:
            raise ValidationError("block_m and block_n must be >= 1")
        self.block_m = int(block_m)
        self.block_n = int(block_n)
        self._switch_k = tuned_switch_k
        self.memory_budget = MemoryBudget.coerce(memory_budget)
        if arena_pool is None:
            arena_pool = (
                ArenaPool(budget=self.memory_budget)
                if self.memory_budget is not None
                else ArenaPool()
            )
        self.arena_pool = arena_pool
        cache_panels = bool(cache_panels)
        if cache_panels and self.memory_budget is not None:
            # Cache panels whole only when they leave at least half the
            # budget for tiles/lists; otherwise stream them per-block
            # from X inside the pass loop (the out-of-core mode — the
            # fused kernel packs panels once per pass, so streaming
            # costs one sequential read per pass, nothing hot).
            if 2 * self._cache_nbytes() > self.memory_budget.limit_bytes:
                cache_panels = False
                registry = _get_registry()
                if registry.enabled:
                    registry.inc("budget.panels_streamed")
        # scratch sets (one per row worker) the budget affords; None: no cap
        self._budget_workers: int | None = None
        if self.memory_budget is not None:
            self.block_m, self.block_n = self._fit_blocks(
                self.block_m, self.block_n
            )
            self._budget_workers = self._fit_workers()
        self._cache_panels = cache_panels
        # cached panels by kind: True for float32 screen panels
        self._panels: dict[bool, list] = {}
        self._panels_nbytes = 0
        self._variant_memo: dict[tuple[int, int], Variant] = {}
        self._lock = threading.Lock()
        self._executes = 0
        self._prev: tuple[np.ndarray, int, KnnResult] | None = None
        if self._cache_panels:
            self._build(self._cache_screen)

    # -- derived shape ---------------------------------------------------------

    @property
    def X(self) -> np.ndarray:
        """The (frozen) coordinate table."""
        return self.table.X

    @property
    def n(self) -> int:
        return self.r_idx.size

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def panels_cached(self) -> bool:
        return bool(self._panels)

    @property
    def streams_panels(self) -> bool:
        """True when reference panels are gathered per-tile per-execute."""
        return not self._cache_panels

    # -- budget fitting --------------------------------------------------------

    def _fit_blocks(self, block_m: int, block_n: int) -> tuple[int, int]:
        """Shrink block sizes until one pass's tile state fits the budget.

        The per-pass footprint a block size controls — the distance tile
        and its survivor mask (:meth:`_cell_nbytes` a ``block_m x
        block_n`` cell) and, when streaming, the gathered depth-major
        panel with its staging rows — must fit *half* the budget; the
        other half is headroom for the O(m) query-side state (the ``Qa``
        rows, the screen operand, neighbor lists) that no block size can
        shrink.
        Halves the larger dimension first, never below 64: results stay
        exact at any block size, only GEMM efficiency trades down.
        Callers comparing runs bit-for-bit should read the fitted sizes
        back from ``plan.block_m`` / ``plan.block_n``.
        """
        share = self.memory_budget.limit_bytes // 2
        d = self.X.shape[1]

        def per_pass(bm: int, bn: int) -> int:
            stream = _stream_nbytes(bn, d, self._screens)
            return bm * bn * self._cell_nbytes() + stream

        fitted_m, fitted_n = int(block_m), int(block_n)
        while per_pass(fitted_m, fitted_n) > share and (
            fitted_m > 64 or fitted_n > 64
        ):
            if fitted_n >= fitted_m and fitted_n > 64:
                fitted_n //= 2
            else:
                fitted_m //= 2
        fitted_m, fitted_n = max(fitted_m, 1), max(fitted_n, 1)
        if (fitted_m, fitted_n) != (block_m, block_n):
            registry = _get_registry()
            if registry.enabled:
                registry.inc("budget.block_autofits")
        return fitted_m, fitted_n

    def _fit_workers(self) -> int:
        """Row workers whose scratch fits half the budget beside a panel.

        Blocks are fitted for one worker first, so the blocking — and
        with it every result bit — never depends on the host's cores.
        Each row worker then needs its own tile and survivor mask,
        ``block_m x block_n x`` :meth:`_cell_nbytes` bytes; the workers
        a budget cannot afford are simply not started. See
        docs/MEMORY.md.
        """
        share = self.memory_budget.limit_bytes // 2
        scratch = self.block_m * self.block_n * self._cell_nbytes()
        stream = _stream_nbytes(self.block_n, self.d, self._screens)
        return max(1, (share - stream) // scratch)

    def _afford_workers(
        self,
        arena,
        m: int,
        k: int,
        panels: int,
        screen: ScreenQueries | None,
        p: int,
    ) -> int:
        """Cap ``p`` at the row workers the budget can still pay for once
        the queries are packed.

        :meth:`_fit_workers` leaves the query side half the budget but
        cannot know ``m``; a long batch's packed queries and lists can
        take more. What the lists, a streamed panel and each worker's
        tile and mask would newly charge — a buffer the arena already
        holds at that size costs nothing — must fit the budget's
        remaining bytes. At least one worker runs (and raises
        :class:`MemoryBudgetError` if even it does not fit).
        """
        m_b = min(m, self.block_m)
        cells = m_b * min(panels * self._panel_n(screen is not None), self.n)
        needs = {
            "lists.values": m * k * 8,
            "lists.ids": m * k * np.dtype(np.intp).itemsize,
            "lists.row_max": m * 8,
            "lists.touched": m,
        }
        if not self._panels.get(screen is not None):  # streamed
            n_b = min(self._panel_n(screen is not None), self.n)
            if screen is not None:
                needs["Ra"] = (self.d + 2) * n_b * 4
            else:
                needs["Ra"] = (self.d + self._norm_cols) * n_b * 8
            needs["Ra.rows"] = min(n_b, self.block_n) * self.d * 8
        left = self.memory_budget.remaining_bytes - arena.shortfall(needs)
        # the mask's bytes, which also hold a merge round (and, for a
        # screen tile, a rescore pair)
        room = max(cells, 16 * (k + 1), 0 if screen is None else 16 * self.d)
        for w in range(p):
            suffix = f"@{w}" if w else ""  # ArenaNeighborLists.worker's keys
            scratch = {
                "tile" + suffix: cells * (8 if screen is None else 4),
                "lists.mask" + suffix: room,
            }
            if self.norm.is_cosine:
                scratch["denom" + suffix] = m_b * self.block_n * 8
                scratch["denom_zero" + suffix] = m_b * self.block_n
            left -= arena.shortfall(scratch)
            if left < 0:
                return max(w, 1)
        return p

    def _panel_n(self, screen: bool) -> int:
        """Columns of a panel: ``2 block_n`` for float32 screen panels.

        A float32 screen tile of ``block_m x 2 block_n`` takes the bytes
        of a float64 ``block_m x block_n`` one and halves the
        selections per candidate.
        """
        return 2 * self.block_n if screen else self.block_n

    def _cell_nbytes(self) -> int:
        """A row worker's tile bytes per ``block_m x block_n`` cell.

        9 for a float64 tile and its survivor mask; 10 for l2, whose
        float32 screen tile is ``2 block_n`` wide (4 bytes and a mask
        byte per candidate, the mask's bytes then holding the rescore
        and merge scratch); 18 for cosine, which adds a denominator tile
        and its zero mask.
        """
        if self.norm.is_cosine:
            return 18
        return 10 if self._screens else 9

    # -- panels ----------------------------------------------------------------

    def _cache_nbytes(self) -> int:
        """Bytes of the panels a plan caches when built (float32 for l2)."""
        if self._cache_screen:
            return self.n * (self.d + 2) * 4
        return self.n * (self.d + self._norm_cols) * 8

    def _screen_frame(self) -> ScreenFrame:
        """The plan's screen frame, from one pass over its references.

        Caching screen panels lowers its ``rho`` to theirs (:meth:`_build`).
        """
        if self._frame is None:
            # two threads racing here compute the same frame; either wins
            self._frame = ScreenFrame.of_references(
                self.X, self.r_idx, self.block_n, in_order=self._in_order
            )
        return self._frame

    def _build(self, screen: bool) -> list:
        """Gather, cache and return one kind of the 6th loop's panels.

        ``screen`` builds float32 screen panels, and lowers the frame's
        ``rho`` to their largest ``s |r - c|``; otherwise float64
        ``[Rc | R2c]^T`` ones. A plan released meanwhile keeps nothing.
        """
        registry = _get_registry()
        with _trace.span(
            "plan.build", n=self.n, d=self.d, block_n=self.block_n
        ):
            rows = np.empty((min(self.n, self.block_n), self.d), np.float64)
            frame = self._screen_frame() if screen else None
            panels, rho = [], 0.0
            for j_c, n_b in iter_blocks(self.n, self._panel_n(screen)):
                r_block = self.r_idx[j_c : j_c + n_b]
                if screen:
                    RaT = np.empty((self.d + 2, n_b), np.float32)
                    rho = max(rho, frame.gather(self.X, r_block, RaT, rows))
                else:
                    RaT = np.empty((self.d + self._norm_cols, n_b), np.float64)
                    self._gather_panel(r_block, RaT, rows[:n_b])
                panels.append((j_c, n_b, RaT))
            if screen:
                frame.rho = rho
            panel_nbytes = sum(RaT.nbytes for _, _, RaT in panels)
        with self._lock:
            if not self._cache_panels:
                return panels
            cached = self._panels.setdefault(screen, panels)
            if cached is panels and self.memory_budget is not None:
                self.memory_budget.reserve(panel_nbytes, site="plan.panels")
                self._panels_nbytes += panel_nbytes
        if registry.enabled:
            registry.inc("plan.builds")
        return cached

    def release(self) -> None:
        """Drop cached panels and return their bytes to the budget.

        A released plan stays usable — panels are simply re-gathered
        per block on later executes, and never cached again.
        :class:`PlanCache` calls this on eviction so a budgeted plan's
        charge never outlives its cache entry.
        """
        with self._lock:
            if self.memory_budget is not None and self._panels_nbytes:
                self.memory_budget.release(self._panels_nbytes)
                self._panels_nbytes = 0
            self._cache_panels = False
            self._panels = {}
            self._prev = None

    # -- variant resolution ----------------------------------------------------

    def _resolve_variant(
        self, m: int, k: int, variant: int | str | Variant | None
    ) -> Variant:
        spec = self._variant_spec if variant is None else variant
        memo_key = (m, k) if variant is None else None
        if memo_key is not None:
            memo = self._variant_memo.get(memo_key)
            if memo is not None:
                return memo
        var, inferred = decide_variant(
            spec, m, self.n, self.d, k, switch_k=self._switch_k
        )
        if var not in (Variant.VAR1, Variant.VAR5, Variant.VAR6):
            raise ValidationError(
                f"Var#{int(var)} is not executable: {VARIANT_INFO[var].notes}"
            )
        if self.memory_budget is not None:
            var = self._budget_variant(var, m, inferred)
        if memo_key is not None:
            self._variant_memo[memo_key] = var
        return var

    def _budget_variant(self, var: Variant, m: int, inferred: bool) -> Variant:
        """Veto Var#6 when its intermediates cannot fit the budget.

        Var#6 materializes the full (m, n) scores matrix plus an
        equally-sized argpartition index array — ``2 m n 8`` bytes no
        budget-aware blocking can shrink. An *inferred* choice (see
        :func:`~repro.tune.decision.decide_variant`) is deflected to the
        blocked Var#1, which computes the same answer in O(block) space;
        an explicit ``variant=6`` is refused.
        """
        if var is not Variant.VAR6:
            return var
        var6_nbytes = 2 * m * self.n * 8
        if var6_nbytes <= self.memory_budget.limit_bytes:
            return var
        if not inferred:
            raise MemoryBudgetError(
                f"variant 6 needs ~{var6_nbytes} bytes for its "
                f"(m={m}, n={self.n}) scores matrix, over the "
                f"{self.memory_budget.limit_bytes}-byte budget; "
                "use variant 1/5 or raise the budget",
                limit=self.memory_budget.limit_bytes,
                requested=var6_nbytes,
                used=self.memory_budget.used_bytes,
                site="plan.variant#6",
            )
        registry = _get_registry()
        if registry.enabled:
            registry.inc("budget.variant_downgrades")
        return Variant.VAR1

    # -- execution -------------------------------------------------------------

    def execute(
        self,
        q_idx: np.ndarray,
        k: int,
        *,
        initial: KnnResult | None = None,
        warm_start: bool = True,
        variant: int | str | Variant | None = None,
        return_stats: bool = False,
        validate: bool = True,
    ) -> KnnResult | tuple[KnnResult, GsknnStats]:
        """Solve ``k`` nearest neighbors of ``X[q_idx]`` among the plan's refs.

        With ``warm_start`` (default), a repeat of the previous call's
        exact ``(q_idx, k)`` reuses its result to seed the root filter —
        lossless, and when nothing in the reference set beats it the
        call returns without selection work. Pass ``initial`` to seed
        from caller-held lists instead (the kernel's update semantics).
        """
        if validate:
            q_idx = as_index_array(q_idx, self.X.shape[0], name="q_idx")
            k = check_k(k, self.r_idx.size)
            if initial is not None and initial.distances.shape != (
                q_idx.size,
                k,
            ):
                raise ValidationError(
                    f"initial lists must be shape ({q_idx.size}, {k}), got "
                    f"{initial.distances.shape}"
                )
        else:
            q_idx = np.asarray(q_idx, dtype=np.intp)
        self.table.check()
        registry = _get_registry()
        auto_warm = False
        if initial is None and warm_start:
            with self._lock:
                prev = self._prev
            if (
                prev is not None
                and prev[1] == k
                and prev[0].shape == q_idx.shape
                and np.array_equal(prev[0], q_idx)
            ):
                initial = prev[2]
                auto_warm = True
        var = self._resolve_variant(q_idx.size, k, variant)
        m = q_idx.size
        stats = GsknnStats(variant=var, m=m, n=self.n, d=self.d)
        with self._lock:
            first = self._executes == 0
            self._executes += 1
        t0 = time.perf_counter()
        with _trace.span(
            "plan.execute",
            variant=int(var),
            m=m,
            n=self.n,
            d=self.d,
            k=k,
            warm=initial is not None,
        ):
            with self.arena_pool.borrow() as arena:
                result = self._execute_impl(
                    q_idx, k, var, initial, arena, stats
                )
        if warm_start:
            with self._lock:
                self._prev = (np.array(q_idx, copy=True), k, result)
        if registry.enabled:
            registry.inc("plan.executes")
            if not first:
                registry.inc("plan.reuse_hits")
            if auto_warm:
                registry.inc("plan.warm_starts")
        _record_kernel_stats(stats, k, t0)
        if return_stats:
            return result, stats
        return result

    def execute_rows(
        self,
        Q: np.ndarray,
        k: int,
        *,
        variant: int | str | Variant | None = None,
        return_stats: bool = False,
        validate: bool = True,
    ) -> KnnResult | tuple[KnnResult, GsknnStats]:
        """Solve ``k`` nearest neighbors of *literal query rows* ``Q``.

        The serving front-end's path for requests that carry query
        coordinates instead of table indices (the production shape: the
        query embedding is usually not a row of the reference table).
        Everything the plan amortizes — cached reference panels, the
        norm side table, blocking and variant resolution, the workspace
        arena — is reused; only the query gather is replaced by the
        caller-provided ``(m, d)`` rows. No warm-start: row identity is
        not tracked across calls.
        """
        Q = np.ascontiguousarray(np.asarray(Q), dtype=np.float64)
        if validate:
            if Q.ndim != 2 or Q.shape[1] != self.d:
                raise ValidationError(
                    f"Q must be 2-D with {self.d} columns to match the "
                    f"plan's table, got shape {Q.shape}"
                )
            if Q.shape[0] == 0:
                raise ValidationError("Q must have at least one query row")
            check_finite(Q, name="Q")
            k = check_k(k, self.r_idx.size)
        self.table.check()
        registry = _get_registry()
        m = Q.shape[0]
        var = self._resolve_variant(m, k, variant)
        stats = GsknnStats(variant=var, m=m, n=self.n, d=self.d)
        with self._lock:
            first = self._executes == 0
            self._executes += 1
        t0 = time.perf_counter()
        with _trace.span(
            "plan.execute",
            variant=int(var),
            m=m,
            n=self.n,
            d=self.d,
            k=k,
            warm=False,
            rows=True,
        ):
            with self.arena_pool.borrow() as arena:
                packed = self._pack_queries(Q, None, var, arena)
                result = self._dispatch(*packed, k, var, None, arena, stats)
        if registry.enabled:
            registry.inc("plan.executes")
            registry.inc("plan.row_executes")
            if not first:
                registry.inc("plan.reuse_hits")
        _record_kernel_stats(stats, k, t0)
        if return_stats:
            return result, stats
        return result

    def _execute_impl(
        self,
        q_idx: np.ndarray,
        k: int,
        var: Variant,
        initial: KnnResult | None,
        arena,
        stats: GsknnStats,
    ) -> KnnResult:
        """The loop nest shared by plan executes and one-shot kernel calls.

        Emits the kernel's span tree (``pack``/``rank_update``/``heap``);
        the caller owns the root span (``gsknn`` or ``plan.execute``).
        """
        packed = self._pack_queries(None, q_idx, var, arena)
        return self._dispatch(*packed, k, var, initial, arena, stats)

    def _pack_queries(
        self,
        rows: np.ndarray | None,
        q_idx: np.ndarray | None,
        var: Variant,
        arena,
    ) -> tuple[np.ndarray | None, np.ndarray | None, ScreenQueries | None]:
        """Pack the query block into the arena; returns ``(Q, Q2, screen)``.

        Copies the literal ``rows``, or gathers ``X[q_idx]`` when ``rows``
        is None. An l2 Var#1 block is only its float32 screen operand
        ``[-2 (Q - c) s | 1 | -o]`` (``screen``, with ``Q2``), built a few
        rows at a time; its rescore reads the rows again by id, so no
        float64 block is kept (``Q`` is None). For Var#5's folded l2
        tile the block is ``Qa = [-2Q | 1]``: ``Q2`` is taken from the
        unscaled rows (or ``X2``) first, and the ``x -2`` is exact, so
        folding changes no input bit. Var#6 and the other norms get
        plain ``Q``.
        """
        d = self.d
        m = q_idx.size if rows is None else rows.shape[0]
        if self.norm.is_l2 and var is Variant.VAR1:
            if rows is None:
                source, ids, X2 = self.X, q_idx, self.table.X2
            else:
                source, ids, X2 = rows, np.arange(m), None
            with _trace.span("pack", which="Q", rows=m):
                screen = ScreenQueries(
                    self._screen_frame(), source, ids, X2, arena
                )
            return None, screen.q2, screen
        fold = int(self.norm.is_l2 and var is not Variant.VAR6)
        with _trace.span("pack", which="Q", rows=m):
            buf = arena.take_c("Q", (m, d + fold), np.float64)
            Q = buf[:, :d]
            if rows is None:
                np.take(self.X, q_idx, axis=0, out=Q)
            else:
                Q[...] = rows
            Q2 = None
            if self._norm_cols:
                X2 = self.table.X2
                if X2 is not None and rows is None:
                    Q2 = X2[q_idx]
                else:
                    Q2 = arena.take_c("Q2", (m,), np.float64)
                    np.einsum("ij,ij->i", Q, Q, out=Q2)
            if fold:
                np.multiply(Q, -2.0, out=Q)
                buf[:, d] = 1.0
        return buf, Q2, None

    def _dispatch(
        self,
        Q: np.ndarray | None,
        Q2: np.ndarray | None,
        screen: ScreenQueries | None,
        k: int,
        var: Variant,
        initial: KnnResult | None,
        arena,
        stats: GsknnStats,
    ) -> KnnResult:
        """Run the variant's loop nest with its row blocks on the workers.

        The worker count and its inputs are recorded on the caller's root
        span (``gsknn`` or ``plan.execute``); see :mod:`repro.core.workers`.
        """
        m = Q.shape[0] if screen is None else screen.ids.size
        blocks = list(iter_blocks(m, self.block_m))
        p, attrs = row_workers(len(blocks), self._budget_workers)
        # a batch shorter than block_m is one row block; its tiles take
        # block_m // m panels, so each holds about block_m x block_n
        # candidates (Var#6 keeps its (block_m, n_b) score tiles), or
        # twice that in a float32 screen tile
        panels = 1 if var is Variant.VAR6 else max(1, self.block_m // m)
        if p > 1 and self.memory_budget is not None and var is not Variant.VAR6:
            p = self._afford_workers(arena, m, k, panels, screen, p)
            attrs["workers"] = p
        # strided bins cutting each row block's first (cold) Var#1 tile;
        # 0 where no cut forms and those rows keep every candidate
        bins = 0
        if var is Variant.VAR1:
            width = self._panel_n(screen is not None)
            bins = cut_bins(k, min(panels * width, self.n))
        _trace.get_tracer().annotate(
            **attrs, panels_per_tile=panels, cut_bins=bins,
            screen_dtype="float64" if screen is None else "float32",
        )
        with RowWorkers(blocks, p) as workers:
            if var is Variant.VAR6:
                result = self._run_var6(Q, Q2, k, stats, arena, workers)
                shortcut = False
            else:
                result, shortcut = self._run_blocked(
                    Q, Q2, screen, k, var is Variant.VAR1, initial, arena,
                    stats, workers, panels,
                )
        if initial is not None and not shortcut:
            with _trace.span("heap", stage="warm_merge"):
                result = merge_neighbor_lists_fast(result, initial)
        return result

    def _iter_panels(self, arena, screen: bool = False):
        """Yield ``(j_c, n_b, RaT)`` — cached or streamed.

        ``screen`` asks for an l2 plan's float32 screen panels (see
        :mod:`repro.core.screen`); otherwise the panels are float64
        ``[Rc | R2c]^T``. A cached plan builds the kind it was made for
        (:meth:`_build`), and an unbudgeted one each other kind on its
        first use, so an l2 plan that also runs Var#5 or Var#6 keeps
        both. A budgeted plan, whose budget was sized for one kind,
        streams the other. An uncached plan (one-shot, budgeted, or
        released)
        *streams*: each pass's panels are gathered into one reusable
        arena buffer by the same code the cached build uses, so a
        memmapped table is read one sequential panel at a time, steady-
        state executes allocate nothing, and streamed results stay
        bit-identical to cached ones.
        """
        panels = self._panels.get(screen)
        if panels is None and self._cache_panels and self.memory_budget is None:
            panels = self._build(screen)
        if panels is not None:
            yield from panels
            return
        frame = self._screen_frame() if screen else None
        for j_c, n_b in iter_blocks(self.n, self._panel_n(screen)):
            r_block = self.r_idx[j_c : j_c + n_b]
            with _trace.span("pack", which="R", rows=n_b, j_c=j_c):
                rows = arena.take_c(
                    "Ra.rows", (min(n_b, self.block_n), self.d), np.float64
                )
                if screen:
                    RaT = arena.take_c("Ra", (self.d + 2, n_b), np.float32)
                    frame.gather(self.X, r_block, RaT, rows)
                else:
                    RaT = arena.take_c(
                        "Ra", (self.d + self._norm_cols, n_b), np.float64
                    )
                    self._gather_panel(r_block, RaT, rows)
            yield j_c, n_b, RaT

    def _gather_panel(
        self, r_block: np.ndarray, RaT: np.ndarray, rows: np.ndarray
    ) -> None:
        """Gather ``[X[r_block] | r2]^T`` into ``RaT``, staged through ``rows``.

        ``RaT`` is the C-contiguous ``(d + norm_cols, n_b)`` depth-major
        panel; ``r2`` is its squared-norm row (from ``X2`` when given),
        present for l2 and cosine only. ``np.take`` gathers whole table
        rows into the contiguous ``rows``, which are then transposed into
        the panel in one copy. ``r_idx`` is bounds-checked before a plan
        is built, so ``mode="clip"`` — the mode numpy does not buffer —
        never clips.
        """
        Rc, R2c = self._panel_views(RaT)
        np.take(self.X, r_block, axis=0, out=rows, mode="clip")
        Rc[...] = rows
        if R2c is not None:
            X2 = self.table.X2
            if X2 is not None:
                R2c[...] = X2[r_block]
            else:
                np.einsum("ij,ij->i", rows, rows, out=R2c)

    def _panel_views(
        self, RaT: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """``(Rc, R2c)`` views of a float64 ``[Rc | R2c]^T`` panel.

        ``Rc`` is ``(n_b, d)`` and F-ordered, so ``Rc.T`` is the panel's
        C-contiguous coordinate rows: the untransposed B operand.
        """
        R2c = RaT[self.d] if self._norm_cols else None
        return RaT[: self.d].T, R2c

    def _run_blocked(
        self,
        Q: np.ndarray,
        Q2: np.ndarray | None,
        screen: ScreenQueries | None,
        k: int,
        use_filter: bool,
        initial: KnnResult | None,
        arena,
        stats: GsknnStats,
        workers: RowWorkers,
        panels: int,
    ) -> tuple[KnnResult, bool]:
        """Var#1 (root-filtered) / Var#5 (slab) fused path.

        A tile is ``panels`` consecutive reference panels wide (more than
        one only for a batch of a single row block, see :meth:`_dispatch`).
        Each panel's GEMM writes its own column slice of the tile, with the
        operands and shape a one-panel tile would use; the tile is
        selected once its last panel is in. With ``screen`` (l2 Var#1)
        the tile is the float32 screen of :mod:`repro.core.screen` and
        survivors are rescored pair by pair, so every distance depends
        on its pair alone; other tiles keep their bits at equal blocking.
        Per panel, worker ``w`` runs the row blocks ``workers.runs[w]``
        through its own view of the lists. Returns ``(result, merged)``
        where ``merged`` means ``result`` already accounts for
        ``initial`` (the warm zero-survivor fast path fired, or the seed
        was folded into the lists) and must not be merged with it again.
        """
        m = Q.shape[0] if screen is None else screen.ids.size
        lists = ArenaNeighborLists(m, k, arena, wholesale=not use_filter)
        folded = False
        if use_filter and initial is not None:
            finite = np.isfinite(initial.distances)
            # Folding is lossless only when each reference id appears
            # once: the fold dedups candidates against the retained list,
            # not two copies of one id inside a tile. With repeats, the
            # final dedup-merge keeps each id once instead.
            if self._refs_unique() and finite.all():
                # Fold the seed into the lists themselves: every update
                # then merges candidates directly against it (with id
                # dedup), and the final warm-merge pass disappears.
                lists.seed(initial.distances, initial.indices)
                folded = True
            elif self._refs_unique() and not finite.any():
                # an empty seed (all +inf) can never change the answer;
                # skip the identity merge too
                folded = True
            else:
                # a complete seed row filters from its first tile; a
                # partly-filled one (max +inf) is cut by bins like a
                # cold row
                lists.row_max[:] = initial.distances.max(axis=1)

        fold = self.norm.is_l2
        tile_dtype = np.float64 if screen is None else np.float32
        views = [lists.worker(w) for w in range(workers.p)]
        tracer = _trace.get_tracer()
        parent = tracer.current_span_id()
        tile_cols = panels * self._panel_n(screen is not None)

        def update_rows(w: int, panel: tuple) -> None:
            j_c, n_b, RaT = panel
            first = j_c - j_c % tile_cols  # the tile's first column
            width = min(tile_cols, self.n - first)
            cols = slice(j_c - first, j_c - first + n_b)
            last = cols.stop == width  # this panel completes the tile
            view = views[w]
            for i_c, m_b in workers.runs[w]:  # 4th loop
                q2c = Q2[i_c : i_c + m_b] if Q2 is not None else None
                with tracer.span_under(
                    parent, "rank_update", rows=m_b, cols=n_b
                ):
                    # the shape is fixed within a tile, so every panel of
                    # it gets the same buffer
                    tile = arena.take_c(
                        "tile" + view.scratch, (m_b, width), tile_dtype
                    )
                    if screen is not None:
                        rows = slice(i_c, i_c + m_b)
                        if cols.start == 0:
                            # the rows' cuts from the thresholds before
                            # this tile, folded into the sgemm
                            screen.fold_cuts(rows, view.row_max[rows])
                        # [-2 (Q - c) s | 1 | -o] @
                        # [(R - c) s | |R - c|^2 s^2 | 1]^T: one sgemm
                        # writes the float32 screen tile less the cuts
                        np.matmul(screen.Q32[rows], RaT, out=tile[:, cols])
                    elif fold:
                        # Q is [-2Q | 1] and RaT is [R | r2]^T: one GEMM,
                        # its B operand untransposed, writes the raw tile
                        # r2 - 2q.r
                        np.matmul(Q[i_c : i_c + m_b], RaT, out=tile[:, cols])
                    else:
                        self._tile_into_arena(
                            Q[i_c : i_c + m_b], q2c, RaT, arena,
                            view.scratch, tile[:, cols],
                        )
                if not last:
                    continue
                r_tile = self.r_idx[first : first + width]
                with tracer.span_under(parent, "heap", rows=m_b, cols=width):
                    if screen is not None:
                        tile_screen = TileScreen(
                            screen, rows, self.X, self.table.X2
                        )
                        view.update(i_c, tile, r_tile, screen=tile_screen)
                    else:
                        if fold:  # Var#5: finish the whole tile
                            finalize_sq_l2(tile, q2c)
                        view.update(i_c, tile, r_tile)

        for panel in self._iter_panels(arena, screen is not None):  # 6th loop
            workers.run(lambda w: update_rows(w, panel))
            # blocks count block_n-wide panels, whatever a panel spans
            stats.blocks += workers.row_blocks * -(-panel[1] // self.block_n)
        lists.absorb(views)
        if screen is not None and tracer.enabled:
            tracer.annotate(
                screen_rescored=lists.stats.candidates_rescored,
                screen_widening=screen.widening(lists.row_max),
            )
        stats.candidates_offered = lists.stats.candidates_offered
        stats.candidates_discarded = (
            lists.stats.candidates_offered - lists.stats.candidates_surviving
        )
        if (
            use_filter
            and initial is not None
            and lists.stats.rows_merged == 0
            and not lists._seed_dirty
            and initial.is_sorted()
        ):
            # Warm zero-survivor fast path: no candidate anywhere beat the
            # seeded thresholds, so the merged answer IS the initial lists —
            # skip the final sort and the merge entirely. Returned arrays
            # are fresh copies so callers never alias their own input.
            registry = _get_registry()
            if registry.enabled:
                registry.inc("plan.unchanged_returns")
            return (
                KnnResult(
                    initial.distances.copy(), initial.indices.copy()
                ),
                True,
            )
        with _trace.span("heap", stage="final_sort"):
            dist, idx = lists.sorted()
        return KnnResult(dist, idx), folded

    def _refs_unique(self) -> bool:
        """True when no reference id repeats (computed once per plan)."""
        if self._r_unique is None:
            self._r_unique = bool(np.unique(self.r_idx).size == self.n)
        return self._r_unique

    def _run_var6(
        self,
        Q: np.ndarray,
        Q2: np.ndarray | None,
        k: int,
        stats: GsknnStats,
        arena,
        workers: RowWorkers,
    ) -> KnnResult:
        """Var#6: materialize the full ``m x n`` matrix, select at the end.

        Scores are computed per fixed ``(block_m, n_b)`` tile, like
        Var#1's (a GEMM split by rows is not bit-stable, so the tile is
        the unit whatever the worker count), and each worker then
        selects the rows of its own blocks. The final sort is numpy's
        default (SIMD on x86), about 4x faster than a stable one at
        large k; exact ties may list their ids in any fixed order.
        """
        m, n = Q.shape[0], self.n
        r_idx = self.r_idx
        if self.memory_budget is not None and n > self.block_n:
            # route the scores matrix through the arena so its bytes are
            # charged (and the variant guard already vetoed any (m, n)
            # that cannot fit)
            C = arena.take_c("var6_scores", (m, n), np.float64)
        else:
            C = np.empty((m, n), dtype=np.float64)
        tracer = _trace.get_tracer()
        parent = tracer.current_span_id()

        def score_rows(w: int, panel: tuple) -> None:
            j_c, n_b, RaT = panel
            Rc, R2c = self._panel_views(RaT)
            for i_c, m_b in workers.runs[w]:
                rows = slice(i_c, i_c + m_b)
                q2b = None if Q2 is None else Q2[rows]
                out = C[rows, j_c : j_c + n_b]
                with tracer.span_under(
                    parent, "rank_update", rows=m_b, cols=n_b
                ):
                    if self.norm.is_l2:
                        # pairwise_sq_l2's operations, written in place
                        np.matmul(Q[rows], Rc.T, out=out)
                        out *= -2.0
                        out += q2b[:, None]
                        out += R2c[None, :]
                        np.maximum(out, 0.0, out=out)
                    else:
                        out[...] = pairwise_block(
                            Q[rows], Rc, self.norm, q2b, R2c
                        )

        for panel in self._iter_panels(arena):
            workers.run(lambda w: score_rows(w, panel))
            stats.blocks += workers.row_blocks
        stats.candidates_offered = m * n

        parts: list = [None] * workers.p

        def select_rows(w: int) -> None:
            Cw = C[workers.rows(w)]
            span = tracer.span_under(
                parent, "heap", stage="full_select", rows=len(Cw), cols=n
            )
            with span:
                if k < n:
                    part = np.argpartition(Cw, k - 1, axis=1)[:, :k]
                else:
                    part = np.broadcast_to(np.arange(n), Cw.shape).copy()
                rows = np.arange(len(Cw))[:, None]
                best = Cw[rows, part]
                order = np.argsort(best, axis=1)
                parts[w] = (best[rows, order], r_idx[part[rows, order]])

        workers.run(select_rows)
        if len(parts) == 1:
            return KnnResult(*parts[0])
        return KnnResult(
            np.concatenate([dist for dist, _ in parts]),
            np.concatenate([idx for _, idx in parts]),
        )

    def _tile_into_arena(
        self,
        Qb: np.ndarray,
        q2c: np.ndarray | None,
        RaT: np.ndarray,
        arena,
        scratch: str,
        T: np.ndarray,
    ) -> None:
        """One cosine or general-``p`` panel's distances, written into ``T``.

        Operation-for-operation the same floating-point sequence as
        :func:`repro.core.norms.pairwise_block` — only the destination
        changes — so plan results stay bit-identical to it. (l2 tiles
        are one folded GEMM in :meth:`_run_blocked`.) ``T`` is the
        panel's column slice of the tile; ``scratch`` is the row worker's
        arena-key suffix for the cosine denominators.
        """
        norm = self.norm
        Rc, R2c = self._panel_views(RaT)
        m_b, n_b = T.shape
        if norm.is_cosine:
            D = arena.take_c("denom" + scratch, (m_b, n_b), np.float64)
            np.multiply(q2c[:, None], R2c[None, :], out=D)
            np.maximum(D, 0.0, out=D)
            np.sqrt(D, out=D)
            np.matmul(Qb, Rc.T, out=T)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(T, D, out=T)
            Z = arena.take_c("denom_zero" + scratch, (m_b, n_b), np.bool_)
            np.less_equal(D, 0.0, out=Z)
            T[Z] = 0.0
            np.clip(T, -1.0, 1.0, out=T)
            np.subtract(1.0, T, out=T)
            return
        # General lp: the O(m_b n_b d) broadcast differences stay ephemeral
        # (matching the one-shot path's footprint); only the reduced tile
        # lives in the arena, finalized in place via finalize_tile's out=
        # path (which eliminates the l1/l-inf copy). They are formed
        # C-ordered, as pairwise_lp forms them: numpy would lay them out
        # after the F-ordered Rc, and the sums would change order.
        diff = np.subtract(Qb[:, None, :], Rc[None, :, :], order="C")
        np.abs(diff, out=diff)
        if norm.is_linf:
            np.max(diff, axis=2, out=T)
        elif norm.p == 1.0:
            np.sum(diff, axis=2, out=T)
        else:
            np.sum(np.power(diff, norm.p), axis=2, out=T)
        finalize_tile(T, None, None, norm, out=T)


def _names_dense_variant(spec) -> bool:
    """True when ``spec`` names Var#5 or Var#6, not a rule like ``"auto"``."""
    if isinstance(spec, str) and spec.lower() in ("auto", "model", "paper"):
        return False
    try:
        return resolve_variant(spec) in (Variant.VAR5, Variant.VAR6)
    except ValidationError:
        return False  # refused when the plan executes it


def _stream_nbytes(block_n: int, d: int, screens: bool = False) -> int:
    """Bytes of one streamed panel plus its staged float64 rows.

    A float64 ``[Rc | R2c]^T`` panel; with ``screens`` (an l2 plan)
    also a float32 screen panel ``2 block_n`` wide, staged ``block_n``
    rows at a time, whichever is larger.
    """
    nbytes = block_n * (2 * d + 1) * 8
    if screens:
        nbytes = max(nbytes, block_n * (8 * d + 8 * (d + 2)))
    return nbytes


def _record_kernel_stats(stats: GsknnStats, k: int, t0: float) -> None:
    """Absorb one solve's counters and efficiency into the registry."""
    registry = _get_registry()
    if not registry.enabled:
        return
    from ..obs.adapters import absorb_gsknn_stats
    from ..obs.efficiency import record_solve_efficiency

    absorb_gsknn_stats(stats, registry)
    record_solve_efficiency(
        stats.m, stats.n, stats.d, k, int(stats.variant),
        time.perf_counter() - t0,
        scope="kernel", registry=registry,
    )


class PlanCache:
    """LRU cache of :class:`GsknnPlan` keyed by table handle + reference set.

    The drivers' entry point for plan reuse: ``get`` returns an existing
    plan when the same :class:`~repro.core.table.TableHandle` and the
    same reference set were seen before, and builds one otherwise.

    * :data:`~repro.core.table.ALL_ROWS` keys on the handle alone, so a
      long-lived owner's lookup (the serving front-end's) is one dict
      hit plus the handle's O(1) :meth:`~repro.core.table.TableHandle.check`.
    * An explicit id array keys on its content (CRC-keyed, then verified
      with ``np.array_equal`` so a hash collision can never alias two
      reference sets) — cheap at leaf and bucket sizes, and how
      recurring leaves and buckets find their plans.

    A bare array is wrapped in an owned handle on a miss, which freezes
    it; later lookups with the same array object hit. (An array the
    handle had to copy — a view over a writeable base — is never cached:
    its contents could still change.) All plans share one workspace
    :class:`~repro.core.arena.ArenaPool`, so even cache *misses* reuse
    tile buffers. Entries hold strong references to the table they were
    keyed on, so an entry's ``id`` cannot be recycled while it lives.
    """

    def __init__(
        self, max_plans: int = 16, arena_pool: ArenaPool | None = None
    ) -> None:
        if max_plans < 1:
            raise ValidationError(f"max_plans must be >= 1, got {max_plans}")
        self.max_plans = int(max_plans)
        self._lock = threading.Lock()
        # key -> (the table object the key's id names, plan)
        self._plans: OrderedDict[tuple, tuple[object, GsknnPlan]] = OrderedDict()
        self._pool = arena_pool if arena_pool is not None else ArenaPool()

    @staticmethod
    def _blocking_key(blocking):
        if blocking is None:
            return None
        if isinstance(blocking, str):
            return blocking.lower()
        try:
            return (
                int(blocking.block_m),
                int(blocking.block_n),
                int(blocking.switch_k),
            )
        except AttributeError:
            raise ValidationError(
                f"blocking must be 'tuned', 'default', None, or a "
                f"TunedConfig, got {blocking!r}"
            ) from None

    def get(
        self,
        table: TableHandle | np.ndarray,
        r_idx,
        *,
        norm: str | float | Norm = "l2",
        variant: int | str | Variant = "auto",
        block_m: int = DEFAULT_BLOCK_M,
        block_n: int = DEFAULT_BLOCK_N,
        blocking: str | object | None = None,
        memory_budget: MemoryBudget | int | str | None = None,
    ) -> GsknnPlan:
        if r_idx is ALL_ROWS:
            r = r_key = ALL_ROWS
        else:
            r = np.asarray(r_idx, dtype=np.intp)
            r_key = (int(r.size), zlib.crc32(np.ascontiguousarray(r).tobytes()))
        norm_obj = resolve_norm(norm)
        var_key = variant.lower() if isinstance(variant, str) else int(variant)
        budget = MemoryBudget.coerce(memory_budget)
        key = (
            id(table),
            r_key,
            norm_obj,
            var_key,
            int(block_m),
            int(block_n),
            self._blocking_key(blocking),
            None if budget is None else budget.limit_bytes,
        )
        registry = _get_registry()
        with self._lock:
            entry = self._plans.get(key)
            if entry is not None:
                source, plan = entry
                if source is table and (
                    r is ALL_ROWS or np.array_equal(plan.r_idx, r)
                ):
                    self._plans.move_to_end(key)
                    hit = plan
                else:
                    del self._plans[key]
                    hit = None
            else:
                hit = None
        if hit is not None:
            hit.table.check()
            if registry.enabled:
                registry.inc("plan.cache_hits")
            return hit
        plan = GsknnPlan(
            table,
            r,
            norm=norm_obj,
            variant=variant,
            block_m=block_m,
            block_n=block_n,
            blocking=blocking,
            # a budgeted plan gets its own budget-charging pool — the
            # shared pool's arenas are uncapped by design
            arena_pool=self._pool if budget is None else None,
            memory_budget=budget,
        )
        if registry.enabled:
            registry.inc("plan.cache_misses")
        if not isinstance(table, TableHandle) and plan.X is not table:
            return plan
        evicted = []
        with self._lock:
            self._plans[key] = (table, plan)
            self._plans.move_to_end(key)
            while len(self._plans) > self.max_plans:
                evicted.append(self._plans.popitem(last=False)[1][1])
        for old in evicted:
            if old.memory_budget is not None:
                # return the evicted plan's cached-panel bytes to its
                # budget; the plan itself stays usable (uncached path)
                old.release()
        return plan

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def clear(self) -> None:
        with self._lock:
            dropped = [plan for _, plan in self._plans.values()]
            self._plans.clear()
        for old in dropped:
            if old.memory_budget is not None:
                old.release()
