"""Data-parallel GSKNN: parallelizing inside one kernel (paper §2.5).

The paper parallelizes the 4th loop (query blocks): every ``m_c`` block
of queries goes to one core, each core packs a private ``Q_c`` into its
private L2 while the shared ``R_c`` lives in the shared L3. That
decomposition is race-free because a query's neighbor list is touched
by exactly one core.

Parallelizing the *reference* side (3rd/6th loops) would race on the
shared neighbor lists; the paper's footnote resolves it with
per-thread private heaps merged afterwards. Both schemes are
implemented, the second mainly to demonstrate (and test) the merge
resolution.

*Where* the query chunks execute is delegated to an
:class:`~repro.parallel.backends.ExecutionBackend`: ``threads`` (the
default — BLAS blocks release the GIL, so Var#6-heavy work overlaps),
``processes`` (zero-copy shared-memory workers — escapes the GIL for
the selection-heavy Var#1 regime), or ``serial`` (the bit-exact
reference). All backends consume the same chunk list, so results are
identical across them by construction. Every solve runs its chunks
through the one retry/fallback loop,
:func:`repro.resilience.executor.run_ladder`: a plain call on the
backend's rung alone for one attempt, a resilient call down the whole
``processes -> threads -> serial`` ladder.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..config import DEFAULT_BLOCK_M, DEFAULT_BLOCK_N
from ..errors import ValidationError
from ..core.gsknn import gsknn, _resolve_auto_variant
from ..core.neighbors import KnnResult, merge_neighbor_lists
from ..core.norms import Norm
from ..core.table import as_table
from ..core.workers import serial_kernels
from ..obs import trace as _trace
from ..obs.context import coerce_request, current_request, request_scope
from ..obs.efficiency import record_solve_efficiency
from ..obs.metrics import get_registry as _get_registry
from .backends import ExecutionBackend, resolve_backend
from .chunking import contiguous_chunks, resolve_workers

__all__ = ["gsknn_data_parallel", "gsknn_reference_parallel"]


def gsknn_data_parallel(
    X: np.ndarray,
    q_idx: np.ndarray,
    r_idx: np.ndarray,
    k: int,
    *,
    p: int | str = 2,
    norm: str | float | Norm = "l2",
    variant: int | str = "auto",
    block_m: int = DEFAULT_BLOCK_M,
    block_n: int = DEFAULT_BLOCK_N,
    backend: str | ExecutionBackend = "threads",
    chunks_per_worker: int = 1,
    X2: np.ndarray | None = None,
    deadline=None,
    retry=None,
    fault_plan=None,
    request=None,
    memory_budget=None,
) -> KnnResult:
    """4th-loop (query-side) parallel GSKNN over ``p`` workers.

    Results are identical to the serial kernel — queries are
    partitioned, never shared — and identical *across backends*: all
    three execute the same chunk decomposition. ``p`` may be ``"auto"``
    (the host's core count); ``chunks_per_worker > 1`` over-decomposes
    (``p * chunks_per_worker`` chunks) so uneven per-chunk costs
    rebalance across the pool. The variant is resolved once on the full
    problem shape so chunked sub-kernels cannot disagree with the
    serial kernel's choice.

    Resilience (:mod:`repro.resilience`): ``deadline`` (a
    :class:`~repro.resilience.Deadline` or a budget in seconds) bounds
    the solve, raising :class:`~repro.errors.KernelTimeoutError` instead
    of hanging; ``retry`` (a :class:`~repro.resilience.RetryPolicy`)
    resubmits failed chunks with backend fallback
    (``processes -> threads -> serial``) so a dead worker costs one
    chunk, not the solve; ``fault_plan`` (a
    :class:`~repro.resilience.FaultPlan` or its spec string) injects
    deterministic failures for testing. Passing any of the three — or
    setting ``$REPRO_FAULT_PLAN`` — runs the chunks down the whole
    fallback ladder; without them the chunks run on the backend's rung
    alone, once, and a dead worker fails the solve with
    :class:`~repro.errors.BackendError`. Either way results are
    bit-identical because the decomposition and variant are unchanged.

    Observability: ``request`` (a
    :class:`~repro.obs.context.RequestContext` or a bare request-id
    string) tags every span, metric label, and error this solve
    produces; without one the ambient scope (if any) is inherited. A
    context carrying a deadline supplies it when the ``deadline``
    argument is omitted. When the metrics registry is enabled the solve
    also records model-anchored efficiency (achieved vs. predicted
    GFLOP/s) under ``efficiency.*``.

    ``memory_budget`` (a :class:`~repro.MemoryBudget`, byte count, or
    spec string) caps the solve's *total* workspace: the limit is split
    evenly across the ``p`` workers and threaded into each chunk's
    kernel call as a plain byte count — picklable, so the processes
    backend enforces it inside its workers too. Each sub-kernel then
    streams reference panels under its share (the out-of-core path;
    pass a memmapped ``X``).
    """
    from ..core.membudget import MemoryBudget
    from ..resilience import FALLBACK_LADDER, Deadline, FaultPlan, RetryPolicy
    from ..resilience.executor import run_ladder

    p = resolve_workers(p)
    if chunks_per_worker < 1:
        raise ValidationError(
            f"chunks_per_worker must be >= 1, got {chunks_per_worker}"
        )
    q_idx = np.asarray(q_idx, dtype=np.intp)
    r_idx = np.asarray(r_idx, dtype=np.intp)
    # validated once for the whole solve; every rung shares its norms
    table = as_table(X, X2)
    d = table.d
    # Resolve "auto"/"model" on the FULL problem: a model-driven choice
    # made per chunk could differ from the serial kernel's.
    var = _resolve_auto_variant(variant, q_idx.size, r_idx.size, d, k)
    engine = resolve_backend(backend, p)
    budget = MemoryBudget.coerce(memory_budget)
    kernel_kwargs = dict(
        norm=norm, variant=int(var), block_m=block_m, block_n=block_n,
    )
    if budget is not None:
        # Forwarded as a raw byte count so it crosses the pickle
        # boundary to process workers. In-process backends (serial,
        # threads) share one plan and thus one budget object, so they
        # get the full limit; process workers each coerce a private
        # budget, so the limit is split evenly across the p of them.
        share = budget.limit_bytes // p if engine.name == "processes" else (
            budget.limit_bytes
        )
        if share < 1:
            raise ValidationError(
                f"memory budget {budget.limit_bytes} too small to split "
                f"across {p} workers"
            )
        kernel_kwargs["memory_budget"] = share
    ctx = coerce_request(request) or current_request()
    if deadline is None and ctx is not None:
        deadline = ctx.deadline
    deadline = Deadline.coerce(deadline)
    fault_plan = FaultPlan.coerce(fault_plan)
    if fault_plan is None:
        fault_plan = FaultPlan.from_env()
    if deadline is None and retry is None and fault_plan is None:
        ladder = [engine]
        retry = RetryPolicy(max_attempts=1)
    else:
        if engine.name not in FALLBACK_LADDER:
            raise ValidationError(
                f"resilient execution supports backends "
                f"{sorted(FALLBACK_LADDER)}, got {engine.name!r}"
            )
        ladder = [engine] + [
            resolve_backend(name, engine.p)
            for name in FALLBACK_LADDER[engine.name][1:]
        ]
        retry = retry if retry is not None else RetryPolicy()
    chunks = contiguous_chunks(q_idx.size, p * chunks_per_worker)
    with request_scope(ctx):
        t0 = time.perf_counter()
        # the driver span every worker-side span re-parents under
        with _trace.span(
            "solve",
            backend=engine.name,
            p=engine.p,
            m=int(q_idx.size),
            n=int(r_idx.size),
            k=int(k),
            variant=int(var),
        ):
            parts = run_ladder(
                {chunk[0]: chunk for chunk in chunks},
                [
                    b.rung(
                        table, q_idx, r_idx, k, chunks, kernel_kwargs,
                        fault_plan,
                    )
                    for b in ladder
                ],
                retry=retry,
                deadline=deadline,
            )
        dist = np.empty((q_idx.size, k), dtype=np.float64)
        idx = np.empty((q_idx.size, k), dtype=np.intp)
        for start, (d_chunk, i_chunk) in parts.items():
            dist[start : start + d_chunk.shape[0]] = d_chunk
            idx[start : start + i_chunk.shape[0]] = i_chunk
        registry = _get_registry()
        if registry.enabled:
            registry.inc(f"backend.{engine.name}.solves")
            registry.inc(f"backend.{engine.name}.chunks", len(chunks))
            record_solve_efficiency(
                q_idx.size, r_idx.size, d, k, var,
                time.perf_counter() - t0,
                scope="solve", registry=registry,
            )
        return KnnResult(dist, idx)


def gsknn_reference_parallel(
    X: np.ndarray,
    q_idx: np.ndarray,
    r_idx: np.ndarray,
    k: int,
    *,
    p: int | str = 2,
    norm: str | float | Norm = "l2",
    block_m: int = DEFAULT_BLOCK_M,
    block_n: int = DEFAULT_BLOCK_N,
) -> KnnResult:
    """Reference-side parallel GSKNN with private per-worker lists.

    Each worker processes a slice of the *references* for all queries,
    building private neighbor lists; the partial lists are then merged
    (the paper's footnote-5 race resolution for Xeon Phi's 3rd-loop
    parallelism). Exactness is preserved because min-k is associative
    under the dedup-merge.
    """
    p = resolve_workers(p)
    r_idx = np.asarray(r_idx, dtype=np.intp)
    if k > r_idx.size:
        raise ValidationError(f"k={k} exceeds n={r_idx.size}")
    if p == 1 or r_idx.size < p * k:
        return gsknn(
            X, q_idx, r_idx, k, norm=norm, block_m=block_m, block_n=block_n
        )

    chunks = contiguous_chunks(r_idx.size, p)  # same chunking math, n side

    def worker(chunk: tuple[int, int]) -> KnnResult:
        start, size = chunk
        with serial_kernels():  # the chunk threads are the fan-out
            return gsknn(
                X,
                q_idx,
                r_idx[start : start + size],
                min(k, size),
                norm=norm,
                block_m=block_m,
                block_n=block_n,
            )

    with ThreadPoolExecutor(
        max_workers=resolve_workers(p, len(chunks))
    ) as pool:
        partials = list(pool.map(worker, chunks))

    # Pad any short partial lists (chunk smaller than k) to width k, then
    # fold them together with the dedup merge.
    def widen(res: KnnResult) -> KnnResult:
        if res.k == k:
            return res
        pad = k - res.k
        dist = np.pad(res.distances, ((0, 0), (0, pad)), constant_values=np.inf)
        idx = np.pad(res.indices, ((0, 0), (0, pad)), constant_values=-1)
        return KnnResult(dist, idx)

    merged = widen(partials[0])
    for part in partials[1:]:
        merged = merge_neighbor_lists(merged, widen(part))
    return merged
