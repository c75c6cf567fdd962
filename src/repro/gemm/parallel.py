"""Data-parallel blocked GEMM — §2.5's scheme at the GEMM level.

The paper parallelizes the 4th loop: each core takes ``m_c`` blocks of
rows, packs a private ``Q_c`` into its private L2, and shares ``R_c``
through L3. This module applies exactly that decomposition to the
blocked GEMM substrate: the row dimension is split into per-worker
chunks (:func:`repro.parallel.chunking.block_aligned_chunks` — every
worker gets a whole number of ``m_c`` blocks), each worker runs the
ordinary serial loop nest over its chunk, and the output rows are
disjoint so no synchronization is needed.

Threads rather than processes: the per-chunk work is numpy/BLAS calls
that release the GIL, so chunks overlap on multicore hosts; on a
single-core host the decomposition still produces identical results
(asserted by the tests).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..config import BlockingParams, IVY_BRIDGE_BLOCKING
from ..errors import ValidationError
from ..parallel.chunking import block_aligned_chunks, resolve_workers
from .blocked import BlockedGemm, GemmObserver

__all__ = ["parallel_blocked_gemm"]


def parallel_blocked_gemm(
    A: np.ndarray,
    B: np.ndarray,
    *,
    p: int | str = 2,
    blocking: BlockingParams = IVY_BRIDGE_BLOCKING,
    observer: GemmObserver | None = None,
) -> np.ndarray:
    """``C = A @ B^T`` with the 4th loop split across ``p`` workers.

    Identical results to :meth:`BlockedGemm.multiply_nt` — the split is
    over output rows, which no two workers share.
    """
    p = resolve_workers(p)
    A = np.ascontiguousarray(A, dtype=np.float64)
    B = np.ascontiguousarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValidationError(
            f"operands must be 2-D with equal depth, got {A.shape}, {B.shape}"
        )
    m = A.shape[0]
    if p == 1 or m <= blocking.m_c:
        return BlockedGemm(blocking, observer).multiply_nt(A, B)

    chunks = block_aligned_chunks(m, p, blocking.m_c)
    C = np.empty((m, B.shape[0]), dtype=np.float64)

    def worker(chunk: tuple[int, int]) -> None:
        start, size = chunk
        engine = BlockedGemm(blocking, observer)
        C[start : start + size] = engine.multiply_nt(
            A[start : start + size], B
        )

    with ThreadPoolExecutor(max_workers=resolve_workers(p, len(chunks))) as pool:
        list(pool.map(worker, chunks))
    return C
