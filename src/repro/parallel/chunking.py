"""Contiguous work partitioning shared by the parallel drivers.

Two pieces of arithmetic live here, in one place: how many workers to
actually start, and how to split a contiguous range of rows between
them. :func:`resolve_workers` turns a requested worker count (or
``"auto"``) into the number of workers worth starting; the scheduler,
the batch driver and the GEMM driver use it. :func:`block_aligned_chunks`
produces the GEMM driver's ``(start, size)`` partitions with the
invariants the property tests pin: full coverage of ``[0, total)``, no
empty chunks, whole-block sizes.
"""

from __future__ import annotations

import os

from ..errors import ValidationError

__all__ = ["resolve_workers", "block_aligned_chunks"]


def resolve_workers(p: int | str, n_chunks: int | None = None) -> int:
    """Number of workers to actually start for ``n_chunks`` work items.

    ``p`` is the requested worker count, or ``"auto"`` for
    ``os.cpu_count()``. The result is clamped to ``n_chunks`` when given
    (a pool larger than its work list only burns thread/process startup)
    and is always >= 1.
    """
    if isinstance(p, str):
        if p != "auto":
            raise ValidationError(
                f"worker count must be a positive int or 'auto', got {p!r}"
            )
        p = os.cpu_count() or 1
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise ValidationError(
            f"worker count must be a positive int or 'auto', got {p!r}"
        )
    if n_chunks is not None:
        if n_chunks < 1:
            raise ValidationError(
                f"n_chunks must be >= 1 when given, got {n_chunks}"
            )
        p = min(p, n_chunks)
    return p


def block_aligned_chunks(
    total: int, parts: int, block: int
) -> list[tuple[int, int]]:
    """Split ``[0, total)`` into <= ``parts`` chunks of whole ``block`` units.

    The GEMM driver's partition: every worker gets a whole number of
    ``m_c`` blocks (only the final chunk may end ragged), so block
    boundaries — and therefore packing layouts — are identical to the
    serial loop nest.
    """
    if total < 0:
        raise ValidationError(f"total must be >= 0, got {total}")
    if parts < 1 or block < 1:
        raise ValidationError(
            f"need parts >= 1 and block >= 1, got {parts}, {block}"
        )
    blocks = -(-total // block)
    per_worker = -(-blocks // parts) if blocks else 0
    chunks: list[tuple[int, int]] = []
    start = 0
    while start < total:
        size = min(per_worker * block, total - start)
        chunks.append((start, size))
        start += size
    return chunks
