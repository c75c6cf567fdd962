"""Blocking-parameter configuration shared by the GEMM and GSKNN kernels.

The Goto partitioning is controlled by five architecture-dependent block
sizes (paper §2.3/§2.4):

======  =============================================================
``n_c``  6th loop: reference-block width; ``R_c`` sized to fit in L3.
``d_c``  5th loop: depth (dimension) block; ``m_r x d_c + n_r x d_c``
         sized to ~3/4 of L1 so both micro-panels stream through it.
``m_c``  4th loop: query-block height; ``Q_c`` sized to ~3/4 of L2.
``n_r``  3rd loop: register block width of a micro-kernel tile.
``m_r``  2nd loop: register block height of a micro-kernel tile.
======  =============================================================

The paper's Ivy Bridge instance (§3) is ``m_r=8, n_r=4, d_c=256,
m_c=104, n_c=4096``, exposed as :data:`IVY_BRIDGE_BLOCKING`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .errors import ConfigurationError

__all__ = [
    "BlockingParams",
    "DEFAULT_BLOCK_M",
    "DEFAULT_BLOCK_N",
    "IVY_BRIDGE_BLOCKING",
    "TEST_BLOCKING",
    "iter_blocks",
]

#: Default cache-block sizes of the numpy fast path (its ``m_c``/``n_c``).
#: The §2.3 rule applied to numpy's temporaries: the ``block_m x block_n``
#: float64 distance tile is the buffer every pass re-reads, so it is a
#: few MiB (256 x 2048 x 8 B = 4 MiB), the scale of L2, not the 16 MiB
#: of a 1024 x 2048 tile. ``block_n`` stays wide: a reference panel
#: (``block_n x (d+1)`` doubles) still sits in L3, and few panels keep
#: the per-tile dispatch cost small. Chosen by an interleaved sweep of
#: ``block_m`` in {128, 256, 512} x ``block_n`` in {1024, 2048}; see
#: docs/TUNING.md.
DEFAULT_BLOCK_M = 256
DEFAULT_BLOCK_N = 2048


def iter_blocks(total: int, block: int) -> Iterator[tuple[int, int]]:
    """Yield ``(start, size)`` pairs covering ``[0, total)`` in ``block`` steps.

    The final pair is ragged when ``block`` does not divide ``total`` —
    the "edge case" the paper handles with a separate intrinsics kernel.
    """
    for start in range(0, total, block):
        yield start, min(block, total - start)


@dataclass(frozen=True)
class BlockingParams:
    """The five Goto block sizes. Immutable and validated on construction."""

    m_r: int
    n_r: int
    d_c: int
    m_c: int
    n_c: int

    def __post_init__(self) -> None:
        for name in ("m_r", "n_r", "d_c", "m_c", "n_c"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigurationError(
                    f"blocking parameter {name} must be a positive int, got {value!r}"
                )
        if self.m_r > self.m_c:
            raise ConfigurationError(
                f"m_r={self.m_r} cannot exceed m_c={self.m_c}"
            )
        if self.n_r > self.n_c:
            raise ConfigurationError(
                f"n_r={self.n_r} cannot exceed n_c={self.n_c}"
            )

    def packed_q_bytes(self) -> int:
        """Size of one packed ``Q_c`` buffer (float64)."""
        return 8 * self.m_c * self.d_c

    def packed_r_bytes(self) -> int:
        """Size of one packed ``R_c`` buffer (float64)."""
        return 8 * self.n_c * self.d_c

    def micropanel_bytes(self) -> int:
        """Bytes of one ``m_r`` plus one ``n_r`` micro-panel at depth ``d_c``."""
        return 8 * self.d_c * (self.m_r + self.n_r)

    def with_m_c(self, m_c: int) -> "BlockingParams":
        """Copy with a different ``m_c`` (dynamic load-balancing, §2.5)."""
        return BlockingParams(self.m_r, self.n_r, self.d_c, m_c, self.n_c)


#: The paper's Ivy Bridge parameters (§3): Q_c = 104*256*8 = 208 KiB,
#: R_c = 4096*256*8 = 8 MiB.
IVY_BRIDGE_BLOCKING = BlockingParams(m_r=8, n_r=4, d_c=256, m_c=104, n_c=4096)

#: Small blocks that force multiple iterations of every loop on tiny test
#: problems, so unit tests exercise all block boundaries and ragged edges.
TEST_BLOCKING = BlockingParams(m_r=2, n_r=2, d_c=3, m_c=4, n_c=5)
