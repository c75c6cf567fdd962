"""Distance functions for the kNN kernel: squared-l2 plus general lp.

The GEMM-based kernel is tied to the expanded squared Euclidean form
``|x - y|^2 = |x|^2 + |y|^2 - 2 <x, y>`` (Equation 1). GSKNN's
micro-kernel owns its own inner loop, so it supports any lp norm,
0 < p <= inf (§2.4, "General lp norm"): l1 replaces each FMA with
subtract/abs/add, l-inf with subtract/abs/max, and general p with a pow.

This module provides both block-level distance evaluators used by the
fast numpy path and the scalar definitions shared by tests. Distances
returned are *squared* for l2 (the paper never takes the square root —
ordering is preserved) and natural (un-rooted sums of powers are rooted)
for other norms.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError

__all__ = [
    "Norm",
    "resolve_norm",
    "pairwise_sq_l2",
    "pairwise_lp",
    "pairwise_cosine",
    "pairwise_block",
    "squared_norms",
]


class Norm:
    """A distance specification: ``p`` in (0, inf], or cosine distance.

    ``Norm("l2")`` compares by *squared* Euclidean distance (monotone
    equivalent, and what the paper's kernel computes); every other p
    compares by the true p-norm ``(sum |x_i - y_i|^p)^(1/p)``;
    ``Norm.cosine()`` compares by ``1 - <x, y> / (|x| |y|)`` — the other
    metric the GEMM expansion supports (§1), since it too reduces to an
    inner product plus per-point norms.
    """

    __slots__ = ("p", "_cosine")

    def __init__(self, p: float, *, _cosine: bool = False) -> None:
        if _cosine:
            self.p = 2.0
            self._cosine = True
            return
        if not (p > 0):
            raise ValidationError(f"norm order p must be > 0, got {p}")
        self.p = float(p)
        self._cosine = False

    @classmethod
    def cosine(cls) -> "Norm":
        return cls(2.0, _cosine=True)

    @property
    def is_l2(self) -> bool:
        return self.p == 2.0 and not self._cosine

    @property
    def is_cosine(self) -> bool:
        return self._cosine

    @property
    def is_linf(self) -> bool:
        return np.isinf(self.p)

    def __repr__(self) -> str:
        return "Norm(cosine)" if self._cosine else f"Norm(p={self.p})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Norm)
            and other.p == self.p
            and other._cosine == self._cosine
        )

    def __hash__(self) -> int:
        return hash(("Norm", self.p, self._cosine))


_ALIASES = {
    "l1": 1.0,
    "l2": 2.0,
    "linf": np.inf,
    "inf": np.inf,
    "chebyshev": np.inf,
    "manhattan": 1.0,
    "euclidean": 2.0,
}


def resolve_norm(norm: str | float | Norm) -> Norm:
    """Accept ``"l2"``, ``"cosine"``, ``2``, ``2.0`` or a :class:`Norm`."""
    if isinstance(norm, Norm):
        return norm
    if isinstance(norm, str):
        key = norm.lower()
        if key == "cosine":
            return Norm.cosine()
        if key not in _ALIASES:
            raise ValidationError(
                f"unknown norm {norm!r}; known aliases: "
                f"{sorted(_ALIASES) + ['cosine']}"
            )
        return Norm(_ALIASES[key])
    return Norm(float(norm))


def squared_norms(X: np.ndarray) -> np.ndarray:
    """Row-wise squared 2-norms — the precomputed ``X2`` side table."""
    X = np.asarray(X, dtype=np.float64)
    return np.einsum("ij,ij->i", X, X)


def pairwise_sq_l2(
    Q: np.ndarray,
    R: np.ndarray,
    Q2: np.ndarray | None = None,
    R2: np.ndarray | None = None,
) -> np.ndarray:
    """Squared Euclidean distances via the GEMM expansion (Equation 1).

    ``C[i, j] = |q_i|^2 + |r_j|^2 - 2 <q_i, r_j>``. Tiny negative values
    from cancellation are clamped to zero so downstream selection never
    sees a "distance" below the exact-match floor.
    """
    Q = np.asarray(Q, dtype=np.float64)
    R = np.asarray(R, dtype=np.float64)
    if Q.ndim != 2 or R.ndim != 2 or Q.shape[1] != R.shape[1]:
        raise ValidationError(
            f"Q and R must be 2-D with equal width, got {Q.shape} and {R.shape}"
        )
    Q2 = squared_norms(Q) if Q2 is None else np.asarray(Q2, dtype=np.float64)
    R2 = squared_norms(R) if R2 is None else np.asarray(R2, dtype=np.float64)
    C = Q @ R.T
    C *= -2.0
    C += Q2[:, None]
    C += R2[None, :]
    np.maximum(C, 0.0, out=C)
    return C


def pairwise_lp(Q: np.ndarray, R: np.ndarray, p: float) -> np.ndarray:
    """General lp pairwise distances by direct broadcasting.

    O(m * n * d) memory during evaluation — callers block the inputs (the
    fused kernel evaluates one cache block at a time, exactly as its
    micro-kernel would). The differences are formed C-ordered whatever
    the operands' layout, so the sums' order, and with it every bit, does
    not depend on it.
    """
    Q = np.asarray(Q, dtype=np.float64)
    R = np.asarray(R, dtype=np.float64)
    if Q.ndim != 2 or R.ndim != 2 or Q.shape[1] != R.shape[1]:
        raise ValidationError(
            f"Q and R must be 2-D with equal width, got {Q.shape} and {R.shape}"
        )
    diff = np.subtract(Q[:, None, :], R[None, :, :], order="C")
    np.abs(diff, out=diff)
    if np.isinf(p):
        return diff.max(axis=2)
    if p == 1.0:
        return diff.sum(axis=2)
    return np.power(np.power(diff, p).sum(axis=2), 1.0 / p)


def pairwise_cosine(
    Q: np.ndarray,
    R: np.ndarray,
    Q2: np.ndarray | None = None,
    R2: np.ndarray | None = None,
) -> np.ndarray:
    """Cosine distances ``1 - <q, r> / (|q| |r|)`` via the GEMM expansion.

    Like squared l2, cosine needs only the inner-product matrix plus the
    per-point squared norms — the reason the paper lists it as the other
    metric the GEMM-based kernel supports. Zero vectors are treated as
    maximally distant (distance 1) rather than NaN. The GEMM reads ``R``
    depth-major, an untransposed B operand (free when ``R`` is already a
    transposed view of a depth-major panel): a one-row ``Q`` takes BLAS's
    matrix-vector route, whose bits depend on that layout.
    """
    Q = np.asarray(Q, dtype=np.float64)
    R = np.asarray(R, dtype=np.float64)
    if Q.ndim != 2 or R.ndim != 2 or Q.shape[1] != R.shape[1]:
        raise ValidationError(
            f"Q and R must be 2-D with equal width, got {Q.shape} and {R.shape}"
        )
    Q2 = squared_norms(Q) if Q2 is None else np.asarray(Q2, dtype=np.float64)
    R2 = squared_norms(R) if R2 is None else np.asarray(R2, dtype=np.float64)
    denom = np.sqrt(np.maximum(Q2[:, None] * R2[None, :], 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        sim = (Q @ np.ascontiguousarray(R.T)) / denom
    sim = np.where(denom > 0.0, sim, 0.0)
    np.clip(sim, -1.0, 1.0, out=sim)
    return 1.0 - sim


def pairwise_block(
    Q: np.ndarray,
    R: np.ndarray,
    norm: Norm,
    Q2: np.ndarray | None = None,
    R2: np.ndarray | None = None,
) -> np.ndarray:
    """Dispatch one block's pairwise distances by norm.

    For l2 the result is *squared* distance (kernel convention); cosine
    returns ``1 - similarity``; any other p returns the true p-norm.
    """
    if norm.is_cosine:
        return pairwise_cosine(Q, R, Q2, R2)
    if norm.is_l2:
        return pairwise_sq_l2(Q, R, Q2, R2)
    return pairwise_lp(Q, R, norm.p)
