"""Float32 screening of l2 Var#1 tiles, float64 rescoring of survivors.

A Var#1 tile is read three times (the GEMM writes it, the bin cut and
the compare read it), and every pass is bound by its bytes, not by its
flops (paper §2.6 charges each pass at ``tau_b``). For the l2 norm the
tile is therefore formed and screened in float32, at half the bytes,
and only the candidates that pass the screen are scored in float64:

* **Frame.** One centre ``c`` (the reference mean) and one power-of-two
  scale ``s`` per plan (:class:`ScreenFrame`). Panels hold
  ``[(R - c) s | |R - c|^2 s^2 | 1]^T`` in float32 and queries
  ``[-2 (Q - c) s | 1 | -o]``, so one sgemm writes
  ``s^2 (|r - c|^2 - 2 (q - c).(r - c)) - o
  = s^2 (|q - r|^2 - |q - c|^2) - o``, ``o`` being the row's cut.
  Centring keeps the values small where the points are close, and the
  scale keeps them inside float32's normal range; scaling by a power
  of two is exact. Any ``c`` is correct: it only sets how tight the
  bound below is.
* **Screen.** A warm row's cut is ``s^2 (thr - |q - c|^2)``, folded into
  the sgemm, a cold row's the ``k``-th bin minimum of the float32 tile.
  Each is widened by a rigorous bound (:class:`ScreenQueries`) on the
  float32 error of the tile and the float64 error of the rescore, so
  no candidate whose float64 distance can still enter the row's list
  is dropped.
* **Rescore.** A survivor's distance is one float64 dot of
  ``[-2 q | 1] . [r | r2]``, plus ``q2``, clamped at zero, with ``r``
  gathered from the table by the survivor's id (``r2`` from the
  table's norms, or the gathered row). It depends on the pair alone:
  not on ``m``, the blocking, the panel storage or the path that
  asked.

See docs/PERF.md, "Float32 screen", for the bound's derivation.
"""

from __future__ import annotations

import math

import numpy as np

from ..config import iter_blocks

__all__ = ["ScreenFrame", "ScreenQueries", "TileScreen"]

_U32 = 2.0**-24  # unit roundoff of float32
_U64 = 2.0**-53  # unit roundoff of float64
#: Half the spacing of float32 subnormals: the absolute error of one
#: rounding (operand or product) that underflows.
_ETA32 = 2.0**-150
#: Slack of forming a cut in float64, in units of the cut's magnitude:
#: a few roundings of its terms.
_CUT_SLACK = 4 * np.finfo(np.float64).eps
#: A scaled query longer than this (``2^50``, squared) does not fit the
#: screen: its row keeps every candidate. With ``s |r - c|`` below 1
#: (the frame's scale maps every ``|r - c|`` there, for a table whose
#: squared norms are finite in float64) every product and sum of the
#: sgemm then stays far below float32's largest value and the cut cap.
_FIT_NORM2 = 2.0**100
#: Largest folded cut: above every screened value of a fitting row
#: (at most about ``2^51``), far below float32's largest.
_CUT_CAP = 2.0**100
_TINY32 = float(np.finfo(np.float32).tiny)
#: Query rows centred per step while packing the screen operand.
_PACK_ROWS = 256


def _gamma(n: int, u: float) -> float:
    """Higham's ``gamma_n = n u / (1 - n u)``."""
    return n * u / (1.0 - n * u)


def _scale_of(reach: float) -> float:
    """The power of two that maps ``reach`` into ``[0.5, 1)`` (1 for 0)."""
    if not 0.0 < reach < np.inf:
        return 1.0
    return math.ldexp(1.0, -min(max(math.frexp(reach)[1], -1000), 1000))


def _round_up32(cut: np.ndarray) -> np.ndarray:
    """``cut`` as float32, never below its float64 value."""
    with np.errstate(over="ignore"):
        return np.nextafter(cut.astype(np.float32), np.float32(np.inf))


def _fold_extremes(chunk: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> None:
    """Fold ``chunk``'s column maxima into ``hi`` and minima into ``lo``.

    The chunk is reduced as ``g`` rows side by side (``g`` the largest
    power of two up to 16 dividing its row count): numpy reduces over a
    ``d``-wide row slowly and over a ``g d``-wide one at memory speed.
    """
    n, d = chunk.shape
    g = min(16, n & -n)
    wide = chunk.reshape(n // g, g * d)
    np.maximum(hi, wide.max(axis=0).reshape(g, d).max(axis=0), out=hi)
    np.minimum(lo, wide.min(axis=0).reshape(g, d).min(axis=0), out=lo)


class ScreenFrame:
    """One plan's screening frame: centre ``c``, scale ``s``, ``|c|``, ``rho``.

    ``c`` is the mean of the plan's references. ``s`` is the power of
    two that maps a bound on the largest ``|r - c|`` into ``[0.5, 1)``,
    so centred scaled coordinates and their squared norms sit well
    inside float32's normal range; ``rho`` bounds every ``s |r - c|``,
    and the screen's widening rests on it.
    """

    __slots__ = ("centre", "scale", "centre_norm", "rho")

    def __init__(self, centre: np.ndarray, scale: float, rho: float) -> None:
        self.centre = centre
        self.scale = float(scale)
        self.centre_norm = float(np.sqrt(centre @ centre))
        self.rho = float(rho)

    @classmethod
    def of_references(
        cls, X: np.ndarray, r_idx: np.ndarray, block_n: int, *, in_order: bool = False
    ) -> "ScreenFrame":
        """The frame of ``X[r_idx]``, from one pass in ``block_n`` chunks.

        Chunked, so a memmapped table is read sequentially and nothing
        larger than one chunk is staged; ``in_order`` (``r_idx`` is every
        row of ``X``, in order) reads the chunks as slices. Every
        reference lies in the box of its columns' extremes, so ``|r - c|``
        is at most the distance from ``c`` to the box's farthest corner;
        that bound sets the scale and ``rho``. A caller that gathers
        every panel may lower ``rho`` to their largest ``s |r - c|`` (see
        :meth:`gather`).
        """
        d = X.shape[1]
        total = np.zeros(d)
        hi, lo = np.full(d, -np.inf), np.full(d, np.inf)
        rows = np.empty((min(r_idx.size, block_n), d))
        ones = np.ones(rows.shape[0])
        for j_c, n_b in iter_blocks(r_idx.size, block_n):
            if in_order:
                chunk = X[j_c : j_c + n_b]
            else:
                chunk = rows[:n_b]
                np.take(X, r_idx[j_c : j_c + n_b], axis=0, out=chunk, mode="clip")
            total += ones[:n_b] @ chunk
            _fold_extremes(chunk, hi, lo)
        centre = total / r_idx.size
        edge = np.maximum(hi - centre, centre - lo)
        # the factor covers the rounding of forming the corner's distance
        reach = math.sqrt(float(edge @ edge)) * (1 + (d + 4) * _U64)
        scale = _scale_of(reach)
        return cls(centre, scale, scale * reach)

    def gather(
        self, X: np.ndarray, r_block: np.ndarray, out: np.ndarray, rows: np.ndarray
    ) -> float:
        """Gather ``[(R - c) s | |R - c|^2 s^2 | 1]^T`` into the float32 ``out``.

        ``rows`` is a float64 staging buffer of whole table rows, as
        many as it holds at a time; returns the panel's largest
        ``s |r - c|``. The row of ones carries each query row's cut into
        the tile GEMM (see :meth:`ScreenQueries.fold_cuts`).
        """
        d = X.shape[1]
        top = 0.0
        for lo, n in iter_blocks(r_block.size, rows.shape[0]):
            chunk = rows[:n]
            np.take(X, r_block[lo : lo + n], axis=0, out=chunk, mode="clip")
            chunk -= self.centre
            chunk *= self.scale
            out[:d, lo : lo + n] = chunk.T
            norms2 = np.einsum("ij,ij->i", chunk, chunk)
            out[d, lo : lo + n] = norms2
            top = max(top, float(norms2.max()))
        out[d + 1] = 1.0
        return math.sqrt(top)


class ScreenQueries:
    """A query block's float32 screen operand and its per-row terms.

    The block is ``source[ids]``: table rows by id, or a caller's literal
    rows. It is read a few rows at a time and never copied whole; the
    rescore reads its rows again by id, as it reads the references.
    ``q2`` holds each row's float64 squared norm (from ``X2``, the
    source's norms, when given; else with the arithmetic of
    :func:`~repro.core.norms.squared_norms`).

    ``Q32`` is ``[-2 (Q - c) s | 1 | -o]``, so one sgemm against a
    screen panel writes ``s^2 (|r - c|^2 - 2 (q - c).(r - c)) - o``:
    ``s^2 (|q - r|^2 - |q - c|^2)`` less the row's cut ``o``, which
    :meth:`fold_cuts` sets per tile (0 while a row has no threshold).
    ``qc2`` is ``s^2 |q - c|^2``. A row whose scaled query does not fit
    has a zero screen row, a zero ``qc2`` and an infinite widening, so
    it keeps every candidate.

    ``widen[i]`` bounds, in screen units, how far row ``i``'s screened
    value of any candidate can sit from ``s^2 (D - |q - c|^2)``, where
    ``D`` is the candidate's rescored float64 distance::

        w32 = gamma32_{d+4} (2 |q^| rho + rho^2) + (d+3) eta (1 + |q^| + rho)
        w64 = gamma64_{d+4} (2 s|q| R + s^2 q2 + R^2),   R = s|c| + rho
        widen = 2 (w32 + w64)

    with ``q^ = s (q - c)``, ``rho`` the frame's bound on ``s |r - c|``,
    ``q2`` the float64 squared norm that finishes a rescored distance,
    ``eta`` float32's subnormal half-spacing, and the factor 2 covering
    every second-order term (docs/PERF.md, "Float32 screen").
    """

    __slots__ = ("source", "ids", "q2", "Q32", "qc2", "widen", "scale2")

    def __init__(
        self,
        frame: ScreenFrame,
        source: np.ndarray,
        ids: np.ndarray,
        X2: np.ndarray | None,
        arena,
    ) -> None:
        m, d = ids.size, source.shape[1]
        self.source, self.ids = source, ids
        self.q2 = arena.take_c("Q2", (m,), np.float64)
        self.Q32 = arena.take_c("Q32", (m, d + 2), np.float32)
        qc2 = np.empty(m)
        step = min(m, _PACK_ROWS)
        staging = arena.take_c("Q.screen", (step, d), np.float64)
        for lo in range(0, m, step):
            hi = min(lo + step, m)
            rows = staging[: hi - lo]
            np.take(source, ids[lo:hi], axis=0, out=rows, mode="clip")
            if X2 is not None:
                np.take(X2, ids[lo:hi], out=self.q2[lo:hi], mode="clip")
            else:
                np.einsum("ij,ij->i", rows, rows, out=self.q2[lo:hi])
            rows -= frame.centre
            rows *= frame.scale
            np.einsum("ij,ij->i", rows, rows, out=qc2[lo:hi])
            rows *= -2.0
            self.Q32[lo:hi, :d] = rows
        fits = qc2 <= _FIT_NORM2
        self.Q32[:, d] = 1.0
        self.Q32[:, d + 1] = 0.0
        rho, sc = frame.rho, frame.scale * frame.centre_norm
        reach = sc + rho
        qc = np.sqrt(qc2)
        qn = frame.scale * np.sqrt(self.q2)
        w32 = _gamma(d + 4, _U32) * (2 * qc * rho + rho * rho)
        w32 += (d + 3) * _ETA32 * (1 + qc + rho)
        w64 = _gamma(d + 4, _U64) * (2 * qn * reach + qn * qn + reach * reach)
        self.widen = 2 * (w32 + w64)
        if not fits.all():
            self.Q32[~fits, :d] = 0.0
            qc2[~fits] = 0.0
            self.widen[~fits] = np.inf
        self.qc2 = qc2
        self.scale2 = frame.scale * frame.scale

    def fold_cuts(self, rows: slice, thresholds: np.ndarray) -> None:
        """Fold the rows' cuts for their next tile into ``Q32``.

        A candidate whose rescored distance is below a row's threshold
        screens below the row's cut ``s^2 thr - qc2`` plus the widening;
        the cut also carries the rounding of forming it and the sgemm
        error on its own magnitude, and is rounded up to float32, so
        such a candidate's tile value is below 0. A row without a
        threshold gets 0; a cut beyond float32's range is capped where
        every candidate passes.
        """
        cut = thresholds * (self.scale2 * (1 + _CUT_SLACK))
        cut -= self.qc2[rows] * (1 - _CUT_SLACK)
        cut += self.widen[rows]
        cut += (2 * _gamma(self.Q32.shape[1] + 2, _U32)) * np.abs(cut)
        np.clip(cut, -_CUT_CAP, _CUT_CAP, out=cut)
        # a subnormal operand would slow every product of its column
        cut[np.abs(cut) < _TINY32] = _TINY32
        cut = _round_up32(cut)
        cut[np.isinf(thresholds)] = 0.0
        np.negative(cut, out=self.Q32[rows, -1])

    def widening(self, thresholds: np.ndarray) -> float:
        """The largest widening over each row's threshold, in screen units.

        0.0 where no row has a finite, positive threshold.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = self.widen / (self.scale2 * thresholds)
        ratio = ratio[np.isfinite(ratio)]
        return float(ratio.max()) if ratio.size else 0.0


class TileScreen:
    """The screen of one row block's tile, and the rescore of its survivors.

    Built per (row block, tile) by the plan and handed to
    :meth:`repro.select.vectorized.ArenaNeighborLists.update` with the
    float32 tile, whose rows already hold their cuts (see
    :meth:`ScreenQueries.fold_cuts`): a warm row keeps the candidates
    below 0, a cold row those at or below its widened bin cut.
    """

    __slots__ = ("source", "qids", "q2", "X", "X2", "widen", "pair_bytes")

    def __init__(
        self,
        queries: ScreenQueries,
        rows: slice,
        X: np.ndarray,
        X2: np.ndarray | None,
    ) -> None:
        #: scratch one rescored pair stages: its q and r rows
        self.pair_bytes = 2 * X.shape[1] * 8
        self.source, self.qids = queries.source, queries.ids[rows]
        self.q2 = queries.q2[rows]
        self.X, self.X2 = X, X2
        self.widen = queries.widen[rows]

    def cold_cut(self, kth: np.ndarray) -> np.ndarray:
        """Float32 cuts from each cold row's ``k``-th bin minimum ``kth``.

        ``k`` candidates screen at or below ``kth``, so their rescored
        distances, and with them the row's ``k``-th, are at most one
        widening above it in screen units; a candidate of the row's
        ``k`` best then screens at most a second widening above that.
        """
        kth = kth.astype(np.float64)
        cut = kth + _CUT_SLACK * np.abs(kth)
        cut += 2.0 * self.widen
        return _round_up32(cut)

    def rescore(
        self, rows: np.ndarray, ids: np.ndarray, scratch: np.ndarray
    ) -> np.ndarray:
        """Float64 distances of the survivors ``(rows[i], ids[i])``.

        ``rows`` index the block's queries, ``ids`` the table. Each is
        ``-2 (q . r) + r2 + q2``, clamped at zero: the dot of
        ``[-2 q | 1]`` and ``[r | r2]`` (scaling by -2 is exact), ``r2``
        the table's ``X2`` when it has one, else the gathered row's own,
        with the arithmetic of :func:`~repro.core.norms.squared_norms`.
        The gathered ``q`` and ``r`` rows are staged in the byte buffer
        ``scratch`` (at least :attr:`pair_bytes`), in rounds when the
        survivors outnumber it, so a dense-survivor tile costs rounds,
        never more workspace.
        """
        d = self.X.shape[1]
        out = np.empty(rows.size)
        batch = scratch.size // self.pair_bytes
        qids = self.qids[rows]
        for lo in range(0, rows.size, batch):
            hi = min(lo + batch, rows.size)
            pairs = scratch[: (hi - lo) * self.pair_bytes].view(np.float64)
            Qg, Rg = pairs.reshape(2, hi - lo, d)
            np.take(self.source, qids[lo:hi], axis=0, out=Qg, mode="clip")
            np.take(self.X, ids[lo:hi], axis=0, out=Rg, mode="clip")
            dot = out[lo:hi]
            np.einsum("ij,ij->i", Qg, Rg, out=dot)
            dot *= -2.0
            if self.X2 is not None:
                dot += np.take(self.X2, ids[lo:hi])
            else:
                dot += np.einsum("ij,ij->i", Rg, Rg)
        out += np.take(self.q2, rows)
        np.maximum(out, 0.0, out=out)
        return out
