"""One execute's workspace: every kernel buffer it takes, and its bytes.

The paper sizes its blocking so each packed buffer fits its memory level
(§2.2); here a :class:`~repro.core.membudget.MemoryBudget` plays that
role, and this module is the one place that says what a kernel call
holds. A :class:`Workspace` lists, for a group of query rows, the
variant, ``k``, the workers and the panels, every buffer as ``key ->
(shape, dtype)``: the tile (a region per worker), each worker's mask
(whose bytes also hold the merge rounds and a screen tile's rescore
pairs) and cosine denominators, the neighbor lists (a panel worker's own
too, with its ``Q32@w``), a streamed panel and its staging rows (per
panel worker), the packed queries (``Q``/``Q2``, or the screen's
``Q32``, ``Q2``, ``Q.screen``, ``Q.qc2``, ``Q.widen``) and a budgeted
Var#6's scores.

The kernel takes buffers only through :meth:`Workspace.bind`, which
refuses a key the workspace does not list and hands out each buffer at
its described shape, so on a fresh arena the peak equals
:attr:`Workspace.nbytes`. A plan's block fit, cache decision,
worker caps and row groups all ask a workspace for bytes. The returned
neighbor lists are the caller's and not part of it (docs/MEMORY.md).
"""

from __future__ import annotations

import math

import numpy as np

from ..config import iter_blocks
from ..errors import ValidationError
from .variants import Variant
from .workers import RowWorkers

__all__ = [
    "FIT_K",
    "MERGE_CELL",
    "PACK_ROWS",
    "Workspace",
    "mask_nbytes",
    "pair_nbytes",
    "panel_store",
    "store_nbytes",
]

#: Bytes of one merge strip cell: a float64 distance and an intp id.
MERGE_CELL = 16
#: Query rows centred per step while packing the screen operand.
PACK_ROWS = 256
#: The ``k`` a budgeted plan's fit leaves one row block's lists room
#: for: on a fresh plan, a call with ``k <= FIT_K`` runs under every
#: budget whose fit holds one row block (docs/MEMORY.md). The smallest
#: power of two at or above the ``k`` of every budgeted path here: 8
#: (serve), 10 (the CI memory smoke, the out-of-core benchmark), 16 (the
#: CLI's default) and 50 (the budget scans); a larger ``k`` may need a
#: larger budget.
FIT_K = 64


#: Keys of the pass state, which no row count changes.
_PASS = ("tile", "lists.mask", "denom", "Ra")


def pair_nbytes(d: int) -> int:
    """Scratch of one rescored screen pair: its float64 ``q`` and ``r`` rows."""
    return 2 * d * 8


def mask_nbytes(cells: int, k: int, pair: int = 0) -> int:
    """A mask's bytes for a tile of ``cells``: one byte a cell, and at
    least one merge round (one row's ``k`` entries and a survivor) and
    one rescore ``pair``."""
    return max(cells, MERGE_CELL * (k + 1), pair)


def panel_store(plan, screen: bool):
    """``(shape, dtype)`` of one kind of a plan's cached panels, stored
    whole: ``d + 2`` float32 rows (a screen panel) or ``d + norm_cols``
    float64 rows for each of its ``n`` references."""
    if screen:
        return (plan.n * (plan.d + 2),), np.dtype(np.float32)
    return (plan.n * (plan.d + plan._norm_cols),), np.dtype(np.float64)


def store_nbytes(plan) -> int:
    """Bytes of the panels a budgeted plan caches when built."""
    shape, dtype = panel_store(plan, plan._cache_screen)
    return math.prod(shape) * dtype.itemsize


class Workspace:
    """The buffers a group of ``m`` query rows takes at ``p`` workers.

    ``plan`` gives the table's ``d``, the references ``n``, the blocking,
    the norm and the budget (a budgeted Var#6 routes its scores through
    the arena). ``splittable`` panels are split between the workers (0:
    the row blocks are), ``panels`` is the panels per tile (from the
    call's ``m``), ``streamed`` whether the panels the variant reads are
    gathered per execute.

    ``workers`` is the :class:`~repro.core.workers.RowWorkers` that run
    the group; ``buffers`` maps each key to ``(shape, dtype)``;
    ``regions[w]`` is worker ``w``'s cells of the tile; ``nbytes`` is the
    total, ``pass_nbytes`` the part no row count changes (tile, masks,
    denominators, streamed panels), ``transient_nbytes`` what the
    execute allocates outside the arena on top (Var#6's selection index).
    """

    __slots__ = (
        "workers", "buffers", "regions", "nbytes", "pass_nbytes",
        "transient_nbytes", "_sizes", "_arena",
    )

    def __init__(
        self,
        plan,
        var: Variant,
        k: int,
        m: int,
        p: int = 1,
        splittable: int = 0,
        panels: int = 1,
        streamed: bool = True,
    ) -> None:
        d, n = plan.d, plan.n
        self.workers = workers = RowWorkers(
            list(iter_blocks(m, plan.block_m)), p, splittable
        )
        norm = plan.norm
        screen = var is Variant.VAR1 and norm.is_l2
        f32, f64, intp = np.dtype(np.float32), np.dtype(np.float64), np.dtype(np.intp)
        flag, byte = np.dtype(np.bool_), np.dtype(np.uint8)
        buffers: dict[str, tuple[tuple, np.dtype]] = {}
        width = 2 * plan.block_n if screen else plan.block_n
        first = min(width, n)  # the widest panel: the first
        suffixes = [f"@{w}" if w else "" for w in range(workers.p)]
        split = workers.split == "panels"
        self.regions = []
        self.transient_nbytes = 0

        # the packed queries
        if screen:
            buffers["Q2"] = (m,), f64
            buffers["Q32"] = (m, d + 2), f32
            buffers["Q.screen"] = (min(m, PACK_ROWS), d), f64
            buffers["Q.qc2"] = (m,), f64
            buffers["Q.widen"] = (m,), f64
        else:
            fold = int(norm.is_l2 and var is not Variant.VAR6)
            buffers["Q"] = (m, d + fold), f64
            if plan._norm_cols:
                buffers["Q2"] = (m,), f64

        if streamed:
            rows = (min(first, plan.block_n), d)
            depth = d + 2 if screen else d + plan._norm_cols
            for sfx in suffixes if split else [""]:
                buffers["Ra" + sfx] = (depth, first), f32 if screen else f64
                buffers["Ra.rows" + sfx] = rows, f64

        if var is Variant.VAR6:
            if plan.memory_budget is not None:
                buffers["var6_scores"] = (m, n), f64
            # the selection's index of every score
            self.transient_nbytes = m * n * intp.itemsize
        else:
            for sfx in suffixes if split else [""]:
                buffers["lists.values" + sfx] = (m, k), f64
                buffers["lists.ids" + sfx] = (m, k), intp
                buffers["lists.row_max" + sfx] = (m,), f64
                buffers["lists.touched" + sfx] = (m,), flag
                if sfx and screen:
                    buffers["Q32" + sfx] = (m, d + 2), f32
            count = -(-n // width)
            last = n - (count - 1) * width
            for w, sfx in enumerate(suffixes):
                run = workers.panel_runs[w] if split else range(count)
                # a worker's widest tile: the first of its run
                tiles = min(panels, len(run))
                widest = tiles * width
                if run.start + tiles == count:
                    widest += last - width
                rows_w = workers.runs[w][0][1]
                cells = rows_w * widest
                self.regions.append(cells)
                if var is Variant.VAR1:
                    pair = pair_nbytes(d) if screen else 0
                    mask = mask_nbytes(cells, k, pair)
                    buffers["lists.mask" + sfx] = (mask,), byte
                if norm.is_cosine:
                    buffers["denom" + sfx] = (rows_w * first,), f64
                    buffers["denom_zero" + sfx] = (rows_w * first,), flag
            buffers["tile"] = (sum(self.regions),), f32 if screen else f64

        self.buffers = buffers
        self._sizes = sizes = {
            key: math.prod(shape) * dtype.itemsize
            for key, (shape, dtype) in buffers.items()
        }
        self.nbytes = sum(sizes.values())
        self.pass_nbytes = sum(
            size for key, size in sizes.items() if key.startswith(_PASS)
        )

    def bind(self, arena) -> "Workspace":
        """This workspace over ``arena``: the kernel's only way to it."""
        self._arena = arena
        return self

    def __contains__(self, key: str) -> bool:
        return key in self.buffers

    def take(self, key: str) -> np.ndarray:
        """A described buffer, whole, at its described shape and dtype;
        the kernel slices it to the rows or columns it needs."""
        try:
            shape, dtype = self.buffers[key]
        except KeyError:
            raise ValidationError(
                f"kernel buffer {key!r} is not in this execute's workspace"
            ) from None
        return self._arena.take_c(key, shape, dtype)

    def shortfall(self, arena) -> int:
        """Bytes taking this workspace would newly charge to ``arena``'s
        budget: what each buffer the arena holds lacks of its size."""
        return arena.shortfall(self._sizes)
