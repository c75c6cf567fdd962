"""One validated coordinate table: the array, its squared norms, frozen.

The paper computes the squared-norm side table ``X2`` once per
coordinate table and passes it with ``X`` to every kernel call (§2.2).
A :class:`TableHandle` is that pair, validated once. A long-lived
handle owns its table by clearing the array's ``writeable`` flag, so an
in-place write raises instead of leaving cached panels and norms stale;
it copies only a view over a writeable base, and references a read-only
``np.memmap`` without loading it. One-shot entry points take a
:meth:`TableHandle.borrowed` handle instead, which leaves the caller's
array as it was and dies with the call. See docs/PERF.md, "Table
ownership".
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..validation import as_coordinate_table, check_finite
from .norms import squared_norms

__all__ = ["ALL_ROWS", "TableHandle", "as_table"]


class _AllRows:
    """Reference set sentinel: every row of the table, in order."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ALL_ROWS"


#: Pass as ``r_idx`` to mean "every row of the table": plan lookups on it
#: are one dict hit, with no id array to hash or compare.
ALL_ROWS = _AllRows()


def _base_writeable(X: np.ndarray) -> bool:
    """True when ``X`` is a view over a base array that is writeable."""
    base = X.base
    return isinstance(base, np.ndarray) and bool(base.flags.writeable)


class TableHandle:
    """A validated ``(N, d)`` coordinate table and its squared norms.

    ``TableHandle(X)`` validates ``X`` once and takes ownership of it by
    freezing it. ``X2`` is the squared-norm side table when the handle
    has it — seeded by the caller, as the kernel's ``X2=`` argument
    does, or computed once by :attr:`norms` — and ``None`` otherwise; a
    plan then norms the rows it gathers with the same per-row
    arithmetic, so a served table never materializes it. Every plan,
    plan cache and long-lived driver over one table holds the same
    handle, and each lookup calls :meth:`check`.
    """

    __slots__ = ("X", "X2", "owned")

    def __init__(self, X: np.ndarray, X2: np.ndarray | None = None) -> None:
        X = as_coordinate_table(X)
        check_finite(X)
        if _base_writeable(X):
            X = X.copy()
        X.flags.writeable = False
        self._init(X, X2, owned=True)

    @classmethod
    def borrowed(
        cls, X: np.ndarray, X2: np.ndarray | None = None
    ) -> "TableHandle":
        """A per-call handle: validated, but ``X`` is left as it was."""
        X = as_coordinate_table(X)
        check_finite(X)
        handle = cls.__new__(cls)
        handle._init(X, X2, owned=False)
        return handle

    def _init(self, X: np.ndarray, X2, *, owned: bool) -> None:
        if X2 is not None:
            X2 = np.asarray(X2, dtype=np.float64)
            if X2.shape != (X.shape[0],):
                raise ValidationError(
                    f"X2 must have shape ({X.shape[0]},), got {X2.shape}"
                )
        self.X = X
        self.X2 = X2
        self.owned = owned

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def norms(self) -> np.ndarray:
        """``|x_i|^2`` per row: ``X2``, computed once on first use."""
        if self.X2 is None:
            # two threads racing here compute the same bits; either wins
            self.X2 = squared_norms(self.X)
        return self.X2

    def check(self) -> None:
        """O(1): raise if an owned table was made writeable again."""
        if self.owned and (self.X.flags.writeable or _base_writeable(self.X)):
            raise ValidationError(
                "the coordinate table was made writeable after its "
                "TableHandle froze it; build a new handle over the new "
                "contents"
            )

    def append(self, rows: np.ndarray) -> "TableHandle":
        """A new owned handle over this table with ``rows`` appended.

        Only the new rows are validated and normed (per-row norms make
        the concatenation bit-identical to a full recompute); ``self``
        is left unchanged, so a rejected append changes nothing.
        """
        rows = as_coordinate_table(rows, name="rows")
        if rows.shape[1] != self.d:
            raise ValidationError(
                f"rows must be (m, {self.d}), got shape {rows.shape}"
            )
        check_finite(rows, name="rows")
        X = np.concatenate([self.X, rows])
        X.flags.writeable = False
        norms = np.concatenate([self.norms, squared_norms(rows)])
        handle = TableHandle.__new__(TableHandle)
        handle._init(X, norms, owned=True)
        return handle


def as_table(X, X2: np.ndarray | None = None) -> TableHandle:
    """``X`` itself when it is a handle, else a per-call borrowed one."""
    if isinstance(X, TableHandle):
        return X
    return TableHandle.borrowed(X, X2)
