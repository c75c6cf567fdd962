"""One validated coordinate table: the array, its squared norms, frozen.

The paper computes the squared-norm side table ``X2`` once per
coordinate table and passes it with ``X`` to every kernel call (§2.2).
A :class:`TableHandle` is that pair, validated once. A long-lived
handle owns its table by clearing the array's ``writeable`` flag, so an
in-place write raises instead of leaving cached panels and norms stale;
it copies only a view over a writeable base, and references a read-only
``np.memmap`` without loading it. One-shot entry points take a
:meth:`TableHandle.borrowed` handle instead, which leaves the caller's
array as it was and dies with the call. A growing table keeps its rows
in a :class:`TableStore` with spare capacity, so an append writes only
the new rows, after a frozen prefix. See docs/PERF.md, "Table
ownership".
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from ..errors import ValidationError
from ..validation import as_coordinate_table, check_finite
from .norms import squared_norms

__all__ = ["ALL_ROWS", "TableHandle", "TableStore", "as_table"]


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


class TableStore:
    """The growable rows under owned handles: a frozen prefix, then room.

    ``X`` is ``(capacity, d)`` and ``X2`` ``(capacity,)``. The first
    ``n`` rows are claimed: each lies in some handle's frozen prefix and
    is never written again. Rows past ``n`` are spare capacity, which
    only an append from the handle over exactly the first ``n`` rows may
    claim (:meth:`claim`); any other append copies into a new store.
    ``grow(capacity, d)`` makes an empty store of the same kind — private
    memory here, shared segments for process shards — when this one is
    full.
    """

    __slots__ = ("X", "X2", "n", "grow", "_lock")

    def __init__(
        self,
        X: np.ndarray,
        X2: np.ndarray,
        n: int,
        grow: Callable[[int, int], "TableStore"],
    ) -> None:
        self.X, self.X2, self.n, self.grow = X, X2, int(n), grow
        self._lock = threading.Lock()

    @classmethod
    def private(cls, capacity: int, d: int) -> "TableStore":
        """An empty store in this process's memory."""
        return cls(np.empty((capacity, d)), np.empty(capacity), 0, cls.private)

    @property
    def capacity(self) -> int:
        return self.X.shape[0]

    def claim(self, n: int, m: int) -> bool:
        """Claim rows ``[n, n + m)`` for the handle over the first ``n``.

        False when a newer handle already owns row ``n`` (the caller's
        handle is stale) or the rows do not fit.
        """
        with self._lock:
            if self.n != n or n + m > self.capacity:
                return False
            self.n = n + m
            return True


class TableHandle:
    """A validated ``(N, d)`` coordinate table and its squared norms.

    ``TableHandle(X)`` validates ``X`` once and takes ownership of it by
    freezing it. ``X2`` is the squared-norm side table when the handle
    has it — seeded by the caller, as the kernel's ``X2=`` argument
    does, or computed once by :attr:`norms` — and ``None`` otherwise; a
    plan then norms the rows it gathers with the same per-row
    arithmetic, so a served table never materializes it. Every plan,
    plan cache and long-lived driver over one table holds the same
    handle, and each lookup calls :meth:`check`. ``store`` is the
    :class:`TableStore` an appended handle's rows live in (``None``
    until the first append).
    """

    __slots__ = ("X", "X2", "owned", "store")

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
        self.store = None

    @classmethod
    def over(cls, store: TableStore, n: int) -> "TableHandle":
        """An owned handle over ``store``'s first ``n`` rows, validated.

        For storage another process writes (a shard worker's attached
        segments); :meth:`extended` then takes in later rows.
        """
        check_finite(store.X[:n])
        return cls._prefix(store, n)

    @classmethod
    def _prefix(cls, store: TableStore, n: int) -> "TableHandle":
        X, X2 = store.X[:n], store.X2[:n]
        X.flags.writeable = False
        X2.flags.writeable = False
        handle = cls.__new__(cls)
        handle._init(X, X2, owned=True)
        handle.store = store
        return handle

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
        """O(1): raise if an owned table was made writeable again.

        A store's own arrays stay writeable for appends past the prefix,
        so only the prefix view's flag is tested there.
        """
        if self.owned and (
            self.X.flags.writeable
            or (self.store is None and _base_writeable(self.X))
        ):
            raise ValidationError(
                "the coordinate table was made writeable after its "
                "TableHandle froze it; build a new handle over the new "
                "contents"
            )

    def append(self, rows: np.ndarray) -> "TableHandle":
        """A new owned handle over this table with ``rows`` appended.

        Only the new rows are validated and normed (per-row norms make
        the result bit-identical to a full recompute), and only they are
        written: into the store's spare capacity after this handle's
        frozen prefix. A full store moves the table into a new one of
        twice the capacity (:attr:`TableStore.grow`), and a first append
        into one of twice the rows, so ``N`` appended rows cost O(N)
        writes in all. An append from a stale handle — one a newer
        handle has already appended past — copies instead, so it never
        writes rows the newer handle owns.
        ``self`` is left unchanged, so a rejected append changes nothing.
        """
        rows = as_coordinate_table(rows, name="rows")
        if rows.shape[1] != self.d:
            raise ValidationError(
                f"rows must be (m, {self.d}), got shape {rows.shape}"
            )
        check_finite(rows, name="rows")
        norms = squared_norms(rows)
        n, m = self.n, rows.shape[0]
        store = self.store
        if store is None or not store.claim(n, m):
            grow = TableStore.private if store is None else store.grow
            # a full store doubles; a first or stale append gets twice
            # its own rows
            full = store is not None and store.n == n
            capacity = 2 * (store.capacity if full else n)
            store = self._copy_into(grow(max(capacity, n + m), self.d))
            store.claim(n, m)
        store.X[n : n + m] = rows
        store.X2[n : n + m] = norms
        return TableHandle._prefix(store, n + m)

    def moved(self, grow: Callable[[int, int], TableStore]) -> "TableHandle":
        """This table copied into a store from ``grow``, no room to spare.

        The rows and norms are copied, not validated again; a shard
        transport moves a caller's table into its shared segments this
        way.
        """
        return TableHandle._prefix(
            self._copy_into(grow(self.n, self.d)), self.n
        )

    def _copy_into(self, store: TableStore) -> TableStore:
        store.X[: self.n] = self.X
        store.X2[: self.n] = self.norms
        store.n = self.n
        return store

    def extended(self, n: int) -> "TableHandle":
        """A handle over the first ``n`` rows of this handle's store.

        The rows past ``self.n`` were written by the store's writer in
        another process (a shard worker's side of an append); only they
        are validated, the prefix is not read.
        """
        store = self.store
        if store is None or not self.n <= n <= store.capacity:
            raise ValidationError(
                f"cannot extend a {self.n}-row handle to {n} rows"
            )
        check_finite(store.X[self.n : n], name="rows")
        return TableHandle._prefix(store, n)


def as_table(X, X2: np.ndarray | None = None) -> TableHandle:
    """``X`` itself when it is a handle, else a per-call borrowed one."""
    if isinstance(X, TableHandle):
        return X
    return TableHandle.borrowed(X, X2)
