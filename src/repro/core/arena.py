"""Workspace arenas: preallocated, reusable kernel buffers.

The fused kernel's steady state touches the same intermediate shapes on
every block — one ``(block_m, block_n)`` distance tile, one boolean
survivor mask, the ``(m, k)`` running neighbor lists. A
:class:`WorkspaceArena` keeps one grow-only buffer per *role* and hands
out right-sized views, so blocks after the first allocate nothing, and
a plan's repeated executions perform no large allocations after the
first call (the property the tracemalloc regression test pins down).
A one-shot kernel call borrows one arena from its ephemeral plan's
pool and drops it with the plan, so nothing is retained past the call.

Two pieces:

* :class:`WorkspaceArena` — keyed, grow-only buffers; ``take`` returns
  an uninitialized view of exactly the requested shape. An arena
  belongs to one execution at a time; inside it, the row workers of
  :mod:`repro.core.workers` take *disjoint* keys concurrently, so
  growth (the only step that touches shared bookkeeping) is locked.
* :class:`ArenaPool` — a thread-safe borrow/return pool of arenas.
  Concurrent executions (task-parallel group solves, serve windows)
  each borrow a private arena, so reuse never races.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from ..errors import ValidationError
from .membudget import MemoryBudget

__all__ = ["WorkspaceArena", "ArenaPool"]


class WorkspaceArena:
    """Keyed grow-only buffers for ``out=``-style kernel internals.

    ``take(key, shape, dtype)`` returns a view of the key's backing
    buffer with exactly ``shape``; the buffer grows (never shrinks) to
    the elementwise max shape ever requested, so a steady-state workload
    stops allocating after its first pass. Contents are *not* cleared —
    callers own initialization, exactly like ``np.empty``.

    With a :class:`~repro.core.membudget.MemoryBudget` attached, every
    buffer growth is charged against the budget *before* the allocation
    happens (a replaced buffer's bytes are returned first — grow-only
    keys never hold old and new generations at once past the swap), so
    a budgeted run is refused with
    :class:`~repro.errors.MemoryBudgetError` instead of driving the
    host out of memory. ``peak_nbytes`` records the arena's own
    high-water mark whether or not a budget is attached.
    """

    def __init__(self, budget: MemoryBudget | None = None) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self.budget = budget
        self._lock = threading.Lock()
        self._nbytes = 0
        self._peak_nbytes = 0

    def _grow(self, key: str, shape, dtype: np.dtype) -> np.ndarray:
        """Replace ``key``'s buffer with a new ``shape`` one, charged first.

        Several row workers may grow disjoint keys at once; the lock keeps
        the byte tallies (and the budget's view of them) consistent.
        """
        nbytes = math.prod(shape) * dtype.itemsize
        with self._lock:
            old = self._buffers.pop(key, None)
            if old is not None:
                self._nbytes -= old.nbytes
                if self.budget is not None:
                    self.budget.release(old.nbytes)
            if self.budget is not None:
                self.budget.reserve(nbytes, site=f"arena:{key}")
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
            self._nbytes += nbytes
            self._peak_nbytes = max(self._peak_nbytes, self._nbytes)
        return buf

    def take(
        self,
        key: str,
        shape: tuple[int, ...],
        dtype: np.dtype | type = np.float64,
    ) -> np.ndarray:
        shape = tuple(int(s) for s in shape)
        if any(s < 0 for s in shape):
            raise ValidationError(f"arena shape must be non-negative, got {shape}")
        dtype = np.dtype(dtype)
        buf = self._buffers.get(key)
        if (
            buf is None
            or buf.dtype != dtype
            or buf.ndim != len(shape)
            or any(b < s for b, s in zip(buf.shape, shape))
        ):
            grown = (
                shape
                if buf is None or buf.dtype != dtype or buf.ndim != len(shape)
                else tuple(max(b, s) for b, s in zip(buf.shape, shape))
            )
            buf = self._grow(key, grown, dtype)
        if buf.shape == shape:
            return buf
        return buf[tuple(slice(0, s) for s in shape)]

    def take_c(
        self,
        key: str,
        shape: tuple[int, ...],
        dtype: np.dtype | type = np.float64,
    ) -> np.ndarray:
        """Like :meth:`take`, but the view is always C-contiguous.

        Backed by a flat grow-only buffer reshaped per request, so a key
        whose shape varies call-to-call (ragged leaf groups) still hands
        out dense arrays — BLAS ``out=`` destinations and mask scans
        need contiguity to stay on their fast paths, and a strided view
        of a larger 2-D buffer would silently fall off them.
        """
        shape = tuple(int(s) for s in shape)
        if any(s < 0 for s in shape):
            raise ValidationError(f"arena shape must be non-negative, got {shape}")
        dtype = np.dtype(dtype)
        size = 1
        for s in shape:
            size *= s
        buf = self._buffers.get(key)
        if buf is None or buf.dtype != dtype or buf.ndim != 1 or buf.size < size:
            grown = size if buf is None or buf.ndim != 1 else max(buf.size, size)
            buf = self._grow(key, (grown,), dtype)
        return buf[:size].reshape(shape)

    def shortfall(self, needs: dict[str, int]) -> int:
        """Bytes that taking ``needs`` (key -> bytes) would newly charge:
        what each key's buffer lacks of its need."""
        held = self._buffers.get
        return sum(
            max(0, nbytes - (0 if held(key) is None else held(key).nbytes))
            for key, nbytes in needs.items()
        )

    @property
    def nbytes(self) -> int:
        """Total bytes currently held across all keys."""
        return self._nbytes

    @property
    def peak_nbytes(self) -> int:
        """High-water mark of :attr:`nbytes` over the arena's lifetime."""
        return self._peak_nbytes

    def __len__(self) -> int:
        return len(self._buffers)

    def clear(self) -> None:
        with self._lock:
            if self.budget is not None:
                self.budget.release(self._nbytes)
            self._buffers.clear()
            self._nbytes = 0


class ArenaPool:
    """Thread-safe borrow/return pool of workspace arenas.

    A plan owns one pool; every ``execute`` borrows a private arena for
    the duration of the call. Under task-parallel threads, concurrent
    executions each get their own arena (the pool grows to the peak
    concurrency and then stops allocating); serial repetition always
    reuses the same one.

    Pass ``budget=`` to make every arena the pool creates charge one
    shared :class:`~repro.core.membudget.MemoryBudget` — the budget is
    a *pool-wide* cap, so concurrent borrowers compete for the same
    headroom (their combined footprint is what must fit on the host).
    """

    def __init__(
        self,
        factory: Callable[[], WorkspaceArena] | None = None,
        *,
        budget: MemoryBudget | None = None,
    ) -> None:
        if factory is None:
            if budget is not None:
                factory = lambda: WorkspaceArena(budget=budget)  # noqa: E731
            else:
                factory = WorkspaceArena
        elif budget is not None:
            raise ValidationError("pass either factory or budget, not both")
        self.budget = budget
        self._factory = factory
        self._lock = threading.Lock()
        self._free: list[WorkspaceArena] = []
        self._created = 0
        self._all: list[WorkspaceArena] = []

    @contextmanager
    def borrow(self) -> Iterator[WorkspaceArena]:
        with self._lock:
            if self._free:
                arena = self._free.pop()
            else:
                arena = self._factory()
                self._created += 1
                self._all.append(arena)
        try:
            yield arena
        finally:
            with self._lock:
                self._free.append(arena)

    @property
    def created(self) -> int:
        return self._created

    @property
    def nbytes(self) -> int:
        """Bytes held by *idle* arenas (borrowed ones are not counted)."""
        with self._lock:
            return sum(a.nbytes for a in self._free)

    @property
    def peak_nbytes(self) -> int:
        """Summed high-water marks of every arena ever created."""
        with self._lock:
            return sum(a.peak_nbytes for a in self._all)

