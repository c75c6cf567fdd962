"""The kernel's 4th or 6th loop on the host's free cores (paper §2.5).

The paper's one-big-kernel scheme is data-parallel over the 4th loop:
threads take disjoint ``m_c`` row blocks and share one packed
reference panel. A plan's loop nest does the same with threads when a
call has enough row blocks. Per panel of the 6th loop, the fixed
``(block_m, n_b)`` tiles are dealt to ``p`` workers in contiguous runs
of row blocks; the calling thread is worker 0, and every worker is
joined before the next panel is gathered (a streamed panel's buffer is
reused). numpy releases the GIL in ``matmul``, ``argpartition``, the
ufuncs and ``flatnonzero``, so the threads overlap. A tile is the same
unit of work whatever ``p`` is and each row's tiles are applied in
panel order, so results do not depend on ``p``.

A call with fewer row blocks than the free cores (a short batch, a
serve window: usually one row block) splits the 6th loop instead, when
it holds at least a tile's worth of candidates per worker: worker ``w``
takes a contiguous run of the reference panels, runs
every row block over them in one tight loop into its own tile and its
own neighbor lists (PANDA's partition of the reference set), and the
lists merge once at the end. Each panel's GEMM is unchanged, so every
distance keeps its bits, and lists order on ``(distance, id)``
(:mod:`repro.select.vectorized`), so the ids do not depend on ``p``
either. Which loop is split is decided per call by :func:`row_workers`:
the one that runs more workers, rows on a tie. This is the package's
only kernel decomposition: every caller of the kernel (one-shot
``gsknn``, plans, batches, serve windows, shard and rank workers)
reaches it through the plan.

``p`` has no knob: at most the usable cores ``// BLAS threads``, where
usable cores come from ``os.sched_getaffinity`` and BLAS threads from
the loaded OpenBLAS where it can be asked, and at most the row blocks
or panels being split. An unknown BLAS counts as using every core, so
such a host stays serial. A budgeted plan caps ``p`` further at the
scratch sets its budget affords, and each execute at the workers whose
workspace still fits (:mod:`repro.core.workspace`). The kernel's root
span records the split, ``p`` and the reason for ``p``.

A kernel reached from a fan-out of its own — a ``ThreadRung`` item
(a task-parallel schedule's task, a simulated rank) or a shard or rank
worker process — runs in its own thread: those sites enter
:func:`serial_kernels`, so the host's cores are never oversubscribed
by nesting. The usable cores are re-read on every call (under a
microsecond), so a process that narrows its affinity
(``os.sched_setaffinity``) at any time runs fewer workers from its next
kernel call on; only the BLAS probe runs once per process. The helper
threads live across calls, one set per process: concurrent kernel
calls queue on them rather than start more threads than cores, and a
short-lived calling thread (a serve dispatcher) leaves no threads to
tear down. A forked child forgets its parent's helpers, whose threads
did not survive the fork, and starts its own.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = [
    "RowWorkers",
    "host_threads",
    "row_workers",
    "serial_kernels",
    "serial_process",
]

_SERIAL: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "repro_serial_kernels", default=False
)

#: Thread-count getters of OpenBLAS builds (the scipy-openblas wheels
#: that numpy bundles prefix and suffix the plain name).
_BLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


@contextmanager
def serial_kernels() -> Iterator[None]:
    """Run every kernel reached inside the block in its calling thread."""
    token = _SERIAL.set(True)
    try:
        yield
    finally:
        _SERIAL.reset(token)


def serial_process() -> None:
    """Keep this thread's kernels serial for its lifetime (process workers)."""
    _SERIAL.set(True)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not on Linux
        return os.cpu_count() or 1


@functools.lru_cache(maxsize=1)
def _blas_threads() -> int | None:
    """:func:`_probe_blas`, run once per process."""
    return _probe_blas()


def _probe_blas() -> int | None:
    """Threads of the OpenBLAS numpy has loaded, or None when unknown.

    Only a library that is already loaded is asked (``RTLD_NOLOAD``), so
    the probe can never pull a second BLAS into the process.
    """
    import numpy as np

    site = os.path.dirname(os.path.dirname(np.__file__))
    libs = glob.glob(os.path.join(site, "numpy.libs", "*openblas*"))
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for name in _BLAS_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return max(int(getter()), 1)
    return None


def host_threads() -> tuple[int, int]:
    """``(usable cores, BLAS threads)``: the affinity as it is now, the
    BLAS as probed once.

    An unknown BLAS counts as using every usable core.
    """
    cores = _usable_cores()
    return cores, _blas_threads() or cores


def row_workers(
    row_blocks: int,
    cap: int | None = None,
    panels: int = 0,
    panel_cap: int | None = None,
    tiles: int = 0,
) -> tuple[int, dict]:
    """Worker count ``p`` for a call, the loop it splits, and its inputs.

    ``row_blocks`` row blocks meet ``panels`` reference panels (0: the
    panels may not be split, as for Var#6). ``cap`` and ``panel_cap``
    are the scratch sets a memory budget affords for a row or a panel
    split. ``tiles`` is how many full tiles' worth of candidates the
    call holds: a panel worker's share must hold at least one, or the
    threads' hand-offs of the interpreter lock between their many short
    numpy calls cost more than the halved work saves. The split that
    runs more workers wins, rows on a tie. The returned attributes are
    what the kernel's root span records: ``split`` (``"rows"`` or
    ``"panels"``), ``workers`` and ``reason``, the bound that set ``p``:
    ``"cores"``, ``"row_blocks"``, ``"panels"``, ``"tiles"``,
    ``"budget"`` or, inside a fan-out (:func:`serial_kernels`),
    ``"nested"``; the host is not probed then, so a process worker
    never pays for the probe.
    """
    if _SERIAL.get():
        return 1, {
            "workers": 1, "split": "rows", "reason": "nested",
            "row_blocks": row_blocks, "nested": True,
        }
    cores, blas = host_threads()
    threads = max(1, cores // blas)
    p, reason = _bound(threads, row_blocks, "row_blocks", cap)
    split = "rows"
    if panels > 1:
        q, why = _bound(threads, panels, "panels", panel_cap)
        if tiles < q:
            q, why = max(tiles, 1), "tiles"
        if q > p:
            split, p, reason = "panels", q, why
    return p, {
        "workers": p,
        "split": split,
        "reason": reason,
        "row_blocks": row_blocks,
        "cores": cores,
        "blas_threads": blas,
    }


def _bound(threads: int, units: int, unit: str, cap: int | None):
    """``(p, reason)`` for splitting ``units`` over ``threads`` under ``cap``."""
    p, reason = threads, "cores"
    if units < p:
        p, reason = max(units, 1), unit
    if cap is not None and cap < p:
        p, reason = max(cap, 1), "budget"
    return p, reason


_helpers_lock = threading.Lock()
_helper_pool: list[ThreadPoolExecutor] = []


def _helpers(n: int) -> list[ThreadPoolExecutor]:
    """The process's first ``n`` helpers, one thread each, so worker
    ``w`` always runs on helper ``w - 1``'s thread."""
    with _helpers_lock:
        while len(_helper_pool) < n:
            _helper_pool.append(ThreadPoolExecutor(
                1, thread_name_prefix=f"repro-w{len(_helper_pool) + 1}"
            ))
        return _helper_pool[:n]


def _forget_helpers() -> None:
    """In a forked child: drop the parent's helpers (their threads are gone)."""
    global _helpers_lock, _helper_pool
    _helpers_lock = threading.Lock()
    _helper_pool = []


os.register_at_fork(after_in_child=_forget_helpers)


class RowWorkers:
    """``p`` workers for one execute: the caller plus ``p - 1`` helpers.

    Splitting rows (``panels == 0``), ``runs[w]`` is worker ``w``'s
    contiguous run of the ``(i_c, m_b)`` row ``blocks``, dealt as evenly
    as possible. Splitting ``panels`` reference panels, every worker
    runs every row block, and ``panel_runs[w]`` is its contiguous range
    of panel numbers.
    """

    def __init__(
        self, blocks: list[tuple[int, int]], p: int, panels: int = 0
    ) -> None:
        self.p = p
        self.row_blocks = b = len(blocks)
        self.split = "panels" if panels else "rows"
        if panels:
            self.runs = [blocks] * p
            self.panel_runs = [
                range(w * panels // p, (w + 1) * panels // p) for w in range(p)
            ]
        else:
            self.runs = [blocks[w * b // p : (w + 1) * b // p] for w in range(p)]
            self.panel_runs = None

    def rows(self, w: int) -> slice:
        """The query rows worker ``w`` owns."""
        first, (last, m_b) = self.runs[w][0], self.runs[w][-1]
        return slice(first[0], last + m_b)

    def run(self, fn: Callable[[int], None]) -> None:
        """Call ``fn(w)`` for every worker ``w`` and wait for them all.

        Worker 0 is the calling thread; the others run in copies of its
        context (request scope, serial flag). Once every worker has
        stopped, the error of the lowest-numbered failed one is raised.
        """
        futures = [
            helper.submit(contextvars.copy_context().run, fn, w)
            for w, helper in enumerate(_helpers(self.p - 1), 1)
        ]
        errors = []
        try:
            fn(0)
        except BaseException as exc:  # re-raised below, after the join
            errors.append(exc)
        for future in futures:
            if future.exception() is not None:
                errors.append(future.exception())
        if errors:
            raise errors[0]
