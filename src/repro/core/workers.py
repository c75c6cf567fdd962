"""The kernel's 4th loop on the host's free cores (paper §2.5).

The paper's one-big-kernel scheme is data-parallel over the 4th loop:
threads take disjoint ``m_c`` row blocks and share one packed
reference panel. A plan's loop nest does the same with threads. Per
panel of the 6th loop, the fixed ``(block_m, n_b)`` tiles are dealt to
``p`` workers in contiguous runs of row blocks; the calling thread is
worker 0, and every worker is joined before the next panel is gathered
(a streamed panel's buffer is reused). numpy releases the GIL in
``matmul``, ``argpartition``, the ufuncs and ``flatnonzero``, so the
threads overlap. A tile is the same unit of work whatever ``p`` is and
each row's tiles are applied in panel order, so results do not depend
on ``p``. This is the package's only 4th-loop decomposition: every
caller of the kernel (one-shot ``gsknn``, plans, batches, serve
windows, shard and rank workers) reaches it through the plan.

``p`` has no knob: ``min(row blocks, usable cores // BLAS threads)``,
where usable cores come from ``os.sched_getaffinity`` and BLAS threads
from the loaded OpenBLAS where it can be asked. An unknown BLAS counts
as using every core, so such a host stays serial. A budgeted plan caps
``p`` further at the scratch sets its budget affords, and each execute
at the ones that still fit once its queries are packed.

A kernel reached from a fan-out of its own — a ``ThreadRung`` item
(a task-parallel schedule's task, a simulated rank) or a shard or rank
worker process — runs its row blocks in its own thread: those sites
enter :func:`serial_kernels`, so the host's cores are never
oversubscribed by nesting. The usable cores are re-read on every call
(under a microsecond), so a process that narrows its affinity
(``os.sched_setaffinity``) at any time runs fewer workers from its next
kernel call on; only the BLAS probe runs once per process. The thread
pool lives for one execute only: a pool kept across calls would be
inherited, dead, by forked workers.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import glob
import os
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


def row_workers(row_blocks: int, cap: int | None = None) -> tuple[int, dict]:
    """Worker count ``p`` for ``row_blocks`` tiles per panel, with its inputs.

    ``cap`` is the number of scratch sets a memory budget affords. The
    returned attributes are what the kernel's root span records. Inside
    a fan-out (:func:`serial_kernels`) the answer is 1 and the host is
    not probed, so a process worker never pays for the probe.
    """
    if _SERIAL.get():
        return 1, {"workers": 1, "row_blocks": row_blocks, "nested": True}
    cores, blas = host_threads()
    p = max(1, min(row_blocks, cores // blas, cap or row_blocks))
    return p, {
        "workers": p,
        "row_blocks": row_blocks,
        "cores": cores,
        "blas_threads": blas,
    }


class RowWorkers:
    """``p`` row workers for one execute: the caller plus ``p - 1`` threads.

    ``runs[w]`` is worker ``w``'s contiguous run of the ``(i_c, m_b)``
    row ``blocks``, dealt as evenly as possible.
    """

    def __init__(self, blocks: list[tuple[int, int]], p: int) -> None:
        self.p = p
        self.row_blocks = b = len(blocks)
        self.runs = [blocks[w * b // p : (w + 1) * b // p] for w in range(p)]
        self._pool: ThreadPoolExecutor | None = None

    def rows(self, w: int) -> slice:
        """The query rows worker ``w`` owns."""
        first, (last, m_b) = self.runs[w][0], self.runs[w][-1]
        return slice(first[0], last + m_b)

    def __enter__(self) -> "RowWorkers":
        if self.p > 1:
            self._pool = ThreadPoolExecutor(
                self.p - 1, thread_name_prefix="repro-rows"
            )
        return self

    def __exit__(self, *exc: object) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def run(self, fn: Callable[[int], None]) -> None:
        """Call ``fn(w)`` for every worker ``w`` and wait for them all.

        Worker 0 is the calling thread; the others run in copies of its
        context (request scope, serial flag). Once every worker has
        stopped, the error of the lowest-numbered failed one is raised.
        """
        futures = [
            self._pool.submit(contextvars.copy_context().run, fn, w)
            for w in range(1, self.p)
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
