"""Parallel kNN schemes (paper §2.5).

Two regimes, as in the paper:

* **task parallelism** (:mod:`repro.parallel.scheduler`) — many small
  independent kNN kernels (one per tree leaf / hash bucket) scheduled
  across processors by greedy first-termination list scheduling on a
  runtime-sorted task list (LPT), with runtimes estimated by the
  performance model;
* **data parallelism** — one big kernel parallelized over the 4th loop
  (query blocks), which is safe because each query owns its neighbor
  list. Every kernel call does this itself: its row blocks go to the
  host's free cores (:mod:`repro.core.workers`).

:mod:`repro.parallel.chunking` holds the worker-count and block-aligned
partitioning arithmetic the drivers share.
"""

from .chunking import block_aligned_chunks, resolve_workers
from .scheduler import ScheduledTask, Schedule, lpt_schedule, graham_bound

__all__ = [
    "resolve_workers",
    "block_aligned_chunks",
    "ScheduledTask",
    "Schedule",
    "lpt_schedule",
    "graham_bound",
]
