"""Fault tolerance for the execution layer (deadlines, retry, fault injection).

The paper positions GSKNN as the kernel inside long-running production
solvers — the tree-based all-NN iteration and "streaming datasets
[with] frequent updates of X". At that altitude partial failure and
bounded latency are first-class concerns, so this package threads three
primitives through every execution path:

* :class:`Deadline` — one monotonic wall-clock budget shared by the
  ladder's wait loops, the schedule executor, the shard router and the
  distributed solver; expiry raises
  :class:`~repro.errors.KernelTimeoutError` with partial-result
  metadata instead of hanging, with workers reaped and shared-memory
  segments unlinked;
* :class:`RetryPolicy` + the fallback ladders run by the one loop in
  :func:`~repro.resilience.executor.run_ladder` for shard partitions,
  schedule tasks, distributed rank kernels and serve window groups
  alike — failed items are resubmitted with exponential backoff and
  degraded per item, so a dead worker costs one item's recomputation,
  not the solve, and the answer stays bit-identical (the variant and
  the decomposition were resolved once on the full problem);
* :class:`FaultPlan` — a seeded, deterministic schedule of worker
  crashes, slow items, and injected allocation failures, fired inside
  the tasks of every ladder rung that injects them, so
  every recovery path is pinned by tests (and the CI fault-matrix job)
  rather than luck.

Recovery is observable through the standard :mod:`repro.obs` registry:
the ``resilience.*`` counter family (``retries``, ``fallbacks``,
``chunks_recovered``, ``deadline_hits``, ``faults_injected``,
``pool_rebuilds``, ...) and ``resilience.rung`` spans. See
``docs/RESILIENCE.md``.
"""

from .deadline import Deadline
from .faults import FAULT_PLAN_ENV, FaultPlan
from .retry import RetryPolicy, is_retryable
from .executor import run_ladder

__all__ = [
    "Deadline",
    "FaultPlan",
    "FAULT_PLAN_ENV",
    "RetryPolicy",
    "is_retryable",
    "run_ladder",
]
