"""Batch kNN: many independent kernels, model-scheduled (§2.5).

The approximate solvers generate exactly this workload — hundreds of
small (m, n, k) kernels with no dependencies — and §2.5 prescribes the
treatment: estimate each kernel's runtime with the §2.6 model, sort
descending, and greedily assign to the least-loaded worker (LPT). This
module makes that a public API instead of driver-internal machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..model.perf_model import PerformanceModel
from ..obs import trace as _trace
from ..parallel.scheduler import ScheduledTask, execute_schedule, lpt_schedule
from .gsknn import gsknn
from .neighbors import KnnResult
from .norms import Norm
from .plan import PlanCache
from .table import ALL_ROWS, TableHandle, as_table

__all__ = ["KnnProblem", "gsknn_batch"]


def _as_problem_indices(idx: np.ndarray, name: str) -> np.ndarray:
    """Coerce a problem index array to ``intp`` without silent truncation.

    The table size is unknown at :class:`KnnProblem` construction (the
    upper bound is checked by :func:`gsknn_batch` against the actual
    table), but everything size-independent is enforced here: 1-D,
    non-empty, non-negative, and integer-valued — float arrays are
    accepted only when every value is a whole number inside the dtype's
    exact-integer range, mirroring
    :func:`repro.validation.as_index_array`.
    """
    arr = np.asarray(idx)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{name} must be non-empty 1-D")
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.issubdtype(arr.dtype, np.floating):
            raise ValidationError(
                f"{name} must be an integer index array, got dtype {arr.dtype}"
            )
        if not np.isfinite(arr).all():
            raise ValidationError(
                f"{name} contains non-finite values; cannot be coerced to "
                "integer indices"
            )
        exact_bound = 2.0 ** (np.finfo(arr.dtype).nmant + 1)
        if np.abs(arr).max() >= exact_bound:
            raise ValidationError(
                f"{name} has float magnitude beyond {arr.dtype}'s exact "
                "integer range; pass an integer dtype array instead"
            )
        if not np.all(arr == np.trunc(arr)):
            raise ValidationError(
                f"{name} contains non-integral float values; indices must "
                "be whole numbers"
            )
    out = np.ascontiguousarray(arr, dtype=np.intp)
    if out.min() < 0:
        raise ValidationError(f"{name} contains negative indices")
    return out


@dataclass(frozen=True)
class KnnProblem:
    """One kernel invocation of a batch: indices into the shared table.

    ``r_idx`` may be :data:`~repro.core.table.ALL_ROWS` (every row of the
    table); ``k`` is then checked against the table in
    :func:`gsknn_batch`.
    """

    q_idx: np.ndarray
    r_idx: np.ndarray
    k: int

    def __post_init__(self) -> None:
        q = _as_problem_indices(self.q_idx, "q_idx")
        if self.r_idx is ALL_ROWS:
            r, n_refs = ALL_ROWS, None
        else:
            r = _as_problem_indices(self.r_idx, "r_idx")
            n_refs = r.size
        if self.k < 1 or (n_refs is not None and self.k > n_refs):
            raise ValidationError(
                f"k={self.k} out of range for {n_refs} references"
            )
        object.__setattr__(self, "q_idx", q)
        object.__setattr__(self, "r_idx", r)

    def n_refs(self, n_rows: int) -> int:
        """Reference count against a table of ``n_rows`` rows."""
        return n_rows if self.r_idx is ALL_ROWS else self.r_idx.size


def gsknn_batch(
    X: TableHandle | np.ndarray,
    problems: list[KnnProblem],
    *,
    p: int | str = 1,
    norm: str | float | Norm = "l2",
    variant: int | str = "auto",
    backend: str = "threads",
    plan_reuse: bool = True,
    plan_cache=None,
    request=None,
    memory_budget=None,
) -> list[KnnResult]:
    """Solve a batch of independent kNN kernels over one coordinate table.

    Results are returned in problem order. With ``p > 1`` the kernels
    are LPT-scheduled by model-estimated runtime onto ``p`` workers of
    the chosen execution ``backend`` (``"threads"`` or ``"serial"``).

    ``X`` is a :class:`~repro.core.table.TableHandle` or a bare array.
    A handle was validated when it was made, and its squared norms are
    shared by every call over it; a bare array is validated once for
    this call (and left as it was) through a per-call handle.

    With ``plan_reuse`` (default) each problem runs through a
    :class:`~repro.core.plan.PlanCache`: problems that repeat a
    reference set reuse its gathered panels, and every kernel in the
    batch shares one workspace arena pool. Results are identical either
    way. ``plan_cache`` injects a caller-owned cache so long-lived
    callers (the serving front-end) reuse plans *across* batches — over
    a handle, since a bare array's per-call handle never recurs; without
    one each call gets its own cache. Ignored when ``plan_reuse`` is off.

    ``request`` (a :class:`~repro.obs.context.RequestContext` or bare
    request-id string) tags every span and metric the batch produces;
    without it the ambient request scope (if any) is inherited.

    ``memory_budget`` (a :class:`~repro.MemoryBudget`, byte count, or
    spec string) caps each problem's kernel workspace: budgeted plans
    stream reference panels from ``X`` (memmapped tables work
    unchanged) and charge every workspace buffer against the budget —
    one shared budget object bounds the whole batch; a byte count or
    spec is coerced once here so concurrent problems still share it.
    """
    from .membudget import MemoryBudget
    from ..obs.context import coerce_request, current_request, request_scope
    from ..parallel.chunking import resolve_workers

    # checked here as well as in execute_schedule: a p == 1 batch never
    # reaches the schedule
    if backend not in ("threads", "serial"):
        raise ValidationError(
            f"backend must be 'threads' or 'serial', got {backend!r}"
        )
    p = resolve_workers(p)
    if not problems:
        return []
    ctx = coerce_request(request) or current_request()
    table = as_table(X)
    n_rows = table.n
    for prob in problems:
        if prob.q_idx.max() >= n_rows or (
            prob.r_idx is not ALL_ROWS and prob.r_idx.max() >= n_rows
        ):
            raise ValidationError("problem indices exceed the table size")
        if prob.k > prob.n_refs(n_rows):
            raise ValidationError(
                f"k={prob.k} out of range for {n_rows} references"
            )

    budget = MemoryBudget.coerce(memory_budget)
    if plan_reuse:
        plans = plan_cache if plan_cache is not None else PlanCache(32)
    else:
        plans = None

    def solve(prob: KnnProblem) -> KnnResult:
        if plans is not None:
            plan = plans.get(
                table, prob.r_idx, norm=norm, variant=variant,
                memory_budget=budget,
            )
            return plan.execute(prob.q_idx, prob.k)
        r_idx = prob.r_idx
        if r_idx is ALL_ROWS:
            r_idx = np.arange(n_rows, dtype=np.intp)
        return gsknn(
            table, prob.q_idx, r_idx, prob.k, norm=norm,
            variant=variant, memory_budget=budget,
        )

    with request_scope(ctx):
        if p == 1 or len(problems) == 1:
            return [solve(prob) for prob in problems]

        model = PerformanceModel()
        tasks = [
            ScheduledTask(
                i,
                model.estimate_kernel_runtime(
                    prob.q_idx.size, prob.n_refs(n_rows), table.d, prob.k
                ),
                payload=prob,
            )
            for i, prob in enumerate(problems)
        ]
        schedule = lpt_schedule(tasks, p)
        with _trace.span("batch", problems=len(problems), p=p):
            results = execute_schedule(
                schedule, lambda t: solve(t.payload), backend=backend
            )
        return [results[i] for i in range(len(problems))]
