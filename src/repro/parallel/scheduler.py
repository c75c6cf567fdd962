"""Task-parallel scheduling of many small kNN kernels.

Optimal multiprocessor scheduling is NP-complete, but with no
inter-task dependencies a greedy first-termination list schedule over a
descending-runtime-sorted task list (LPT — the "special case of
Graham's bound" the paper cites) is a 4/3 - 1/(3p) approximation. The
paper sorts kernels by *estimated* runtime from the §2.6 model and
assigns each to the processor with the smallest accumulated time;
:func:`lpt_schedule` reproduces that static assignment (its loads,
makespan and imbalance are what the model and the metrics report).
:func:`execute_schedule` runs the same descending order as a greedy list
schedule on real threads: each task goes to the first worker that comes
free, so measured runtimes, not estimates, decide where it lands. The
tasks run on the resilience layer's one retry/fallback loop, which owns
deadlines, fault injection and recovery.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Sequence

from ..errors import ValidationError
from ..obs import trace as _trace
from ..obs.metrics import get_registry as _get_registry
from .chunking import resolve_workers

__all__ = ["ScheduledTask", "Schedule", "lpt_schedule", "graham_bound", "execute_schedule"]


@dataclass(frozen=True)
class ScheduledTask:
    """One independent kernel invocation.

    ``estimate`` is the predicted runtime in seconds (typically
    :meth:`repro.model.PerformanceModel.estimate_kernel_runtime`);
    ``payload`` is whatever the executor needs to run it.
    """

    task_id: int
    estimate: float
    payload: Any = None

    def __post_init__(self) -> None:
        if self.estimate < 0:
            raise ValidationError(
                f"task {self.task_id}: estimate must be >= 0, got {self.estimate}"
            )


@dataclass
class Schedule:
    """Assignment of tasks to processors."""

    n_processors: int
    assignments: list[list[ScheduledTask]] = field(default_factory=list)

    @property
    def loads(self) -> list[float]:
        """Accumulated estimated runtime per processor."""
        return [sum(t.estimate for t in procs) for procs in self.assignments]

    @property
    def makespan(self) -> float:
        return max(self.loads) if self.assignments else 0.0

    @property
    def total_work(self) -> float:
        return sum(self.loads)

    @property
    def imbalance(self) -> float:
        """makespan / (total / p) — 1.0 is a perfect balance."""
        if self.total_work == 0:
            return 1.0
        return self.makespan / (self.total_work / self.n_processors)


def lpt_schedule(tasks: Sequence[ScheduledTask], p: int) -> Schedule:
    """Longest-processing-time-first list scheduling onto ``p`` processors.

    Tasks are sorted descending by estimate; each goes to the processor
    with the smallest accumulated load (a min-heap of loads).
    """
    if p < 1:
        raise ValidationError(f"need p >= 1 processors, got {p}")
    schedule = Schedule(p, [[] for _ in range(p)])
    if not tasks:
        return schedule
    with _trace.span("lpt_schedule", tasks=len(tasks), processors=p):
        # heap entries: (load, processor index) — ties broken by index
        loads = [(0.0, i) for i in range(p)]
        heapq.heapify(loads)
        for task in sorted(tasks, key=lambda t: -t.estimate):
            load, proc = heapq.heappop(loads)
            schedule.assignments[proc].append(task)
            heapq.heappush(loads, (load + task.estimate, proc))
    registry = _get_registry()
    if registry.enabled:
        from ..obs.adapters import absorb_schedule

        absorb_schedule(schedule, registry)
    return schedule


def graham_bound(p: int) -> float:
    """LPT's worst-case makespan ratio vs optimal: ``4/3 - 1/(3p)``."""
    if p < 1:
        raise ValidationError(f"need p >= 1 processors, got {p}")
    return 4.0 / 3.0 - 1.0 / (3.0 * p)


def execute_schedule(
    schedule: Schedule,
    run: Callable[[ScheduledTask], Any],
    *,
    backend: str = "threads",
    deadline=None,
    retry=None,
    fault_plan=None,
) -> dict[int, Any]:
    """Execute a schedule; returns {task_id: result}.

    The tasks go in the schedule's LPT order (descending estimate) to
    ``n_processors`` worker threads, the next task to the first worker
    that comes free — the greedy list schedule Graham's bound is about,
    driven by measured rather than estimated completion times.
    ``backend`` is ``"threads"`` (default — on kernels that release the
    GIL during BLAS this gives true overlap) or ``"serial"`` (one task
    at a time, for debugging and single-core determinism). A kernel
    inside a threads task runs its row blocks in that task's thread:
    the schedule is the fan-out.

    The tasks run on the resilience layer's one retry/fallback loop
    (:func:`repro.resilience.executor.run_ladder`). ``deadline`` (a
    :class:`~repro.resilience.Deadline` or a budget in seconds) bounds
    every wait: expiry raises :class:`~repro.errors.KernelTimeoutError`
    with ``completed``/``total`` task metadata. ``fault_plan`` (or
    ``$REPRO_FAULT_PLAN``) injects deterministic per-task faults
    (scope ``"task"``) inside the worker threads, and ``retry`` (a
    :class:`~repro.resilience.RetryPolicy`, defaulted on when a fault
    plan is active) resubmits failed tasks with backoff; tasks that
    still fail finish on a fault-free inline rung, so injection can
    never make a schedule unfinishable. A plain serial call runs every
    task inline, in the calling thread.
    """
    from ..resilience import Deadline, FaultPlan, RetryPolicy
    from ..resilience.executor import InlineRung, ThreadRung, run_ladder

    if backend not in ("serial", "threads"):
        raise ValidationError(
            f"schedules run on the 'serial' or 'threads' backend, got "
            f"{backend!r}"
        )
    deadline = Deadline.coerce(deadline)
    fault_plan = FaultPlan.coerce(fault_plan)
    if fault_plan is None:
        fault_plan = FaultPlan.from_env()
    if retry is None and fault_plan is not None:
        retry = RetryPolicy()
    tasks = sorted(
        (t for lane in schedule.assignments for t in lane),
        key=lambda t: -t.estimate,
    )
    if not tasks:
        return {}
    registry = _get_registry()

    def open_solver():
        # pool threads start with an empty span stack: parent each task
        # span under the caller's open span
        tracer = _trace.get_tracer()
        parent_id = tracer.current_span_id()

        def solve(task_id: int, t: ScheduledTask) -> Any:
            t0 = time.perf_counter()
            with tracer.span_under(
                parent_id, "task", task_id=task_id, estimate=t.estimate
            ):
                value = run(t)
            if registry.enabled:
                registry.inc("sched.executed_tasks")
                registry.observe(
                    "sched.task_seconds", time.perf_counter() - t0
                )
            return value

        return solve

    if retry is None and backend == "serial":
        rungs = [InlineRung(open_solver)]
    else:
        workers = 1 if backend == "serial" else resolve_workers(
            max(schedule.n_processors, 1), len(tasks)
        )
        fault = None if fault_plan is None else partial(
            fault_plan.apply, "task"
        )
        rungs = [ThreadRung(open_solver, workers, fault=fault)]
        if retry is not None:
            rungs.append(InlineRung(open_solver))
    return run_ladder(
        {t.task_id: t for t in tasks},
        rungs,
        retry=retry if retry is not None else RetryPolicy(max_attempts=1),
        deadline=deadline,
    )
