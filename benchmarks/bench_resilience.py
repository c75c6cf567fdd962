"""Resilience layer — what recovery and budget enforcement cost.

The paper positions GSKNN inside long-running production solvers, where
the execution layer has to survive worker deaths and bounded-latency
demands. This bench quantifies the price of that machinery on the two
ladders that leave the calling thread:

* **clean overhead**: a schedule of kernel tasks
  (:func:`repro.parallel.scheduler.execute_schedule`, threads) run
  plainly vs with a retry policy and a generous deadline, no faults
  injected — the tax every budgeted solve pays;
* **faulted schedule**: the same schedule under a seeded crash plan,
  recovered by task retry and the fault-free inline rung (bit-identity
  asserted);
* **shard crash recovery**: a :class:`~repro.shard.ShardedAllKnn`
  solve over two worker processes whose every attempt is killed
  (``crash=1.0``), forcing the full worker -> threads -> serial ladder
  — wall clock and the ``resilience.*`` counters that recovery
  produced (bit-identity asserted against the single-process solve);
* **deadline enforcement latency**: how far past an impossible budget
  the ``KernelTimeoutError`` actually lands (the cooperative-check
  guarantee is "within one item", the acceptance bound is 2x).

Numbers land in ``results/BENCH_resilience.json`` via ``rep.metric``;
no CI gate reads them.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.gsknn import gsknn
from repro.errors import KernelTimeoutError
from repro.obs.metrics import disable_metrics, enable_metrics
from repro.parallel.scheduler import (
    ScheduledTask,
    execute_schedule,
    lpt_schedule,
)
from repro.resilience import FaultPlan, RetryPolicy
from repro.shard import ShardedAllKnn

from .conftest import run_report, SCALE, uniform_problem

SIZE = 1024 * SCALE
TASKS = 8


def _same(got: list, want: list) -> bool:
    return all(
        np.array_equal(a.distances, b.distances)
        and np.array_equal(a.indices, b.indices)
        for a, b in zip(got, want)
    )


def test_resilience_report(benchmark, report):
    def _run():
        cores = os.cpu_count() or 1
        p = max(2, min(4, cores))
        rep = report(
            "resilience",
            f"resilience layer overhead and recovery (m=n={SIZE}, d=32, "
            f"k=16; {TASKS} schedule tasks; {cores}-core host, p={p})",
        )
        rep.problem(m=SIZE, n=SIZE, d=32, k=16, p=p, cores=cores,
                    tasks=TASKS)
        X, q, r = uniform_problem(SIZE, SIZE, 32, seed=0)
        parts = np.array_split(q, TASKS)
        schedule = lpt_schedule(
            [ScheduledTask(i, float(s.size), s) for i, s in enumerate(parts)],
            p,
        )

        def solve(**kwargs) -> list:
            out = execute_schedule(
                schedule, lambda t: gsknn(X, t.payload, r, 16), **kwargs
            )
            return [out[i] for i in range(TASKS)]

        truth = [gsknn(X, s, r, 16) for s in parts]

        def timed(fn) -> float:
            t0 = time.perf_counter()
            fn()
            return time.perf_counter() - t0

        def guarded():
            return solve(retry=RetryPolicy(), deadline=600.0)

        for _ in range(3):  # warm: the first schedules run slow
            guarded()
        # interleaved, so host drift hits both sides alike
        rounds = [(timed(solve), timed(guarded)) for _ in range(5)]
        plain, resilient = (float(t) for t in np.median(rounds, axis=0))
        rep.row(
            f"schedule p={p}, median of 5: plain {plain * 1e3:.0f} ms, "
            f"with retry and deadline {resilient * 1e3:.0f} ms "
            f"({resilient / plain - 1:+.1%} overhead)"
        )
        rep.metric("plain_seconds", plain)
        rep.metric("resilient_clean_seconds", resilient)
        rep.metric("clean_overhead_ratio", resilient / plain)

        t0 = time.perf_counter()
        faulted = solve(
            fault_plan="seed=101,crash=0.4",
            retry=RetryPolicy(backoff_base=0.001),
        )
        faulted_seconds = time.perf_counter() - t0
        assert _same(faulted, truth)
        rep.row(
            f"schedule under seed=101,crash=0.4: "
            f"{faulted_seconds * 1e3:.0f} ms; bit-identity asserted"
        )
        rep.metric("faulted_schedule_seconds", faulted_seconds)

        # shard recovery: every worker attempt dies, so each partition
        # walks the whole ladder — and the merge must still be exact
        registry = enable_metrics()
        try:
            with ShardedAllKnn(
                X, 2, transport="process",
                fault_plan=FaultPlan(crash=1.0),
                retry=RetryPolicy(backoff_base=0.001),
            ) as router:
                t0 = time.perf_counter()
                recovered = router.solve(q, 16)
                recovery = time.perf_counter() - t0
                reference = router.solve_reference(q, 16)
            counters = registry.snapshot()["counters"]
        finally:
            disable_metrics()
        assert _same([recovered], [reference])
        retries = counters.get("resilience.retries", 0)
        fallbacks = counters.get("resilience.fallbacks", 0)
        rep.row(
            f"shard crash=1.0 recovery (2 workers, full ladder): "
            f"{recovery * 1e3:.0f} ms, {retries} retries, "
            f"{fallbacks} fallbacks; bit-identity asserted"
        )
        rep.metric("recovery_seconds", recovery)
        rep.metric("recovery_retries", retries)
        rep.metric("recovery_fallbacks", fallbacks)

        # deadline enforcement: every task sleeps past an 80 ms budget;
        # measure how far past the budget the timeout error lands
        budget = 0.08
        t0 = time.perf_counter()
        with pytest.raises(KernelTimeoutError):
            solve(
                deadline=budget,
                fault_plan=FaultPlan(slow=1.0, slow_seconds=10 * budget),
            )
        landed = time.perf_counter() - t0
        rep.row(
            f"deadline {budget * 1e3:.0f} ms vs all-slow tasks: error "
            f"raised at {landed * 1e3:.0f} ms "
            f"({landed / budget:.2f}x budget; acceptance bound 2x)"
        )
        rep.metric("deadline_budget_seconds", budget)
        rep.metric("deadline_landed_seconds", landed)
        rep.metric("deadline_overrun_ratio", landed / budget)

    run_report(benchmark, _run)
