"""Amortized repeated queries — kernel plans vs the one-shot kernel.

The paper amortizes gather/pack *inside* one kernel call (§2.2); the
plan engine (`repro.core.plan`, docs/PERF.md) amortizes it *across*
calls: cached reference panels, a reusable workspace arena, memoized
variant/blocking decisions, and warm-started selection. This bench
measures exactly what that buys on the repeated-query pattern every
driver in this repo exhibits, at the paper's kernel sweet spot
(m = n = 8192, d = 16, k = 16 — the regime Table 1's strongest column
comes from):

* ``one_shot_seconds`` — the historical cost: ``gsknn()`` from scratch
  per call (gather + norms + allocation every time);
* ``cold_plan_seconds`` — plan construction + first execute, what a
  driver pays on first contact with a reference set;
* ``warm_plan_seconds`` — steady-state repeats of the same queries
  (auto-warm seeding engaged, results discarded);
* ``warm_fresh_queries_seconds`` — repeats with ``warm_start=False``:
  panel/arena reuse only, no result seeding — the honest lower bound a
  driver sees when its queries change every call;
* the Table-1 all-NN configuration (N = 16384, leaf = 2048, 2 trees,
  d = 16, k = 16) solved with ``plan_reuse`` on vs off.

Bit-identity of the plan path against the one-shot kernel is asserted
before anything is timed. All numbers land in
``results/BENCH_amortized_queries.json``; CI gates them against the
committed baseline in ``benchmarks/baselines/`` via ``compare_runs.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.gsknn import gsknn
from repro.core.plan import GsknnPlan, PlanCache
from repro.core.table import TableHandle
from repro.data import embedded_gaussian
from repro.trees import all_nearest_neighbors

from .conftest import best_time, run_report, uniform_problem

# The kernel section runs at the acceptance size regardless of
# REPRO_BENCH_SCALE: the amortization claim is about this regime.
M = N = 8192
D, K = 16, 16

ALLKNN_N = 16384
ALLKNN_LEAF = 2048
ALLKNN_ITERS = 2


def test_amortized_queries_report(benchmark, report):
    def _run():
        rep = report(
            "amortized_queries",
            f"Amortized repeated queries (m=n={M}, d={D}, k={K})\n"
            f"{'mode':>28} {'seconds':>9}   (lower is better)",
        )
        rep.problem(
            m=M, n=N, d=D, k=K,
            allknn_n=ALLKNN_N, allknn_leaf=ALLKNN_LEAF,
            allknn_iters=ALLKNN_ITERS,
        )
        X, q, r = uniform_problem(M, N, D, seed=7)

        # correctness first: the plan path must be bit-identical to the
        # one-shot kernel before its timings mean anything
        plan = GsknnPlan(X, r)
        want = gsknn(X, q, r, K)
        got = plan.execute(q, K)
        assert np.array_equal(got.distances, want.distances)
        assert np.array_equal(got.indices, want.indices)
        rep.row(f"{'bit-identity plan vs gsknn':>28}  asserted")

        one_shot = best_time(lambda: gsknn(X, q, r, K), repeats=3)
        rep.row(f"{'one-shot gsknn':>28} {one_shot:>9.3f}")
        rep.metric("one_shot_seconds", one_shot)

        def _cold():
            GsknnPlan(X, r).execute(q, K)

        cold = best_time(_cold, repeats=2)
        rep.row(f"{'cold plan (build + execute)':>28} {cold:>9.3f}")
        rep.metric("cold_plan_seconds", cold)

        plan.execute(q, K)  # ensure the warm path is seeded
        warm = best_time(lambda: plan.execute(q, K), repeats=5)
        rep.row(f"{'warm plan (same queries)':>28} {warm:>9.3f}")
        rep.metric("warm_plan_seconds", warm)

        warm_fresh = best_time(
            lambda: plan.execute(q, K, warm_start=False), repeats=3
        )
        rep.row(f"{'warm plan (no result seed)':>28} {warm_fresh:>9.3f}")
        rep.metric("warm_fresh_queries_seconds", warm_fresh)

        rep.metric("warm_vs_one_shot_speedup", one_shot / warm)
        rep.metric("warm_vs_cold_speedup", cold / warm)
        rep.metric("warm_fresh_vs_one_shot_speedup", one_shot / warm_fresh)
        rep.row(
            f"{'warm vs one-shot':>28} {one_shot / warm:>8.2f}x  "
            f"(no result seed: {one_shot / warm_fresh:.2f}x; "
            f"vs cold plan: {cold / warm:.2f}x)"
        )

        # Table 1's strongest column, solved end-to-end. A fixed seed
        # regrows the same trees every solve, so a persistent PlanCache
        # over one table handle turns repeated solves into the
        # cross-call amortization case: every leaf group hits its cached
        # reference panels and the already-grown workspace arenas.
        del plan  # release the kernel section's arena before timing
        points = TableHandle(
            embedded_gaussian(ALLKNN_N, D, intrinsic_dim=10, seed=0).points
        )
        plans = PlanCache(max_plans=64)

        def _solve(plan_reuse):
            return all_nearest_neighbors(
                points, K, leaf_size=ALLKNN_LEAF, iterations=ALLKNN_ITERS,
                kernel="gsknn", seed=7, tol=0.0,
                plan_reuse=plans if plan_reuse else False,
            )

        base = _solve(False)
        reused = _solve(True)
        assert np.array_equal(
            base.result.indices, reused.result.indices
        )  # same trees, same answers
        # interleave the two modes so drift on a shared host hits both
        # measurements equally, and take best-of-4 per mode
        t_no = np.inf
        t_plan = np.inf
        for _ in range(4):
            t_no = min(t_no, best_time(lambda: _solve(False), repeats=1))
            t_plan = min(t_plan, best_time(lambda: _solve(True), repeats=1))
        rep.row(
            f"{'all-NN, plan_reuse=False':>28} {t_no:>9.3f}   "
            f"(N={ALLKNN_N}, leaf={ALLKNN_LEAF}, {ALLKNN_ITERS} trees)"
        )
        rep.row(f"{'all-NN, plan_reuse=True':>28} {t_plan:>9.3f}")
        rep.metric("allknn_no_plan_seconds", t_no)
        rep.metric("allknn_plan_seconds", t_plan)
        rep.metric("allknn_plan_speedup", t_no / t_plan)
        rep.row(f"{'all-NN plan-reuse speedup':>28} {t_no / t_plan:>8.2f}x")

    run_report(benchmark, _run)
