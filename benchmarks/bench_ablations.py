"""Ablations — the design choices §2.3/§2.4 argue for, isolated.

1. **Variant placement** (all six placements; Var#1/5/6 measured,
   Var#2/3 modeled — Var#4 cannot produce complete distances):
   measured wall-clock at small and large k, plus the model's costs for
   all four — showing the small-k/large-k flip the paper's variant
   analysis predicts.
2. **Early discard (root filter)**: Var#1 vs Var#5 on the same blocks —
   Var#5 merges every slab wholesale, so the gap is exactly the filter.
3. **Binary vs 4-heap**: measured scalar-selection operation counts and
   wall-clock for k large, reproducing the "4-heap is 30-50% more
   efficient for Var#6 (k = 2048)" observation at host scale.
4. **Block-size sensitivity**: the fused path's block_n swept across
   powers of two — the cache-blocking argument at numpy granularity.
5. **Panel layout** (§2.2's packing argument): the folded tile GEMMs of
   plan-shaped tiles against row-major ``[R | r2]`` panels (read
   transposed) and against depth-major ``[R | r2]^T`` panels (read
   untransposed, the layout the plans store), at d = 16. Ungated.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DEFAULT_BLOCK_M, DEFAULT_BLOCK_N
from repro.core.gsknn import gsknn
from repro.core.ref_kernel import ref_knn
from repro.model import PerformanceModel
from repro.select import SelectionStats, heap_select_smallest

from .conftest import run_report, SCALE, best_time, uniform_problem

SIZE = 2048 * SCALE


def test_ablation_variant_placement(benchmark, report):
    def _run():
        rep = report(
            "ablation_variants",
            f"Variant placement (m=n={SIZE}, d=32; ms measured / model ms @8192)\n"
            f"{'k':>6} {'var1':>14} {'var5':>14} {'var6':>14} {'gemm':>14}",
        )
        model = PerformanceModel()
        X, q, r = uniform_problem(SIZE, SIZE, 32, seed=0)
        for k in (16, min(1024, SIZE // 2)):
            cells = []
            for kernel in ("var1", "var5", "var6", "gemm"):
                if kernel == "gemm":
                    t = best_time(lambda: ref_knn(X, q, r, k), repeats=2)
                else:
                    v = int(kernel[-1])
                    t = best_time(lambda: gsknn(X, q, r, k, variant=v), repeats=2)
                modeled = model.predict_seconds(kernel, 8192, 8192, 32, k)
                cells.append(f"{t * 1e3:>6.0f}/{modeled * 1e3:>6.0f}")
            rep.row(f"{k:>6} " + " ".join(f"{c:>14}" for c in cells))
        rep.row("all six placements, model ms @8192 (var4 not costable):")
        for k in (16, 1024):
            cells = []
            for kernel in ("var1", "var2", "var3", "var5", "var6", "gemm"):
                ms = model.predict_seconds(kernel, 8192, 8192, 32, k) * 1e3
                cells.append(f"{kernel}={ms:.0f}")
            rep.row(f"  k={k:>5}: " + "  ".join(cells))


    run_report(benchmark, _run)


def test_ablation_early_discard(benchmark, report):
    def _run():
        """Var#1 minus Var#5 is exactly the root filter; it must pay off."""
        rep = report(
            "ablation_early_discard",
            f"Early discard (m=n={SIZE}, k=16): var1 (filter on) vs var5 (off)",
        )
        # block_n << n so the stream has many blocks: the filter's job is to
        # skip later blocks row-by-row once the lists are warm.
        block_n = max(SIZE // 16, 64)
        for d in (8, 64):
            X, q, r = uniform_problem(SIZE, SIZE, d, seed=1)
            t_on = best_time(
                lambda: gsknn(X, q, r, 16, variant=1, block_n=block_n), repeats=3
            )
            t_off = best_time(
                lambda: gsknn(X, q, r, 16, variant=5, block_n=block_n), repeats=3
            )
            _, stats = gsknn(
                X, q, r, 16, variant=1, block_n=block_n, return_stats=True
            )
            rep.row(
                f"d={d}: filter on {t_on * 1e3:.0f} ms, off {t_off * 1e3:.0f} ms, "
                f"gain {t_off / t_on:.2f}x "
                f"(discard fraction {stats.discard_fraction:.0%})"
            )
            assert t_on <= t_off * 1.15  # the filter never hurts meaningfully


    run_report(benchmark, _run)


def test_ablation_heap_arity(benchmark, report):
    def _run():
        rep = report(
            "ablation_heap_arity",
            "Binary vs 4-heap selection (scalar path, random stream)",
        )
        rng = np.random.default_rng(0)
        n = 8192 * SCALE
        for k in (64, 2048):
            values = rng.random(n)
            res = {}
            for arity in (2, 4):
                stats = SelectionStats()
                t = best_time(
                    lambda: heap_select_smallest(values, k, arity=arity, stats=stats),
                    repeats=1,
                )
                res[arity] = (t, stats.random_accesses)
            rep.row(
                f"k={k}: binary {res[2][0] * 1e3:.0f} ms "
                f"({res[2][1]} random accesses), "
                f"4-heap {res[4][0] * 1e3:.0f} ms ({res[4][1]} random accesses)"
            )
            # the padded 4-heap touches fewer distinct lines per sift
            assert res[4][1] <= res[2][1]


    run_report(benchmark, _run)


def test_ablation_block_size(benchmark, report):
    def _run():
        rep = report(
            "ablation_block_size",
            f"block_n sweep (m=n={SIZE}, d=32, k=16, var1; ms)",
        )
        X, q, r = uniform_problem(SIZE, SIZE, 32, seed=2)
        times = {}
        for block_n in (128, 512, 2048, SIZE):
            times[block_n] = best_time(
                lambda: gsknn(X, q, r, 16, variant=1, block_n=block_n), repeats=3
            )
            rep.row(f"block_n={block_n:>6}: {times[block_n] * 1e3:.0f} ms")
        # mid-range blocks beat degenerate extremes on at least one side
        assert min(times.values()) <= times[128] + 1e-9


    run_report(benchmark, _run)


def test_ablation_panel_layout(benchmark, report):
    """Row-major vs depth-major reference panels, GEMMs only.

    Each tile is ``block_m // m`` panels of ``block_n`` columns, one
    GEMM per panel writing its column slice, as the plan's short-batch
    tiles do. Both layouts compute the same products; only the B
    operand's layout (and with it the BLAS route) differs. Timings are
    interleaved best-of-5 over one pass across all panels.
    """

    def _run():
        d, panels = 16, 64 * SCALE
        n = panels * DEFAULT_BLOCK_N
        rep = report(
            "ablation_panel_layout",
            f"Panel layout (n={n}, d={d}, block {DEFAULT_BLOCK_M}x"
            f"{DEFAULT_BLOCK_N}; folded tile GEMMs, ms per pass)\n"
            f"{'m':>5} {'row-major':>10} {'depth-major':>12} {'ratio':>6}",
        )
        rng = np.random.default_rng(5)
        R = rng.random((n, d))
        r2 = np.einsum("ij,ij->i", R, R)
        row_major, depth_major = [], []
        for j in range(0, n, DEFAULT_BLOCK_N):
            cols = slice(j, j + DEFAULT_BLOCK_N)
            Ra = np.empty((DEFAULT_BLOCK_N, d + 1))
            Ra[:, :d], Ra[:, d] = R[cols], r2[cols]
            row_major.append(Ra)
            depth_major.append(np.ascontiguousarray(Ra.T))
        for m in (1, 4, 16, 256):
            Qa = np.ones((m, d + 1))
            Qa[:, :d] = -2.0 * rng.random((m, d))
            per_tile = max(1, DEFAULT_BLOCK_M // m)
            tile = np.empty((m, per_tile * DEFAULT_BLOCK_N))

            def one_pass(panels_, transposed):
                for i, B in enumerate(panels_):
                    c = (i % per_tile) * DEFAULT_BLOCK_N
                    np.matmul(
                        Qa, B.T if transposed else B,
                        out=tile[:, c : c + DEFAULT_BLOCK_N],
                    )

            t_row = t_depth = np.inf
            for _ in range(5):
                t_row = min(t_row, best_time(lambda: one_pass(row_major, True), 1))
                t_depth = min(
                    t_depth, best_time(lambda: one_pass(depth_major, False), 1)
                )
            rep.row(
                f"{m:>5} {t_row * 1e3:>10.2f} {t_depth * 1e3:>12.2f} "
                f"{t_row / t_depth:>6.2f}"
            )

    run_report(benchmark, _run)


@pytest.mark.parametrize("variant", [1, 5])
def test_bench_filter_on_off(benchmark, variant):
    X, q, r = uniform_problem(SIZE, SIZE, 16, seed=3)
    benchmark.group = f"ablation filter m=n={SIZE} d=16 k=16"
    benchmark.name = {1: "var1 (filter)", 5: "var5 (no filter)"}[variant]
    benchmark(lambda: gsknn(X, q, r, 16, variant=variant))


def test_ablation_scheduling(benchmark, report):
    """§2.5's task-parallel claim: greedy first-termination scheduling on
    a runtime-sorted task list balances uneven leaf kernels better than
    naive round-robin. Makespans are modeled (the same estimates the
    production scheduler uses) over real rKD-tree leaf-size
    distributions."""

    def _run():
        import numpy as np

        from repro.data import embedded_gaussian
        from repro.model import PerformanceModel
        from repro.parallel import ScheduledTask, Schedule, lpt_schedule
        from repro.trees import RandomizedKDTree

        rep = report(
            "ablation_scheduling",
            "LPT vs round-robin makespan on rKD-tree leaf kernels "
            "(modeled, p=8)",
        )
        model = PerformanceModel()
        cloud = embedded_gaussian(8192, 32, intrinsic_dim=10, seed=0).points
        for leaf_size in (256, 512, 1024):
            tree = RandomizedKDTree(leaf_size=leaf_size, seed=1).fit(cloud)
            tasks = [
                ScheduledTask(
                    i,
                    model.estimate_kernel_runtime(
                        leaf.size, leaf.size, 32, min(16, leaf.size)
                    ),
                )
                for i, leaf in enumerate(tree.leaves)
            ]
            p = 8
            lpt = lpt_schedule(tasks, p)
            rr = Schedule(p, [[] for _ in range(p)])
            for i, task in enumerate(tasks):
                rr.assignments[i % p].append(task)
            rep.row(
                f"leaf={leaf_size:>5} ({len(tasks):>3} tasks): "
                f"LPT makespan {lpt.makespan * 1e3:7.2f} ms "
                f"(imbalance {lpt.imbalance:.3f}), "
                f"round-robin {rr.makespan * 1e3:7.2f} ms "
                f"(imbalance {rr.imbalance:.3f})"
            )
            assert lpt.makespan <= rr.makespan + 1e-12

    run_report(benchmark, _run)
