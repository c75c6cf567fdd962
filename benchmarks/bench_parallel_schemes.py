"""§2.5 — the two parallel schemes and the three execution backends.

The paper describes task parallelism (many small kernels, greedy list
scheduling on model-estimated runtimes) and data parallelism (one big
kernel split over the 4th loop). Neither has a paper table of its own —
they underlie the 10-core numbers of Figures 4-6 — so this bench
reports the properties that make those numbers possible:

* **correctness under decomposition**: every execution backend
  (serial / threads / zero-copy shared-memory processes) produces
  bit-equal results on the same chunk decomposition (asserted);
* **backend cost**: wall clock of the data-parallel driver per backend
  at ``p = min(4, cores)``, plus the ``processes_speedup`` ratio the
  regression gate tracks — on a multi-core host the shared-memory
  backend must win for the selection-heavy Var#1 regime, on a 1-core
  host it reports its (honest) overhead;
* **balance quality**: LPT-scheduled batches of uneven kernels vs a
  serial sweep (printed and recorded).

Every number lands in ``results/BENCH_parallel_schemes.json`` via
``rep.metric(...)`` so ``compare_runs.py`` can gate regressions against
the committed baseline in ``benchmarks/baselines/``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.batch import KnnProblem, gsknn_batch
from repro.core.gsknn import gsknn
from repro.core.plan import PlanCache
from repro.core.table import TableHandle
from repro.parallel import gsknn_data_parallel

from .conftest import run_report, SCALE, best_time, uniform_problem

SIZE = 2048 * SCALE
BACKENDS = ("serial", "threads", "processes")


def test_parallel_schemes_report(benchmark, report):
    def _run():
        cores = os.cpu_count() or 1
        # at least 2 workers: p=1 short-circuits to the plain kernel and
        # would measure nothing about the backends
        p = max(2, min(4, cores))
        rep = report(
            "parallel_schemes",
            f"§2.5 parallel schemes (m=n={SIZE}, d=32, k=16; "
            f"{cores}-core host, p={p})",
        )
        rep.problem(m=SIZE, n=SIZE, d=32, k=16, p=p, cores=cores)
        X, q, r = uniform_problem(SIZE, SIZE, 32, seed=0)
        serial = best_time(lambda: gsknn(X, q, r, 16), repeats=3)
        rep.row(f"serial kernel: {serial * 1e3:.0f} ms")
        rep.metric("serial_kernel_seconds", serial)

        # one decomposition, three backends; bit-identity asserted
        # against the serial *backend* (same chunk list)
        base = gsknn_data_parallel(X, q, r, 16, p=p, backend="serial")
        times: dict[str, float] = {}
        for backend in BACKENDS:
            times[backend] = best_time(
                lambda: gsknn_data_parallel(X, q, r, 16, p=p,
                                            backend=backend),
                repeats=3,
            )
            rep.row(
                f"data-parallel backend={backend} p={p}: "
                f"{times[backend] * 1e3:.0f} ms "
                f"(vs serial kernel {times[backend] / serial - 1:+.1%})"
            )
            rep.metric(f"backend_{backend}_seconds", times[backend])
            res = gsknn_data_parallel(X, q, r, 16, p=p, backend=backend)
            assert np.array_equal(res.distances, base.distances)
            assert np.array_equal(res.indices, base.indices)
        rep.row("backend bit-identity on shared chunk list: asserted")
        # The acceptance ratio: >1 means the zero-copy process pool beat
        # the single-process serial kernel (expected on >= 2 cores).
        rep.metric("processes_speedup", serial / times["processes"])
        rep.metric("threads_speedup", serial / times["threads"])
        rep.row(
            f"processes speedup vs serial kernel: "
            f"{serial / times['processes']:.2f}x "
            f"(host has {cores} core(s))"
        )

        # acceptance-size Var#1 run (m=n=8192, d=16, k=128): serial
        # kernel vs the zero-copy process pool. Opt-in (seconds per
        # timing) — run with REPRO_BENCH_ACCEPTANCE=1 to refresh.
        if os.environ.get("REPRO_BENCH_ACCEPTANCE"):
            Xa, qa, ra = uniform_problem(8192, 8192, 16, seed=7)
            pa = min(8, cores) if cores > 1 else 2
            t_ser = best_time(
                lambda: gsknn(Xa, qa, ra, 128, variant=1), repeats=2
            )
            t_proc = best_time(
                lambda: gsknn_data_parallel(
                    Xa, qa, ra, 128, p=pa, backend="processes", variant=1
                ),
                repeats=2,
            )
            rep.row(
                f"acceptance m=n=8192 d=16 k=128 Var#1: serial "
                f"{t_ser:.2f} s, processes p={pa} {t_proc:.2f} s "
                f"({t_ser / t_proc:.2f}x on {cores} core(s))"
            )
            rep.metric("acceptance_serial_seconds", t_ser)
            rep.metric("acceptance_processes_seconds", t_proc)
            rep.metric("acceptance_processes_speedup", t_ser / t_proc)

        # task-parallel batch of uneven kernels
        rng = np.random.default_rng(1)
        problems = [
            KnnProblem(
                rng.integers(0, SIZE, int(s)),
                rng.choice(SIZE, size=int(2 * s), replace=False),
                8,
            )
            for s in rng.integers(SIZE // 32, SIZE // 4, 12)
        ]
        # one handle and one plan cache across every call, so each timed
        # repeat reuses the reference panels packed by the first
        table, plans = TableHandle(X), PlanCache(max_plans=32)

        def batch(p):
            return gsknn_batch(table, problems, p=p, plan_cache=plans)

        t_serial = best_time(lambda: batch(1), repeats=2)
        t_sched = best_time(lambda: batch(4), repeats=2)
        rep.row(
            f"batch of {len(problems)} uneven kernels: serial "
            f"{t_serial * 1e3:.0f} ms, LPT-scheduled p=4 "
            f"{t_sched * 1e3:.0f} ms"
        )
        rep.metric("batch_serial_seconds", t_serial)
        rep.metric("batch_lpt_seconds", t_sched)
        a, b = batch(1), batch(4)
        for x, y in zip(a, b):
            assert np.allclose(x.distances, y.distances, atol=1e-12)
        rep.row("decomposition correctness: serial == parallel (asserted)")

    run_report(benchmark, _run)


@pytest.mark.parametrize("p", [1, 2, 4])
def test_bench_data_parallel(benchmark, p):
    X, q, r = uniform_problem(SIZE, SIZE, 32, seed=2)
    benchmark.group = f"§2.5 data-parallel m=n={SIZE}"
    benchmark.name = f"p={p}"
    benchmark(lambda: gsknn_data_parallel(X, q, r, 16, p=p))


@pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
def test_bench_backends(benchmark, backend):
    X, q, r = uniform_problem(SIZE, SIZE, 32, seed=3)
    p = max(2, min(4, os.cpu_count() or 1))
    benchmark.group = f"§2.5 execution backends m=n={SIZE} p={p}"
    benchmark.name = backend
    benchmark(lambda: gsknn_data_parallel(X, q, r, 16, p=p, backend=backend))
