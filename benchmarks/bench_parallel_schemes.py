"""§2.5 — the two parallel schemes, at one core and at all cores.

The paper describes task parallelism (many small kernels, greedy list
scheduling on model-estimated runtimes) and data parallelism (one big
kernel split over the 4th loop). Neither has a paper table of its own —
they underlie the 10-core numbers of Figures 4-6 — so this bench
measures each scheme against itself on one core:

* **data parallelism**: one one-shot ``gsknn`` call (m=n=8192, d=16,
  k=16, the ledger's ``kernel_k16`` shape), whose row blocks go to the
  kernel's own row workers — one per usable core;
* **task parallelism**: ``gsknn_batch`` over uneven all-NN leaves
  (three tree iterations' shape: each splits the same 8192 rows into
  four leaves), LPT-scheduled onto ``p = cores`` threads.

"One core" narrows this process's affinity to its first usable core
(``os.sched_setaffinity``); "all cores" restores it. The kernel reads
the affinity on every call, so each switch holds from the next call. The
four configurations run interleaved, each once untimed, then
``REPEATS`` rounds; every gated number is a median of calls that each
take 100 ms or more, so host drift hits all four alike and the 0.75 CI
gate is not flipped by one slow call. Results are asserted bit-identical
across core counts.

The row workers take ``cores // BLAS threads`` cores, so run with
``OPENBLAS_NUM_THREADS=1`` (as CI does) to give them the host; the
record's ``problem.blas_threads`` says how it ran.

Every number lands in ``results/BENCH_parallel_schemes.json`` via
``rep.metric(...)`` so ``compare_runs.py`` can gate regressions against
the committed baseline in ``benchmarks/baselines/``.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core import workers
from repro.core.batch import KnnProblem, gsknn_batch
from repro.core.gsknn import gsknn
from repro.core.plan import PlanCache
from repro.core.table import TableHandle

from .conftest import run_report, SCALE, uniform_problem

SIZE = 8192 * SCALE
REPEATS = 5


def _leaves(n: int, seed: int, trees: int = 3) -> list[KnnProblem]:
    """Uneven all-NN leaves (query set = reference set): each of
    ``trees`` random partitions of the ``n`` rows into four leaves."""
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(trees):
        weights = rng.uniform(1.0, 3.0, 4)
        cuts = (np.cumsum(weights)[:-1] / weights.sum() * n).astype(int)
        for ids in np.split(rng.permutation(n), cuts):
            problems.append(KnnProblem(ids, ids, 16))
    return problems


def test_parallel_schemes_report(benchmark, report):
    def _run():
        all_cores = os.sched_getaffinity(0)
        one_core = {min(all_cores)}
        cores = len(all_cores)
        blas = workers.host_threads()[1]
        rep = report(
            "parallel_schemes",
            f"§2.5 parallel schemes (one-shot m=n={SIZE}, d=16, k=16; "
            f"3 x 4-leaf batch; {cores}-core host, {blas} BLAS thread(s), "
            f"median of {REPEATS})",
        )
        rep.problem(
            m=SIZE, n=SIZE, d=16, k=16, cores=cores, blas_threads=blas,
            repeats=REPEATS,
        )
        X, q, r = uniform_problem(SIZE, SIZE, 16, seed=0)
        table, plans = TableHandle(X), PlanCache(max_plans=32)
        leaves = _leaves(SIZE, seed=1)

        runs = {  # each returns a list of results
            "oneshot": lambda p: [gsknn(X, q, r, 16)],
            "batch": lambda p: gsknn_batch(
                table, leaves, p=p, plan_cache=plans
            ),
        }
        sides = (("1core", one_core), ("allcore", all_cores))
        configs = [
            (scheme, label, affinity)
            for scheme in runs
            for label, affinity in sides
        ]
        times: dict[tuple[str, str], list[float]] = {
            (s, lab): [] for s, lab, _ in configs
        }
        answers = {}
        try:
            for rnd in range(REPEATS + 1):  # round 0 warms, untimed
                for scheme, label, affinity in configs:
                    os.sched_setaffinity(0, affinity)
                    t0 = time.perf_counter()
                    out = runs[scheme](len(affinity))
                    elapsed = time.perf_counter() - t0
                    if rnd:
                        times[(scheme, label)].append(elapsed)
                    else:
                        answers[(scheme, label)] = out
        finally:
            os.sched_setaffinity(0, all_cores)

        for scheme in runs:
            one = answers[(scheme, "1core")]
            for a, b in zip(one, answers[(scheme, "allcore")]):
                assert np.array_equal(a.distances, b.distances)
                assert np.array_equal(a.indices, b.indices)
        rep.row("answers bit-identical at one core and at all cores")

        median = {key: float(np.median(ts)) for key, ts in times.items()}
        for (scheme, label), seconds in median.items():
            spread = max(times[(scheme, label)]) - min(times[(scheme, label)])
            rep.row(
                f"{scheme:>8} {label:>7}: median {seconds * 1e3:7.1f} ms "
                f"(range {spread * 1e3:.1f} ms)"
            )
            rep.metric(f"{scheme}_{label}_seconds", seconds)
        names = {"oneshot": "row_workers", "batch": "task_parallel"}
        for scheme, name in names.items():
            speedup = median[(scheme, "1core")] / median[(scheme, "allcore")]
            rep.row(f"{name} speedup, {cores} cores vs one: {speedup:.2f}x")
            rep.metric(f"{name}_speedup", speedup)

    run_report(benchmark, _run)
