"""Command-line interface: ``repro-gsknn``.

Subcommands:

* ``kernel`` — run one kNN kernel (gsknn / gemm) on synthetic data and
  report timing, achieved GFLOPS, and the span-derived phase breakdown;
  the kernel deals its row blocks to the cores the process may use,
  ``--blocking tuned`` applies the persisted autotuner result, and
  ``--trace-out PATH`` also writes a ``chrome://tracing`` JSON;
* ``compare`` — run both kernels on the same problem and print the
  speedup (a one-problem slice of the Figure 6 grid); also accepts
  ``--blocking`` and ``--trace-out``;

``kernel``, ``compare``, ``stats`` and ``distributed`` additionally
take the resilience flags ``--deadline-ms`` (budget the solve; expiry
exits 3 with partial progress on stderr), ``--fault-plan SPEC``
(deterministic fault injection — see ``docs/RESILIENCE.md``), and
``--retries N``; with any of them the gsknn kernel runs as a schedule
of one task (a thread, fault scope ``"task"``, then inline in the
calling thread). Any ``resilience.*`` counters the run produced are
printed after the phase table.

* ``stats`` — run one kernel with full observability on and print the
  metrics-registry snapshot (``--json`` for the raw dict);
* ``allknn`` — run the approximate all-NN solver and report recall;
  ``--method graph`` answers with an NN-descent build, ``--method
  auto`` lets the recall-aware planner choose per ``--recall-target``;
  ``--shards S`` instead solves exactly through the scatter/gather
  shard router (real worker processes; see ``docs/DISTRIBUTED.md``)
  and ``--evaluate`` asserts bit-identity to the single-process solve;
* ``approx`` — the approximate tier directly: ``approx build`` grows
  an NN-descent graph index (optionally saved to ``.npz``), ``approx
  query`` beam-searches a saved index and reports recall, ``approx
  calibrate`` measures this host's recall/latency operating points and
  persists them for the recall-aware planner;
* ``tune`` — print the variant decision table, or with ``--budget
  {small,medium,large}`` run the persistent per-host autotuner and
  save the winner to the tuning cache;
* ``model`` — print the performance model's prediction (and the
  Var#1/Var#6 threshold) for a problem size;
* ``trace`` — run the cache-trace simulator and print DRAM traffic per
  kernel (``--json`` for machine-readable output);
* ``serve`` — start the micro-batching query service
  (:mod:`repro.serve`) over a synthetic table and drive it with the
  built-in multi-tenant closed-loop traffic generator; ``--tenants`` /
  ``--weights`` shape the load, ``--slo-ms`` sets per-request
  deadlines, ``--fault-plan`` injects window-level faults,
  ``--metrics-port`` exposes the live ``serve.*`` series on
  ``/metrics`` while the run is up, and ``--shards S`` scatter/gathers
  every exact window across S shard worker processes;
* ``distributed`` — the multi-rank all-NN projection;
  ``--transport process`` backs each rank's leaf solves with a real
  long-lived worker process instead of the in-process simulation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .config import BlockingParams, IVY_BRIDGE_BLOCKING
from .machine import IVY_BRIDGE, TINY_MACHINE, KnnTraceSimulator
from .obs import enable_metrics, enable_tracing, disable_tracing
from .obs.adapters import absorb_tracer
from .perf.gflops import gflops

__all__ = ["main", "build_parser"]


def _print_phase_table(snapshot: dict, total_seconds: float) -> None:
    """Render ``phase.*`` histograms as a Table-5-style breakdown."""
    rows = []
    for name, hist in snapshot["histograms"].items():
        if not name.startswith("phase."):
            continue
        phase = name[len("phase.") :]
        spans = snapshot["counters"].get(f"{name}.spans", hist["count"])
        rows.append((phase, int(spans), hist["sum"]))
    if not rows:
        return
    rows.sort(key=lambda r: -r[2])
    covered = sum(r[2] for r in rows)
    print(f"{'phase':>12} {'spans':>7} {'ms':>9} {'%':>6}")
    for phase, spans, seconds in rows:
        pct = 100.0 * seconds / total_seconds if total_seconds > 0 else 0.0
        print(f"{phase:>12} {spans:>7} {seconds * 1e3:>9.2f} {pct:>5.1f}%")
    untraced = max(total_seconds - covered, 0.0)
    pct = 100.0 * untraced / total_seconds if total_seconds > 0 else 0.0
    print(f"{'(untraced)':>12} {'':>7} {untraced * 1e3:>9.2f} {pct:>5.1f}%")


def _export_trace(tracer, trace_out: str) -> int:
    """Write the Chrome trace; a bad path is a clean error, not a traceback."""
    try:
        path = tracer.export_chrome(trace_out)
    except OSError as exc:
        print(f"error: cannot write trace to {trace_out}: {exc}", file=sys.stderr)
        return 1
    print(f"trace written to {path} ({len(tracer)} spans)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gsknn",
        description="GSKNN reproduction (Yu et al., SC'15) command line",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("-m", type=int, default=2048, help="queries")
        p.add_argument("-n", type=int, default=2048, help="references")
        p.add_argument("-d", type=int, default=64, help="dimension")
        p.add_argument("-k", type=int, default=16, help="neighbors")
        p.add_argument("--seed", type=int, default=0)

    def add_resilience_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--deadline-ms",
            type=float,
            default=None,
            metavar="MS",
            help="wall-clock budget for the solve; expiry raises a clean "
            "KernelTimeoutError with partial-progress metadata",
        )
        p.add_argument(
            "--fault-plan",
            type=str,
            default=None,
            metavar="SPEC",
            help="deterministic fault injection, e.g. "
            "'seed=7,crash=0.3,slow=0.2,slow_ms=20' "
            "(also read from $REPRO_FAULT_PLAN)",
        )
        p.add_argument(
            "--retries",
            type=int,
            default=None,
            metavar="N",
            help="max attempts per rung before falling back to the next "
            "(default 3)",
        )

    def add_kernel_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--blocking",
            choices=("default", "tuned"),
            default="default",
            help="'tuned' applies this host's persisted autotuner result",
        )
        p.add_argument(
            "--memory-budget",
            type=str,
            default=None,
            metavar="BYTES",
            help="cap the kernel workspace (e.g. '64MiB'); budgeted solves "
            "stream reference panels and refuse allocations over the cap "
            "(gsknn only; see docs/MEMORY.md)",
        )

    kern = sub.add_parser("kernel", help="run one kernel on synthetic data")
    add_problem_args(kern)
    kern.add_argument(
        "--kernel", choices=("gsknn", "gemm"), default="gsknn"
    )
    kern.add_argument("--norm", default="l2")
    kern.add_argument("--variant", default="auto")
    add_kernel_args(kern)
    kern.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="run the solve N times and report the cold/warm split "
        "(first call vs best repeat)",
    )
    kern.add_argument(
        "--plan",
        action="store_true",
        help="run through a reusable GsknnPlan (cached reference panels "
        "+ workspace arena); repeats then reuse the plan's state "
        "(gsknn only, in-process)",
    )
    kern.add_argument(
        "--trace-out",
        type=str,
        default=None,
        metavar="PATH",
        help="write a chrome://tracing JSON of the run to PATH",
    )
    kern.add_argument(
        "--recall-target",
        type=float,
        default=None,
        metavar="R",
        help="let the recall-aware planner route the solve through the "
        "approximate graph tier when calibration says it is cheaper "
        "(build charged too); default exact",
    )
    add_resilience_args(kern)

    comp = sub.add_parser("compare", help="GSKNN vs GEMM approach")
    add_problem_args(comp)
    comp.add_argument("--repeats", type=int, default=3)
    add_kernel_args(comp)
    add_resilience_args(comp)
    comp.add_argument(
        "--trace-out",
        type=str,
        default=None,
        metavar="PATH",
        help="write a chrome://tracing JSON covering both kernels to PATH",
    )

    stats = sub.add_parser(
        "stats", help="run one kernel and print the metrics snapshot"
    )
    add_problem_args(stats)
    add_kernel_args(stats)
    add_resilience_args(stats)
    stats.add_argument("--kernel", choices=("gsknn", "gemm"), default="gsknn")
    stats.add_argument("--norm", default="l2")
    stats.add_argument("--variant", default="auto")
    stats.add_argument(
        "--efficiency",
        action="store_true",
        help="print the model-anchored efficiency table "
        "(achieved vs predicted GFLOP/s per variant/scope)",
    )
    stats.add_argument(
        "--serve",
        type=int,
        default=None,
        metavar="PORT",
        help="serve a Prometheus /metrics endpoint on PORT (0 = ephemeral) "
        "while the kernel runs",
    )
    stats.add_argument(
        "--serve-seconds",
        type=float,
        default=0.0,
        help="keep the /metrics endpoint up this many seconds after the "
        "run so an external scraper can collect (needs --serve)",
    )
    stats.add_argument(
        "--json", action="store_true", help="print the raw snapshot dict"
    )

    aknn = sub.add_parser("allknn", help="approximate all-NN solver")
    aknn.add_argument("-N", type=int, default=8192)
    aknn.add_argument("-d", type=int, default=32)
    aknn.add_argument("-k", type=int, default=16)
    aknn.add_argument(
        "--method",
        choices=("rkdtree", "rptree", "lsh", "graph", "auto"),
        default="rkdtree",
    )
    aknn.add_argument("--kernel", choices=("gsknn", "gemm"), default="gsknn")
    aknn.add_argument("--leaf-size", type=int, default=512)
    aknn.add_argument("--iterations", type=int, default=8)
    aknn.add_argument("--seed", type=int, default=0)
    aknn.add_argument(
        "--recall-target",
        type=float,
        default=None,
        metavar="R",
        help="with --method auto: the recall the planner must meet "
        "(None or >= 0.999 means exact)",
    )
    aknn.add_argument(
        "--evaluate", action="store_true", help="also compute exact recall"
    )
    aknn.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="S",
        help="solve exactly through the scatter/gather shard router with "
        "S worker processes instead of an approximate method "
        "(--evaluate then asserts bit-identity to one in-process solve)",
    )
    aknn.add_argument(
        "--shard-transport",
        choices=("process", "local"),
        default="process",
        help="with --shards: worker processes over shared memory, or the "
        "in-process deterministic twin",
    )

    approx = sub.add_parser(
        "approx", help="approximate tier: graph index build / beam query"
    )
    asub = approx.add_subparsers(dest="approx_command", required=True)
    ab = asub.add_parser(
        "build", help="NN-descent graph index over synthetic data"
    )
    ab.add_argument("-N", type=int, default=8192)
    ab.add_argument("-d", type=int, default=16)
    ab.add_argument("--k-build", type=int, default=16)
    ab.add_argument("--rounds", type=int, default=8)
    ab.add_argument("--seed", type=int, default=0)
    ab.add_argument(
        "--out",
        type=str,
        default=None,
        metavar="PATH",
        help="save the index (.npz; self-contained, coordinates embedded)",
    )
    ab.add_argument(
        "--evaluate",
        action="store_true",
        help="also track the build's recall vs exact per round",
    )
    aq = asub.add_parser(
        "query", help="beam-search a saved index with sampled table rows"
    )
    aq.add_argument("--index", type=str, required=True, metavar="PATH")
    aq.add_argument(
        "-m", type=int, default=256, help="queries (sampled table rows)"
    )
    aq.add_argument("-k", type=int, default=10)
    aq.add_argument("--ef", type=int, default=None, help="beam pool width")
    aq.add_argument("--expand", type=int, default=4)
    aq.add_argument("--max-hops", type=int, default=None)
    aq.add_argument(
        "--no-rerank",
        action="store_true",
        help="skip the exact float64 re-rank of the final pool",
    )
    aq.add_argument("--seed", type=int, default=0)
    aq.add_argument(
        "--evaluate", action="store_true", help="recall vs brute force"
    )
    ac = asub.add_parser(
        "calibrate",
        help="measure recall/latency operating points on this host and "
        "persist them for the recall-aware planner",
    )
    ac.add_argument("-N", type=int, default=4096)
    ac.add_argument("-d", type=int, default=16)
    ac.add_argument("-k", type=int, default=10)
    ac.add_argument("--seed", type=int, default=0)
    ac.add_argument(
        "--sample-queries", type=int, default=128,
        help="rows sampled for recall measurement",
    )
    ac.add_argument(
        "--repeats", type=int, default=2, help="timing repeats per knob"
    )
    ac.add_argument(
        "--cache",
        type=str,
        default=None,
        metavar="PATH",
        help="planner cache file (default $REPRO_PLANNER_CACHE or "
        "planner.json next to the tuning cache)",
    )
    ac.add_argument(
        "--dry-run",
        action="store_true",
        help="measure and print but do not persist the calibration",
    )
    ac.add_argument(
        "--json", action="store_true", help="print the calibration as JSON"
    )

    model = sub.add_parser("model", help="performance-model prediction")
    add_problem_args(model)
    model.add_argument("--cores", type=int, default=1)

    trace = sub.add_parser("trace", help="cache-trace simulation")
    add_problem_args(trace)
    trace.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    tune = sub.add_parser(
        "tune",
        help="variant decision table, or (with --budget) the per-host "
        "autotuner",
    )
    add_problem_args(tune)
    tune.add_argument(
        "--measured",
        action="store_true",
        help="build the table from timings instead of the model",
    )
    tune.add_argument("--save", type=str, default=None, help="JSON output path")
    tune.add_argument(
        "--budget",
        choices=("small", "medium", "large"),
        default=None,
        help="run the persistent autotuner (blocking, switch-k) at this "
        "budget and save the winner per host",
    )
    tune.add_argument(
        "--cache",
        type=str,
        default=None,
        metavar="PATH",
        help="tuning cache file (default $REPRO_TUNE_CACHE or "
        "~/.cache/repro-gsknn/tuning.json)",
    )
    tune.add_argument(
        "--dry-run",
        action="store_true",
        help="with --budget: search but do not persist the winner",
    )

    serve = sub.add_parser(
        "serve",
        help="micro-batching query service under built-in closed-loop load",
    )
    serve.add_argument("-N", type=int, default=4096, help="reference rows")
    serve.add_argument("-d", type=int, default=32, help="dimension")
    serve.add_argument("-k", type=int, default=8, help="neighbors per query")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--rows", type=int, default=4, help="query rows per request"
    )
    serve.add_argument(
        "--clients", type=int, default=8, help="closed-loop client threads"
    )
    serve.add_argument(
        "--duration-seconds", type=float, default=5.0, help="load duration"
    )
    serve.add_argument(
        "--tenants",
        type=str,
        default=None,
        metavar="SPEC",
        help="client counts per tenant, e.g. 'search=4,batch=2,ads=2' "
        "(must sum to --clients; default: all on one tenant)",
    )
    serve.add_argument(
        "--weights",
        type=str,
        default=None,
        metavar="SPEC",
        help="weighted-round-robin dequeue weights, e.g. 'search=4,ads=1'",
    )
    serve.add_argument("--max-batch", type=int, default=64)
    serve.add_argument("--max-wait-ms", type=float, default=2.0)
    serve.add_argument("--max-queue-depth", type=int, default=256)
    serve.add_argument(
        "--policy",
        choices=("model", "fixed"),
        default="model",
        help="'model' closes windows when the performance model says "
        "batching stops paying; 'fixed' always waits the full window",
    )
    serve.add_argument(
        "--slo-ms",
        type=float,
        default=None,
        metavar="MS",
        help="per-request deadline; expired-in-queue requests fail fast",
    )
    serve.add_argument(
        "--fault-plan",
        type=str,
        default=None,
        metavar="SPEC",
        help="deterministic fault injection at window granularity "
        "(also read from $REPRO_FAULT_PLAN)",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve a Prometheus /metrics endpoint on PORT (0 = ephemeral) "
        "for the duration of the run",
    )
    serve.add_argument(
        "--serve-seconds",
        type=float,
        default=0.0,
        help="keep /metrics up this many seconds after the load finishes "
        "(needs --metrics-port)",
    )
    serve.add_argument(
        "--recall-target",
        type=float,
        default=None,
        metavar="R",
        help="build a graph index over the table before serving and tag "
        "every generated request with this recall target (the planner "
        "still decides exact-vs-graph per request)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="S",
        help="scatter/gather every exact window across S shard worker "
        "processes (bit-identical to the in-process solve; 0 = off)",
    )
    serve.add_argument(
        "--shard-transport",
        choices=("process", "local"),
        default="process",
        help="with --shards: worker processes over shared memory, or the "
        "in-process deterministic twin",
    )
    serve.add_argument(
        "--memory-budget",
        type=str,
        default=None,
        metavar="BYTES",
        help="cap the service's fused-solve workspace (e.g. '64MiB'); one "
        "budget is shared across every window (see docs/MEMORY.md)",
    )
    serve.add_argument(
        "--json", action="store_true", help="print the summary as JSON"
    )

    dist = sub.add_parser(
        "distributed", help="simulated multi-rank all-NN projection"
    )
    dist.add_argument("-N", type=int, default=8192)
    dist.add_argument("-d", type=int, default=32)
    dist.add_argument("-k", type=int, default=16)
    dist.add_argument("--ranks", type=int, default=8)
    dist.add_argument("--leaf-size", type=int, default=512)
    dist.add_argument("--iterations", type=int, default=2)
    dist.add_argument("--kernel", choices=("gsknn", "gemm"), default="gsknn")
    dist.add_argument("--seed", type=int, default=0)
    dist.add_argument(
        "--transport",
        choices=("sim", "process"),
        default="sim",
        help="'sim' runs ranks in-process with modelled communication; "
        "'process' backs each rank's leaf solves with a long-lived "
        "worker process (gsknn only; results are bit-identical)",
    )
    add_resilience_args(dist)

    return parser


def _resilience_kwargs(args: argparse.Namespace) -> dict:
    """deadline/retry/fault_plan kwargs from CLI flags ({} when unused)."""
    kwargs: dict = {}
    deadline_ms = getattr(args, "deadline_ms", None)
    if deadline_ms is not None:
        kwargs["deadline"] = deadline_ms / 1e3
    fault_plan = getattr(args, "fault_plan", None)
    if fault_plan is not None:
        kwargs["fault_plan"] = fault_plan
    retries = getattr(args, "retries", None)
    if retries is not None:
        from .resilience import RetryPolicy

        kwargs["retry"] = RetryPolicy(max_attempts=retries)
    return kwargs


def _print_resilience_counters(snapshot: dict) -> None:
    rows = {
        name: value
        for name, value in snapshot["counters"].items()
        if name.startswith("resilience.")
    }
    if not rows:
        return
    print("resilience:")
    for name, value in sorted(rows.items()):
        print(f"  {name:<32} {value}")


def _print_budget_error(exc) -> int:
    """Render a MemoryBudgetError cleanly; exit code 4 = budget refused."""
    print(f"memory budget exceeded: {exc}", file=sys.stderr)
    return 4


def _print_timeout(exc) -> int:
    """Render a KernelTimeoutError cleanly; exit code 3 = deadline hit."""
    budget = f"{exc.budget * 1e3:.0f} ms" if exc.budget else "?"
    elapsed = f"{exc.elapsed * 1e3:.0f} ms" if exc.elapsed else "?"
    progress = (
        " ".join(f"{k}={v}" for k, v in exc.partial.items())
        if exc.partial
        else "none"
    )
    print(
        f"deadline exceeded: budget={budget} elapsed={elapsed} "
        f"site={exc.site or '?'} progress: {progress}",
        file=sys.stderr,
    )
    return 3


def _resilient(solve, res_kwargs: dict):
    """``solve()`` run as a one-task schedule, or plainly without flags.

    The task runs on one thread (fault scope ``"task"``), then inline in
    the calling thread, fault-free; ``retry`` defaults to
    :class:`~repro.resilience.RetryPolicy` so that second rung is
    always there.
    """
    if not res_kwargs:
        return solve()
    from .parallel.scheduler import Schedule, ScheduledTask, execute_schedule
    from .resilience import RetryPolicy

    res_kwargs = {"retry": RetryPolicy(), **res_kwargs}
    schedule = Schedule(1, [[ScheduledTask(0, 0.0)]])
    return execute_schedule(
        schedule, lambda _task: solve(), backend="threads", **res_kwargs
    )[0]


def _run_one_kernel(args: argparse.Namespace):
    from .core.gsknn import gsknn
    from .core.ref_kernel import ref_knn
    from .data import uniform_hypercube

    ds = uniform_hypercube(max(args.m, args.n), args.d, seed=args.seed)
    q = np.arange(args.m)
    r = np.arange(args.n)
    blocking = getattr(args, "blocking", "default")
    kwargs = {"norm": args.norm}
    res_kwargs = _resilience_kwargs(args)
    membudget = getattr(args, "memory_budget", None)
    if membudget is not None and args.kernel != "gsknn":
        print("--memory-budget requires --kernel gsknn", file=sys.stderr)
        raise SystemExit(2)
    if args.kernel == "gsknn":
        kwargs.update(
            variant=args.variant,
            blocking=None if blocking == "default" else blocking,
            memory_budget=membudget,
        )
        runner = gsknn
    else:
        runner = ref_knn
        res_kwargs = {}
    t0 = time.perf_counter()
    result = _resilient(
        lambda: runner(ds.points, q, r, args.k, **kwargs), res_kwargs
    )
    elapsed = time.perf_counter() - t0
    return result, elapsed


def _run_plan_kernel(args: argparse.Namespace, repeat: int):
    """Cold plan build+execute, then warm repeats against the same plan."""
    from .core.plan import GsknnPlan
    from .data import uniform_hypercube

    ds = uniform_hypercube(max(args.m, args.n), args.d, seed=args.seed)
    q = np.arange(args.m)
    r = np.arange(args.n)
    blocking = getattr(args, "blocking", "default")
    blocking = None if blocking == "default" else blocking
    t0 = time.perf_counter()
    plan = GsknnPlan(
        ds.points, r, norm=args.norm, variant=args.variant, blocking=blocking,
        memory_budget=getattr(args, "memory_budget", None),
    )
    result = plan.execute(q, args.k)
    cold = time.perf_counter() - t0
    warm: list[float] = []
    for _ in range(repeat - 1):
        t0 = time.perf_counter()
        result = plan.execute(q, args.k)
        warm.append(time.perf_counter() - t0)
    return result, cold, warm


def _cmd_kernel_approx(args: argparse.Namespace) -> int:
    """``kernel --recall-target R``: planner-routed solve.

    Consults the per-host calibration with the build cost charged
    (one-shot workload); a graph decision builds the index and beam
    searches, anything else (including every fallback) runs the exact
    kernel exactly as without the flag.
    """
    from .approx import QueryPlanner, beam_search, build_graph_index
    from .data import uniform_hypercube

    planner = QueryPlanner()
    decision = planner.plan(
        args.n, args.d, args.k, args.recall_target,
        workload="query", m_queries=args.m, include_build=True,
    )
    fb = " [fallback]" if decision.fallback else ""
    print(f"planner: {decision.method} ({decision.reason}){fb}")
    if decision.method != "graph":
        result, elapsed = _run_one_kernel(args)
        print(
            f"gsknn: m={args.m} n={args.n} d={args.d} k={args.k} "
            f"time={elapsed * 1e3:.1f} ms "
            f"gflops={gflops(args.m, args.n, args.d, elapsed):.2f}"
        )
        print(f"first query neighbors: {result.indices[0][: min(args.k, 8)]}")
        return 0
    ds = uniform_hypercube(max(args.m, args.n), args.d, seed=args.seed)
    t0 = time.perf_counter()
    index = build_graph_index(
        ds.points[: args.n],
        k_build=max(args.k, 16),
        seed=args.seed,
    )
    build_seconds = time.perf_counter() - t0
    Q = ds.points[: args.m]
    params = decision.params
    mh = params.get("max_hops")
    t0 = time.perf_counter()
    result = beam_search(
        index,
        Q,
        args.k,
        ef=params.get("ef"),
        expand=int(params.get("expand", 4)),
        max_hops=None if mh is None else int(mh),
    )
    elapsed = time.perf_counter() - t0
    print(
        f"graph: m={args.m} n={args.n} d={args.d} k={args.k} "
        f"build={build_seconds:.2f}s query={elapsed * 1e3:.1f} ms "
        f"(expected recall {decision.expected_recall:.3f})"
    )
    print(f"first query neighbors: {result.indices[0][: min(args.k, 8)]}")
    return 0


def _cmd_kernel(args: argparse.Namespace) -> int:
    if args.plan and args.kernel != "gsknn":
        print("--plan requires --kernel gsknn", file=sys.stderr)
        return 2
    if args.recall_target is not None:
        if args.kernel != "gsknn" or args.plan:
            print(
                "--recall-target requires --kernel gsknn without --plan",
                file=sys.stderr,
            )
            return 2
        return _cmd_kernel_approx(args)
    from .errors import KernelTimeoutError, MemoryBudgetError
    from .obs.context import RequestContext, request_scope

    repeat = max(1, int(args.repeat))
    registry = enable_metrics()
    tracer = enable_tracing()
    # one request id per CLI invocation: every span of the run (driver,
    # worker, retry rung) carries it, so a --trace-out file is greppable
    # by request even after merging with other traces
    ctx = RequestContext.new(tenant="cli")
    try:
        with request_scope(ctx):
            if args.plan:
                result, elapsed, warm = _run_plan_kernel(args, repeat)
            else:
                result, elapsed = _run_one_kernel(args)
                warm = []
                for _ in range(repeat - 1):
                    result, t_rep = _run_one_kernel(args)
                    warm.append(t_rep)
    except KernelTimeoutError as exc:
        return _print_timeout(exc)
    except MemoryBudgetError as exc:
        return _print_budget_error(exc)
    finally:
        disable_tracing()
    absorb_tracer(tracer, registry)
    suffix = " [plan: cold build+execute]" if args.plan else ""
    print(
        f"{args.kernel}: m={args.m} n={args.n} d={args.d} k={args.k} "
        f"time={elapsed * 1e3:.1f} ms "
        f"gflops={gflops(args.m, args.n, args.d, elapsed):.2f}{suffix}"
    )
    if warm:
        best = min(warm)
        print(
            f"warm repeats: n={len(warm)} best={best * 1e3:.1f} ms "
            f"gflops={gflops(args.m, args.n, args.d, best):.2f} "
            f"warm-vs-cold speedup={elapsed / best:.2f}x"
        )
    snapshot = registry.snapshot()
    _print_phase_table(snapshot, elapsed + sum(warm))
    _print_resilience_counters(snapshot)
    print(f"first query neighbors: {result.indices[0][: min(args.k, 8)]}")
    if args.trace_out:
        return _export_trace(tracer, args.trace_out)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .core.gsknn import gsknn
    from .core.ref_kernel import ref_knn
    from .data import uniform_hypercube

    ds = uniform_hypercube(max(args.m, args.n), args.d, seed=args.seed)
    q = np.arange(args.m)
    r = np.arange(args.n)
    blocking = None if args.blocking == "default" else args.blocking
    res_kwargs = _resilience_kwargs(args)

    def gsknn_runner(X, q, r, k):
        return _resilient(
            lambda: gsknn(
                X, q, r, k, blocking=blocking,
                memory_budget=args.memory_budget,
            ),
            res_kwargs,
        )

    registry = enable_metrics()
    tracer = enable_tracing()

    def best_of(fn, name: str) -> float:
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            with tracer.span("run", kernel=name):
                fn(ds.points, q, r, args.k)
            times.append(time.perf_counter() - t0)
        return min(times)

    from .errors import KernelTimeoutError
    from .obs.context import RequestContext, request_scope

    try:
        with request_scope(RequestContext.new(tenant="cli")):
            t_gsknn = best_of(gsknn_runner, "gsknn")
            t_gemm = best_of(ref_knn, "gemm")
    except KernelTimeoutError as exc:
        return _print_timeout(exc)
    finally:
        disable_tracing()
    absorb_tracer(tracer, registry)
    print(
        f"m={args.m} n={args.n} d={args.d} k={args.k}  "
        f"gsknn={t_gsknn * 1e3:.1f} ms  gemm={t_gemm * 1e3:.1f} ms  "
        f"speedup={t_gemm / t_gsknn:.2f}x"
    )
    # phase totals cover every repeat of both kernels
    total = sum(s.duration for s in tracer.roots())
    snapshot = registry.snapshot()
    _print_phase_table(snapshot, total)
    _print_resilience_counters(snapshot)
    if args.trace_out:
        return _export_trace(tracer, args.trace_out)
    return 0


def _print_efficiency_table(snapshot: dict) -> None:
    """Render ``efficiency.*`` series as an achieved-vs-model table."""
    from .obs.efficiency import efficiency_floor
    from .obs.metrics import split_key

    rows: dict[tuple[str, str], dict] = {}

    def absorb(key: str, value) -> None:
        name, labels = split_key(key)
        if not name.startswith("efficiency."):
            return
        slot = rows.setdefault(
            (labels.get("variant", "?"), labels.get("scope", "?")), {}
        )
        slot[name[len("efficiency."):]] = value

    for key, value in snapshot["gauges"].items():
        absorb(key, value)
    for key, value in snapshot["counters"].items():
        absorb(key, value)
    if not rows:
        print("efficiency: no solves recorded")
        return

    def fmt(value, width: int, spec: str) -> str:
        if value is None:
            return f"{'-':>{width}}"
        return f"{value:>{width}{spec}}"

    print(f"efficiency (model-anchored, anomaly floor {efficiency_floor():g}):")
    print(
        f"{'variant':>8} {'scope':>7} {'solves':>7} {'achieved':>9} "
        f"{'model':>8} {'ratio':>6} {'MB moved':>9} {'anom':>5}"
    )
    for (variant, scope), slot in sorted(rows.items()):
        print(
            f"{variant:>8} {scope:>7} {int(slot.get('solves', 0)):>7} "
            + fmt(slot.get("achieved_gflops"), 9, ".2f") + " "
            + fmt(slot.get("model_gflops"), 8, ".2f") + " "
            + fmt(slot.get("model_ratio"), 6, ".3f") + " "
            + f"{slot.get('est_bytes_moved', 0) / 1e6:>9.2f} "
            + f"{int(slot.get('anomalies', 0)):>5}"
        )


def _cmd_stats(args: argparse.Namespace) -> int:
    from .obs.context import RequestContext, request_scope
    from .obs.exporters import MetricsHTTPServer

    registry = enable_metrics()
    tracer = enable_tracing()
    ctx = RequestContext.new(tenant="cli")
    server = None
    if args.serve is not None:
        server = MetricsHTTPServer(port=args.serve, registry=registry)
        server.start()
        print(f"serving metrics at {server.url}")
    try:
        try:
            with request_scope(ctx):
                _, elapsed = _run_one_kernel(args)
        finally:
            disable_tracing()
        absorb_tracer(tracer, registry)
        snapshot = registry.snapshot()
        if args.json:
            print(json.dumps(snapshot, indent=1, sort_keys=True))
        else:
            _print_stats_tables(args, snapshot, elapsed)
        if server is not None and args.serve_seconds > 0:
            time.sleep(args.serve_seconds)
    finally:
        if server is not None:
            server.stop()
    return 0


def _print_stats_tables(
    args: argparse.Namespace, snapshot: dict, elapsed: float
) -> None:
    print(
        f"{args.kernel}: m={args.m} n={args.n} d={args.d} k={args.k} "
        f"time={elapsed * 1e3:.1f} ms"
    )
    if args.efficiency:
        _print_efficiency_table(snapshot)
    _print_phase_table(snapshot, elapsed)
    if snapshot["counters"]:
        print("counters:")
        for name, value in snapshot["counters"].items():
            print(f"  {name:<32} {value}")
    if snapshot["gauges"]:
        print("gauges:")
        for name, value in snapshot["gauges"].items():
            print(f"  {name:<32} {value:.4g}")
    hist_rows = [
        (name, h)
        for name, h in snapshot["histograms"].items()
        if not name.startswith("phase.")
    ]
    if hist_rows:
        print("histograms:")
        for name, h in hist_rows:
            print(
                f"  {name:<32} count={h['count']} mean={h['mean']:.4g} "
                f"max={h['max']:.4g}"
            )


def _cmd_allknn(args: argparse.Namespace) -> int:
    from .data import embedded_gaussian
    from .trees import all_nearest_neighbors, exact_all_knn
    from .core.neighbors import recall

    ds = embedded_gaussian(
        args.N, args.d, intrinsic_dim=min(10, args.d), seed=args.seed
    )
    if args.shards:
        return _cmd_allknn_sharded(args, ds.points)
    truth = exact_all_knn(ds.points, args.k) if args.evaluate else None
    report = all_nearest_neighbors(
        ds.points,
        args.k,
        method=args.method,
        kernel=args.kernel,
        leaf_size=args.leaf_size,
        iterations=args.iterations,
        seed=args.seed,
        truth=truth,
        recall_target=args.recall_target,
    )
    label = args.method
    if report.method_used and report.method_used != args.method:
        label = f"{args.method}->{report.method_used}"
    print(
        f"{label}+{args.kernel}: N={args.N} d={args.d} k={args.k} "
        f"iters={report.iterations} total={report.total_seconds:.2f}s "
        f"kernel={report.kernel_seconds:.2f}s "
        f"({report.kernel_fraction:.0%} in kernel)"
    )
    if report.decision is not None:
        fb = " [fallback]" if report.decision.fallback else ""
        print(f"  planner: {report.decision.reason}{fb}")
    if truth is not None:
        print(f"final recall: {recall(report.result, truth):.4f}")
    return 0


def _cmd_allknn_sharded(args: argparse.Namespace, X: np.ndarray) -> int:
    """``allknn --shards S``: exact all-NN through the shard router."""
    from .shard import ShardedAllKnn

    q = np.arange(args.N, dtype=np.intp)
    with ShardedAllKnn(
        X, args.shards, transport=args.shard_transport
    ) as router:
        t0 = time.perf_counter()
        result = router.solve(q, args.k)
        elapsed = time.perf_counter() - t0
        sizes = router.stats()["shard_sizes"]
        print(
            f"sharded gsknn [{args.shard_transport} x{args.shards}]: "
            f"N={args.N} d={args.d} k={args.k} "
            f"time={elapsed * 1e3:.1f} ms "
            f"gflops={gflops(args.N, args.N, args.d, elapsed):.2f}"
        )
        print(
            f"  shard rows: {sizes} "
            f"(panel width {router.stats()['panel_width']})"
        )
        if args.evaluate:
            t0 = time.perf_counter()
            single = router.solve_reference(q, args.k)
            t_single = time.perf_counter() - t0
            identical = np.array_equal(
                result.indices, single.indices
            ) and np.array_equal(result.distances, single.distances)
            print(
                f"  single-process: {t_single * 1e3:.1f} ms  "
                f"bit-identical: {identical}"
            )
            if not identical:
                print(
                    "error: sharded result diverged from the "
                    "single-process solve",
                    file=sys.stderr,
                )
                return 1
    return 0


def _cmd_approx(args: argparse.Namespace) -> int:
    return {
        "build": _cmd_approx_build,
        "query": _cmd_approx_query,
        "calibrate": _cmd_approx_calibrate,
    }[args.approx_command](args)


def _cmd_approx_build(args: argparse.Namespace) -> int:
    from .approx import build_graph_index
    from .data import embedded_gaussian
    from .trees import exact_all_knn

    ds = embedded_gaussian(
        args.N, args.d, intrinsic_dim=min(10, args.d), seed=args.seed
    )
    truth = None
    if args.evaluate:
        truth = exact_all_knn(ds.points, min(args.k_build, args.N - 1))
    index = build_graph_index(
        ds.points,
        k_build=args.k_build,
        rounds=args.rounds,
        seed=args.seed,
        truth=truth,
    )
    rep = index.build_report
    print(
        f"graph: N={args.N} d={args.d} k_build={args.k_build} "
        f"rounds={rep.rounds} converged={rep.converged}"
    )
    print(
        f"  init {rep.init_seconds:.2f}s + refine {rep.refine_seconds:.2f}s "
        f"= {rep.total_seconds:.2f}s "
        f"({rep.candidate_evals} candidate evals, "
        f"{index.entry_points.size} entry points, "
        f"adjacency width {index.adjacency.shape[1]})"
    )
    if rep.recall_curve:
        print(f"  build recall: {rep.recall_curve[-1]:.4f}")
    if args.out:
        path = index.save(args.out)
        print(f"  saved to {path}")
    return 0


def _cmd_approx_query(args: argparse.Namespace) -> int:
    from .approx import GraphIndex, beam_search
    from .core.gsknn import gsknn
    from .core.neighbors import recall

    try:
        index = GraphIndex.load(args.index)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: cannot load index {args.index}: {exc}", file=sys.stderr)
        return 2
    n = index.X.shape[0]
    rng = np.random.default_rng(args.seed)
    q = np.sort(rng.choice(n, size=min(args.m, n), replace=False))
    Q = index.X[q]
    t0 = time.perf_counter()
    result, stats = beam_search(
        index,
        Q,
        args.k,
        ef=args.ef,
        expand=args.expand,
        max_hops=args.max_hops,
        rerank=not args.no_rerank,
        return_stats=True,
    )
    elapsed = time.perf_counter() - t0
    per_query_us = elapsed / max(q.size, 1) * 1e6
    print(
        f"beam: m={q.size} k={args.k} ef={args.ef or 'auto'} "
        f"expand={args.expand} rerank={not args.no_rerank} "
        f"time={elapsed * 1e3:.1f} ms ({per_query_us:.0f} us/query)"
    )
    print(
        f"  hops={stats.hops} candidate_evals={stats.candidate_evals} "
        f"entry_evals={stats.entry_evals} "
        f"rerank_fraction={stats.rerank_fraction:.3f}"
    )
    if args.evaluate:
        truth = gsknn(index.X, q, np.arange(n, dtype=np.intp), args.k)
        print(f"recall@{args.k}: {recall(result, truth):.4f}")
    return 0


def _cmd_approx_calibrate(args: argparse.Namespace) -> int:
    """``approx calibrate``: measure and persist planner operating points."""
    from .approx.planner import calibrate_planner
    from .approx.store import default_planner_path
    from .data import embedded_gaussian

    ds = embedded_gaussian(
        args.N, args.d, intrinsic_dim=min(10, args.d), seed=args.seed
    )
    t0 = time.perf_counter()
    cal = calibrate_planner(
        ds.points,
        args.k,
        seed=args.seed,
        sample_queries=args.sample_queries,
        repeats=args.repeats,
        save=not args.dry_run,
        cache_path=args.cache,
    )
    elapsed = time.perf_counter() - t0
    if args.json:
        print(json.dumps(cal.to_dict(), indent=1, sort_keys=True))
        return 0
    print(
        f"calibrated N={cal.n} d={cal.d} k={cal.k} "
        f"({cal.m_queries} sampled queries) in {elapsed:.1f}s"
    )
    print(
        f"  exact: {cal.exact_query_seconds * 1e6:.0f} us/query "
        f"(model ratio {cal.model_ratio:.2f}), graph build "
        f"{cal.graph_build_seconds:.2f}s"
    )
    print(f"{'method':>9} {'workload':>9} {'recall':>7} {'cost':>12}  params")
    for p in cal.points:
        cost = (
            f"{p.query_seconds * 1e6:>9.0f} us/q"
            if p.workload == "query"
            else f"{p.solve_seconds:>10.2f} s"
        )
        params = " ".join(f"{k}={v}" for k, v in p.params.items())
        print(
            f"{p.method:>9} {p.workload:>9} {p.recall:>7.4f} {cost}  {params}"
        )
    if args.dry_run:
        print("  dry run: calibration NOT persisted")
    else:
        path = args.cache if args.cache else default_planner_path()
        print(
            f"  persisted to {path} (QueryPlanner and --method auto / "
            "--recall-target pick it up on this host)"
        )
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    from .model import PerformanceModel, predict_variant_threshold

    machine = IVY_BRIDGE.scaled(args.cores, 3.10e9 if args.cores > 1 else None)
    model = PerformanceModel(machine, IVY_BRIDGE_BLOCKING)
    print(
        f"machine: {machine.name} x{args.cores} cores, "
        f"peak {machine.peak_gflops:.0f} GFLOPS"
    )
    for kernel in ("var1", "var6", "gemm"):
        pred = model.predict(kernel, args.m, args.n, args.d, args.k)
        print(
            f"  {kernel:5s}: {pred.seconds * 1e3:8.2f} ms  "
            f"{pred.gflops:7.1f} GFLOPS"
        )
    thr = predict_variant_threshold(
        args.m, args.n, args.d, machine=machine, k_max=min(args.n, 4096)
    )
    print(f"predicted Var#1->Var#6 threshold: k = {thr}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    blk = BlockingParams(m_r=4, n_r=4, d_c=16, m_c=32, n_c=64)
    sim = KnnTraceSimulator(TINY_MACHINE, blk)
    records = []
    for kernel in ("gsknn-var1", "gsknn-var6", "gemm"):
        res = sim.run(kernel, m=args.m, n=args.n, d=args.d, k=args.k)
        records.append(
            {
                "kernel": kernel,
                "m": args.m,
                "n": args.n,
                "d": args.d,
                "k": args.k,
                "dram_bytes": res.dram_total_bytes,
                "microkernels": res.counts["microkernels"],
            }
        )
    if args.json:
        print(json.dumps(records, indent=1, sort_keys=True))
        return 0
    for rec in records:
        print(
            f"  {rec['kernel']:10s}: DRAM {rec['dram_bytes'] / 1024:8.1f} KiB  "
            f"micro-kernels {rec['microkernels']}"
        )
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    if args.budget is not None:
        return _cmd_autotune(args)
    from .tune import DecisionTable
    from .model import predict_variant_threshold

    d_grid = sorted({16, 64, 256, args.d})
    k_grid = sorted({16, 128, 1024, args.k} & set(range(1, args.n + 1)))
    if args.measured:
        table = DecisionTable.from_measurements(
            args.m, args.n, d_grid, k_grid, repeats=2
        )
    else:
        table = DecisionTable.from_model(args.m, args.n, d_grid, k_grid)
    print(f"decision table ({table.source}) for m={args.m}, n={args.n}:")
    header = "      " + "".join(f"{f'k={k}':>8}" for k in k_grid)
    print(header)
    for d in d_grid:
        row = "".join(
            f"{('v' + str(table.choices[(d, k)])) if (d, k) in table.choices else '-':>8}"
            for k in k_grid
        )
        print(f"d={d:>4}{row}")
    thr = predict_variant_threshold(args.m, args.n, args.d, k_max=args.n)
    print(f"model threshold at d={args.d}: k* = {thr}")
    print(f"this problem (d={args.d}, k={args.k}): {table.lookup(args.d, args.k)}")
    if args.save:
        path = table.save(args.save)
        print(f"saved to {path}")
    return 0


def _cmd_autotune(args: argparse.Namespace) -> int:
    """``tune --budget X``: the persistent per-host autotuner."""
    from .tune import Autotuner, default_cache_path, fingerprint_key

    registry = enable_metrics()
    tuner = Autotuner(budget=args.budget, seed=args.seed)
    report = tuner.run(persist=not args.dry_run, cache_path=args.cache)
    cfg = report.config
    print(
        f"autotune budget={args.budget}: searched "
        f"{len(report.candidates)} candidates in {report.seconds:.1f}s"
    )
    print(f"  host: {fingerprint_key()}")
    print(
        f"  winner: block_m={cfg.block_m} block_n={cfg.block_n} "
        f"switch_k={cfg.switch_k}"
    )
    for stage in ("blocking", "switch"):
        best = report.best_seconds(stage)
        print(f"  best {stage:>9} candidate: {best * 1e3:8.1f} ms")
    if args.dry_run:
        print("  dry run: winner NOT persisted")
    else:
        cache = args.cache if args.cache else default_cache_path()
        print(f"  persisted to {cache} (use gsknn(..., blocking='tuned'))")
    snapshot = registry.snapshot()
    candidates = snapshot["counters"].get("tune.candidates")
    if candidates:
        print(f"  obs: {candidates} timed candidates in the metrics registry")
    return 0


def _parse_kv_int_spec(text: str, flag: str) -> dict[str, int]:
    """Parse ``name=count,name=count`` specs (--tenants / --weights)."""
    out: dict[str, int] = {}
    for part in filter(None, (p.strip() for p in text.split(","))):
        key, sep, value = part.partition("=")
        try:
            if not sep:
                raise ValueError("missing '='")
            out[key.strip()] = int(value)
        except ValueError as exc:
            print(
                f"error: bad {flag} entry {part!r}: {exc}", file=sys.stderr
            )
            raise SystemExit(2) from None
    return out


def _cmd_serve(args: argparse.Namespace) -> int:
    from .data import uniform_hypercube
    from .errors import ValidationError
    from .obs.exporters import MetricsHTTPServer
    from .serve import KnnQueryService, ServeConfig, run_closed_loop

    registry = enable_metrics()
    tenants = (
        _parse_kv_int_spec(args.tenants, "--tenants") if args.tenants else None
    )
    weights = (
        _parse_kv_int_spec(args.weights, "--weights") if args.weights else {}
    )
    ds = uniform_hypercube(args.N, args.d, seed=args.seed)
    try:
        config = ServeConfig(
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            max_queue_depth=args.max_queue_depth,
            slo_ms=args.slo_ms,
            tenant_weights=weights,
            policy=args.policy,
            shards=args.shards,
            shard_transport=args.shard_transport,
            memory_budget=args.memory_budget,
        )
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    server = None
    if args.metrics_port is not None:
        server = MetricsHTTPServer(port=args.metrics_port, registry=registry)
        server.start()
        # stderr: with --json, stdout must stay one parseable document
        print(f"serving metrics at {server.url}", file=sys.stderr)
    graph_index = None
    if args.recall_target is not None:
        from .approx import build_graph_index

        t0 = time.perf_counter()
        graph_index = build_graph_index(
            ds.points, k_build=max(args.k, 16), seed=args.seed
        )
        print(
            f"graph index built in {time.perf_counter() - t0:.1f}s "
            f"(k_build={graph_index.k_build})",
            file=sys.stderr,
        )
    try:
        with KnnQueryService(
            ds.points, config, fault_plan=args.fault_plan,
            graph_index=graph_index,
        ) as svc:
            try:
                report = run_closed_loop(
                    svc,
                    clients=args.clients,
                    duration_seconds=args.duration_seconds,
                    k=args.k,
                    rows=args.rows,
                    tenants=tenants,
                    seed=args.seed,
                    recall_target=args.recall_target,
                )
            except ValidationError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            service_stats = svc.stats()
        summary = report.summary()
        if args.json:
            summary["service"] = {
                k: round(v, 6) if isinstance(v, float) else v
                for k, v in service_stats.items()
            }
            print(json.dumps(summary, indent=1, sort_keys=True))
        else:
            print(
                f"serve: N={args.N} d={args.d} k={args.k} rows={args.rows} "
                f"clients={args.clients} duration={args.duration_seconds}s "
                f"policy={args.policy}"
                + (
                    f" shards={args.shards}[{args.shard_transport}]"
                    if args.shards
                    else ""
                )
            )
            print(
                f"  completed {summary['completed']} "
                f"({summary['throughput_rps']} rps)  "
                f"shed {summary['shed']}  expired {summary['expired']}  "
                f"failed {summary['failed']}"
            )
            print(
                f"  latency ms: p50={summary['latency_p50_ms']:.2f} "
                f"p95={summary['latency_p95_ms']:.2f} "
                f"p99={summary['latency_p99_ms']:.2f}"
            )
            print(
                f"  windows {service_stats['windows']}  "
                f"solves {service_stats['solve_calls']}  "
                f"coalescing {service_stats['coalescing_ratio']:.1f}x  "
                f"occupancy ~{service_stats['occupancy_ewma']:.1f}"
            )
            if len(summary["per_tenant"]) > 1:
                goodput = "  ".join(
                    f"{name}={t['completed']}"
                    for name, t in summary["per_tenant"].items()
                )
                print(f"  per-tenant goodput: {goodput}")
            if args.recall_target is not None:
                snap = registry.snapshot()
                achieved = snap["gauges"].get("approx.achieved_recall")
                approx_reqs = sum(
                    v
                    for name, v in snap["counters"].items()
                    if name.startswith("serve.approx_requests")
                )
                print(
                    f"  approx: {approx_reqs} requests routed, sampled "
                    f"recall "
                    + (f"{achieved:.4f}" if achieved is not None else "n/a")
                )
        if server is not None and args.serve_seconds > 0:
            time.sleep(args.serve_seconds)
    finally:
        if server is not None:
            server.stop()
    return 0


def _cmd_distributed(args: argparse.Namespace) -> int:
    from .data import embedded_gaussian
    from .distributed import DistributedAllKnn
    from .errors import KernelTimeoutError

    ds = embedded_gaussian(
        args.N, args.d, intrinsic_dim=min(10, args.d), seed=args.seed
    )
    try:
        solver = DistributedAllKnn(
            args.ranks,
            leaf_size=args.leaf_size,
            iterations=args.iterations,
            kernel=args.kernel,
            seed=args.seed,
            transport=args.transport,
        )
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from .obs.context import RequestContext

    res_kwargs = _resilience_kwargs(args)
    registry = enable_metrics() if res_kwargs else None
    try:
        report = solver.solve(
            ds.points, args.k,
            request=RequestContext.new(tenant="cli"),
            **res_kwargs,
        )
    except KernelTimeoutError as exc:
        return _print_timeout(exc)
    ranks_label = (
        "simulated ranks"
        if args.transport == "sim"
        else "process-backed ranks"
    )
    print(
        f"{args.kernel} on {args.ranks} {ranks_label}: "
        f"N={args.N} d={args.d} k={args.k}"
    )
    print(
        f"  serial kernel time:   {report.serial_kernel_seconds:7.2f} s\n"
        f"  busiest rank kernel:  {max(report.rank_kernel_seconds):7.2f} s\n"
        f"  communication (a-b):  {report.comm_seconds:7.4f} s "
        f"({report.comm_bytes / 1e6:.1f} MB moved)\n"
        f"  projected wall clock: {report.projected_seconds:7.2f} s "
        f"({report.projected_speedup:.1f}x over serial)"
    )
    if registry is not None:
        _print_resilience_counters(registry.snapshot())
    return 0


_COMMANDS = {
    "kernel": _cmd_kernel,
    "compare": _cmd_compare,
    "stats": _cmd_stats,
    "allknn": _cmd_allknn,
    "approx": _cmd_approx,
    "model": _cmd_model,
    "trace": _cmd_trace,
    "tune": _cmd_tune,
    "serve": _cmd_serve,
    "distributed": _cmd_distributed,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


def run() -> None:
    """The console entry point: :func:`main`, then exit with its code.

    A solve that hit its deadline leaves its kernel thread running; the
    process then exits at once, without joining it and without running
    exit handlers (BLAS's own among them) under it.
    """
    code = main()
    from .resilience.executor import daemon_tasks_running

    if daemon_tasks_running():
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
