"""Layer-ledger benchmark: one command, every workload, every metric named.

Run from the repository root::

    python3 ledgerbench/run.py --workload kernel_k16 --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload one after another, including
``kernel_k512``, which ``BENCHMARK.json`` leaves out of its gated set.

``--trace 0`` measures the end-to-end metrics with observability off;
``--trace 1`` runs the same workload with the program's tracer and
metrics registry switched on in alternate blocks and reports the
per-layer metrics. The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); a copy of the full
record goes to ``ledgerbench/records/``. Every run checks its answers
against the ``ref_knn`` oracle and exits 1 if any op failed or differed.
See ``ledgerbench/README.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import os

# Pinned before numpy loads so shard workers, which inherit the
# environment, run one BLAS thread each as well.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "1/s",
    "latency_p50_ms": "ms",
    "slo_met_frac": "frac",
    "peak_rss_mib": "MiB",
    "recall": "frac",
    "ok_frac": "frac",
}

PER_LAYER = {
    "gsknn.gather_ms": "ms",
    "gsknn.tile_ms": "ms",
    "gsknn.select_ms": "ms",
    "gsknn.discard_frac": "frac",
    "gsknn.gflops": "GFLOP/s",
    "gsknn.computed_mib": "MiB",
    "floor.twophase_ratio": "ratio",
    "floor.model_ratio": "ratio",
    "plan.execute_ms": "ms",
    "plan.lookup_us": "us",
    "plan.cache_hit_frac": "frac",
    "plan.unchanged_returns": "count",
    "plan.warm_starts": "count",
    "batch.solve_ms": "ms",
    "serve.submit_us": "us",
    "serve.window_rows": "rows",
    "serve.coalescing_ratio": "ratio",
    "serve.overhead_ms": "ms",
    "serve.gen_late_ms": "ms",
    "shard.solve_tax": "ratio",
    "shard.scatter_ms": "ms",
    "shard.gather_ms": "ms",
    "shard.refresh_ms": "ms",
    "shard.first_solve_after_refresh_ms": "ms",
    "shard.update_p50_ms": "ms",
    "trace.overhead_frac": "frac",
}

WORKLOADS = {
    "kernel_k16": "kernel",
    "kernel_k512": "kernel",
    "serve_open": "serve",
    "shard_churn": "shard",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*sorted(WORKLOADS), "all"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is missing under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    import importlib

    from common import peak_rss_mib, reset_obs

    reset_obs()
    module = importlib.import_module(WORKLOADS[args.workload])
    values, ledger, info = module.run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )

    if args.trace:
        units = PER_LAYER
        # a layer the workload does not exercise did no work: 0
        values = {name: float(values.get(name, 0.0)) for name in units}
        shortcut = values["plan.unchanged_returns"] + values["plan.warm_starts"]
        if shortcut:
            ledger.fail("the warm-start shortcut answered an op", int(shortcut))
    else:
        units = END_TO_END
        values = dict(values)
        values["peak_rss_mib"] = peak_rss_mib()
        values["recall"] = ledger.recall
        values["ok_frac"] = 1.0 - ledger.failed_frac
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }
    # measured but not gated (p90, p99: too noisy across seeds to bound)
    info.update({name: v for name, v in values.items() if name not in units})

    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
        f"  trace {args.trace}  blas threads {BLAS_THREADS}"
        f" (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS)"
    )
    print("samples " + json.dumps(info, default=str))
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    print(
        f"  attempted {ledger.attempted}  failed {ledger.failed}"
        f"  failed_frac {ledger.failed_frac:.6g}"
        f"  checked ids {ledger.checked_ids}"
    )
    for problem in ledger.problems:
        print(f"  FAILED: {problem}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": int(BLAS_THREADS),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "samples": info,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems,
        "metrics": metrics,
    }
    records = HERE / "records"
    records.mkdir(exist_ok=True)
    kind = "layers" if args.trace else "e2e"
    (records / f"{args.workload}.{kind}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n"
    )

    print(
        json.dumps(
            {
                "correct": ledger.correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if ledger.correct else 1


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    import subprocess

    status = 0
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run([sys.executable, __file__, *argv]).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
