"""Performance-model tour: parameter selection, prediction, calibration.

Walks through the paper's §2.4/§2.6 tooling:

1. derive the Goto blocking parameters for the Ivy Bridge geometry and
   compare with the paper's published numbers;
2. predict runtime/GFLOPS for the kernels across (d, k) and print the
   Var#1/Var#6 switching thresholds (Figure 5's pre-tuning step);
3. calibrate the model to *this* host (measured tau_f/tau_b/tau_l) and
   show how the absolute predictions re-base while the shapes persist;
4. sanity-check one prediction against a real kernel run.

Run:  python examples/performance_tuning.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.config import IVY_BRIDGE_BLOCKING
from repro.core.gsknn import gsknn
from repro.machine import IVY_BRIDGE, calibrate_host
from repro.model import PerformanceModel, threshold_table
from repro.perf.gflops import gflops
from repro.tune import select_blocking


def main() -> None:
    print("== 1. blocking parameters from cache geometry (paper §2.4) ==")
    derived = select_blocking(IVY_BRIDGE)
    print(f"  paper:   {IVY_BRIDGE_BLOCKING}")
    print(f"  derived: {derived}")

    print("\n== 2. predictions and variant thresholds (paper §2.6) ==")
    ten_core = IVY_BRIDGE.scaled(10, clock_hz=3.10e9)
    model = PerformanceModel(ten_core)
    for kernel in ("var1", "var6", "gemm"):
        pred = model.predict(kernel, 8192, 8192, 64, 16)
        print(
            f"  {kernel:5s} @ m=n=8192 d=64 k=16: "
            f"{pred.seconds * 1e3:7.1f} ms, {pred.gflops:6.1f} GFLOPS "
            f"(peak {ten_core.peak_gflops:.0f})"
        )
    print("  Var#1 -> Var#6 thresholds:")
    for point in threshold_table(8192, 8192, [16, 64, 256, 1024],
                                 machine=ten_core, k_max=4096):
        print(f"    d={point.d:>5}: k* = {point.k_threshold}")

    print("\n== 3. host calibration ==")
    host = calibrate_host(quick=True)
    print(
        f"  measured: peak {host.peak_gflops:.1f} GFLOPS, "
        f"tau_b {host.tau_b:.2e} s/double, tau_l {host.tau_l:.2e} s/access"
    )
    host_model = PerformanceModel(host)
    for d in (16, 256):
        paper_scale = model.predict("var1", 8192, 8192, d, 16).gflops
        host_scale = host_model.predict("var1", 8192, 8192, d, 16).gflops
        print(
            f"  d={d:>4}: Ivy Bridge model {paper_scale:6.1f} GFLOPS, "
            f"host model {host_scale:6.1f} GFLOPS"
        )

    print("\n== 4. prediction vs one real run ==")
    m = n = 2048
    d, k = 64, 16
    X = np.random.default_rng(0).random((n, d))
    idx = np.arange(n)
    gsknn(X, idx[:m], idx, k)  # warm up
    t0 = time.perf_counter()
    gsknn(X, idx[:m], idx, k)
    measured = time.perf_counter() - t0
    predicted = host_model.predict("var1", m, n, d, k).seconds
    print(
        f"  m=n={m} d={d} k={k}: measured {measured * 1e3:6.1f} ms "
        f"({gflops(m, n, d, measured):.2f} GFLOPS), "
        f"host model {predicted * 1e3:6.1f} ms"
    )
    print(
        "  (the model brackets the real kernel; exact agreement is not\n"
        "   expected — numpy's batched selection is cheaper per candidate\n"
        "   than the scalar heap the model prices)"
    )


if __name__ == "__main__":
    main()
