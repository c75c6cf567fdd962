"""Host calibration: measure the model constants on the running machine.

The paper's performance model is parameterized by three hardware
numbers — peak flop rate ``tau_f``, streaming cost per double ``tau_b``,
and random-access cost ``tau_l``. The paper measured them on Maverick
(Figure 4's caption); this module measures them on whatever host the
library is running on, so the model's *absolute* predictions can be
re-based to the current substrate:

* ``tau_f`` — best-of-N time of a square ``numpy.dot`` (the vendor GEMM
  is this platform's peak-flop workload, exactly as MKL was the paper's);
* ``tau_b`` — best-of-N time of a large contiguous copy, charged per
  double moved (read + write);
* ``tau_l`` — best-of-N time of a large random gather, charged per
  element.

Note the limit the library's variant selection respects: constants fix
the model's scale, not its structure. The Table 4 selection term models
a *scalar heap* per candidate; the numpy fast path selects with batched
introselect whose k-dependence is milder, so its Var#1/Var#6 switch uses
an empirical threshold rather than this model (see
``repro.tune.NUMPY_VARIANT_SWITCH_K``).
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from ..errors import ValidationError
from .params import IVY_BRIDGE, MachineParams

__all__ = ["calibrate_host", "measure_tau_f", "measure_tau_b", "measure_tau_l"]


def _best_seconds(fn, repeats: int) -> float:
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_tau_f(size: int = 768, repeats: int = 3) -> float:
    """Peak flops/second via a square double-precision GEMM."""
    if size < 64:
        raise ValidationError(f"calibration GEMM must be >= 64, got {size}")
    rng = np.random.default_rng(0)
    a = rng.random((size, size))
    b = rng.random((size, size))
    a @ b  # warm the BLAS threads / pages
    best = _best_seconds(lambda: a @ b, repeats)
    return 2.0 * size**3 / best


def measure_tau_b(n_doubles: int = 16_000_000, repeats: int = 3) -> float:
    """Seconds per double of contiguous movement (copy = read + write)."""
    if n_doubles < 1_000_000:
        raise ValidationError("calibration stream too small to be meaningful")
    src = np.random.default_rng(1).random(n_doubles)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    best = _best_seconds(lambda: np.copyto(dst, src), repeats)
    return best / (2.0 * n_doubles)


def measure_tau_l(
    table_doubles: int = 16_000_000,
    n_gathers: int = 2_000_000,
    repeats: int = 3,
) -> float:
    """Seconds per random 8-byte access via a permutation gather."""
    if n_gathers < 100_000:
        raise ValidationError("calibration gather too small to be meaningful")
    rng = np.random.default_rng(2)
    table = rng.random(table_doubles)
    idx = rng.permutation(table_doubles)[:n_gathers]
    table[idx]
    best = _best_seconds(lambda: table[idx], repeats)
    return best / n_gathers


def calibrate_host(
    template: MachineParams = IVY_BRIDGE,
    *,
    quick: bool = False,
) -> MachineParams:
    """Return a machine description with this host's measured constants.

    Cache geometry (and epsilon) are taken from ``template`` — they are
    not probed. ``quick=True`` shrinks the probes for test suites.
    """
    if quick:
        tau_f = measure_tau_f(size=256, repeats=2)
        tau_b = measure_tau_b(n_doubles=2_000_000, repeats=2)
        tau_l = measure_tau_l(
            table_doubles=2_000_000, n_gathers=200_000, repeats=2
        )
    else:
        tau_f = measure_tau_f()
        tau_b = measure_tau_b()
        tau_l = measure_tau_l()
    return replace(
        template,
        name=f"host-calibrated({template.name})",
        # express tau_f through the template's flops_per_cycle so
        # peak_gflops lands on the measured number
        clock_hz=tau_f / (template.flops_per_cycle * template.cores),
        tau_b=tau_b,
        tau_l=tau_l,
    )
