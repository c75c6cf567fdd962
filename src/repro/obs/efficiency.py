"""Model-anchored efficiency accounting: achieved vs. predicted GFLOP/s.

The paper's argument is a performance *model* (Figs. 4-6): predicted
GFLOP/s tracks measured GFLOP/s closely enough that the model can pick
the kernel variant. This module closes that loop at runtime — every
solve records what the kernel *achieved* against what
:class:`~repro.model.perf_model.PerformanceModel` *predicts* for the
same ``(m, n, d, k, variant, blocking)``, in the paper's own
``(2d + 3) m n`` flop convention (:mod:`repro.perf.gflops`), plus the
modeled slow-memory traffic from :mod:`repro.perf.roofline`.

Emitted series (all labeled ``{variant=..., scope=...}``):

* ``efficiency.achieved_gflops`` — gauge (latest) and a histogram
  ``efficiency.achieved_gflops.dist``;
* ``efficiency.model_gflops`` — the prediction for the same shape;
* ``efficiency.model_ratio`` — achieved / predicted; the live Figs. 4-6
  signal (also ``efficiency.model_ratio.dist``);
* ``efficiency.est_bytes_moved`` — counter of modeled slow bytes;
* ``efficiency.solves`` / ``efficiency.anomalies`` — totals, where an
  anomaly is a ratio below the configurable floor
  (``REPRO_EFFICIENCY_FLOOR`` or :func:`set_efficiency_floor`).

The ratio is intentionally **not** clamped at 1: the host model is
calibrated for the paper's Ivy Bridge, so ratios well above 1 on a
modern machine are themselves informative. The anomaly floor therefore
defaults low (0.05) — it flags "something broke" (a fallback kernel, a
thrashing cache), not "slower than Ivy Bridge".

All recording is gated on ``registry.enabled`` and costs two model
evaluations per *solve* (not per tile), so the disabled path stays free
and the enabled path stays negligible next to the kernel itself.
"""

from __future__ import annotations

import math
import os
from typing import Any

from ..errors import ReproError
from .metrics import MetricsRegistry, get_registry

__all__ = [
    "efficiency_floor",
    "set_efficiency_floor",
    "record_solve_efficiency",
]

_FLOOR_ENV = "REPRO_EFFICIENCY_FLOOR"
_DEFAULT_FLOOR = 0.05
_floor: float | None = None


def efficiency_floor() -> float:
    """The anomaly threshold on achieved/model ratio (0 disables)."""
    global _floor
    if _floor is None:
        raw = os.environ.get(_FLOOR_ENV)
        try:
            _floor = float(raw) if raw is not None else _DEFAULT_FLOOR
        except ValueError:
            _floor = _DEFAULT_FLOOR
    return _floor


def set_efficiency_floor(value: float | None) -> float | None:
    """Override the anomaly floor; ``None`` re-reads the environment.

    Returns the previous override (or ``None``)."""
    global _floor
    old = _floor
    _floor = None if value is None else float(value)
    return old


def _model_kernel(variant: Any) -> str | None:
    """Map a repo variant (enum/int/str) onto a perf-model kernel name."""
    try:
        return f"var{int(variant)}"
    except (TypeError, ValueError):
        name = str(variant).lower()
        return name if name.startswith(("var", "gemm")) else None


def record_solve_efficiency(
    m: int,
    n: int,
    d: int,
    k: int,
    variant: Any,
    seconds: float,
    *,
    scope: str = "kernel",
    registry: MetricsRegistry | None = None,
) -> dict[str, float] | None:
    """Record one solve's achieved-vs-model efficiency into the registry.

    Returns the record dict (``achieved_gflops``, ``model_gflops``,
    ``model_ratio``, ``est_bytes_moved``, ``anomaly``) or ``None`` when
    the registry is disabled or the solve was unmeasurable (non-positive
    elapsed time — the timer was too coarse for the problem).

    ``scope`` distinguishes the accounting level: ``"kernel"`` for one
    ``gsknn`` kernel execution; a caller timing a whole multi-kernel
    solve passes its own scope (its wall clock includes scheduling and
    shipping, so its ratio is a lower bound on kernel efficiency).
    """
    registry = registry if registry is not None else get_registry()
    if not registry.enabled:
        return None
    if seconds <= 0 or not math.isfinite(seconds):
        registry.inc("efficiency.unmeasurable")
        return None

    # Lazy imports: obs must stay importable without the model stack.
    from ..perf.gflops import knn_flops
    from ..perf.roofline import arithmetic_intensity

    flops = knn_flops(m, n, d)
    achieved = flops / seconds / 1e9

    kernel = _model_kernel(variant)
    model_gflops = float("nan")
    est_bytes = float("nan")
    if kernel is not None:
        try:
            from ..model.perf_model import PerformanceModel

            model = PerformanceModel()
            model_gflops = model.predict(kernel, m, n, d, k).gflops
            est_bytes = flops / arithmetic_intensity(m, n, d, k, kernel)
        except ReproError:
            # shape outside the model's domain (e.g. an exotic variant):
            # still account the achieved rate, just unanchored
            kernel = None

    labels = {"variant": kernel or str(variant), "scope": scope}
    registry.set("efficiency.achieved_gflops", achieved, labels=labels)
    registry.observe(
        "efficiency.achieved_gflops.dist",
        achieved,
        labels=labels,
        start=1e-3,
        factor=2.0,
        count=24,
    )
    registry.inc("efficiency.solves", labels=labels)

    record: dict[str, float] = {
        "achieved_gflops": achieved,
        "model_gflops": model_gflops,
        "model_ratio": float("nan"),
        "est_bytes_moved": est_bytes,
        "anomaly": 0.0,
    }
    if kernel is None or not model_gflops > 0:
        return record

    ratio = achieved / model_gflops
    record["model_ratio"] = ratio
    registry.set("efficiency.model_gflops", model_gflops, labels=labels)
    registry.set("efficiency.model_ratio", ratio, labels=labels)
    registry.observe(
        "efficiency.model_ratio.dist",
        ratio,
        labels=labels,
        start=1e-3,
        factor=2.0,
        count=24,
    )
    if math.isfinite(est_bytes) and est_bytes > 0:
        registry.inc("efficiency.est_bytes_moved", est_bytes, labels=labels)
    floor = efficiency_floor()
    if floor > 0 and ratio < floor:
        registry.inc("efficiency.anomalies", labels=labels)
        record["anomaly"] = 1.0
    return record
