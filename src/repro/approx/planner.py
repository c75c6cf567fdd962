"""Recall-aware query planning: exact vs tree vs LSH vs graph.

The planner answers one question per workload: *given (n, d, k) and a
recall target, which solver is cheapest among those calibrated to meet
the target?* Exact gsknn is always feasible (recall 1.0) and is the
universal fallback; the approximate methods are only ever chosen off
**measured** operating points — the autotuner's philosophy (never trust
a model where you can afford a measurement) applied to the
recall/latency trade:

* :func:`calibrate_planner` measures, on a representative table, exact
  per-query cost through a cached :class:`~repro.core.plan.GsknnPlan`
  (best-of-repeats, the tune ``_time`` idiom), NN-descent build cost
  and build recall, beam-search recall/latency at several ``ef``
  values, and the iterated tree/LSH all-kNN solvers' recall/cost.
* The measured exact cost is anchored to
  :class:`~repro.model.perf_model.PerformanceModel` as a host ratio, so
  exact cost extrapolates to other (m, n) through the model rather than
  a bare linear scale; approximate costs extrapolate by their
  asymptotics (builds and tree/LSH sweeps ~linear in n, beam search
  ~log n).
* Calibration persists next to ``tuning.json`` keyed by host
  fingerprint (:mod:`repro.approx.store`).

**Fallback ladder** (the recall contract): no recall target, or a
target of ~1.0, means exact. A set target with no usable calibration —
missing file, unknown host fingerprint, or a (d, k) regime the
calibration doesn't cover — also means exact, silently, counted on the
``plan.fallback`` metric: the planner never errors and never trades
recall away without a measurement saying it can.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from ..errors import ValidationError
from ..model.perf_model import PerformanceModel
from ..obs import trace as _trace
from ..obs.metrics import get_registry as _get_registry
from .store import load_calibration, save_calibration

__all__ = [
    "OperatingPoint",
    "PlannerCalibration",
    "PlanDecision",
    "QueryPlanner",
    "calibrate_planner",
]

#: targets at/above this are served exactly — approximate tiers cannot
#: contract recall this close to 1.
EXACT_TARGET = 0.999

_WORKLOADS = ("query", "allknn")


@dataclass(frozen=True)
class OperatingPoint:
    """One measured (method, knob) -> (recall, cost) sample.

    ``workload`` says what the point can plan: ``"query"`` points carry
    per-query ``query_seconds`` (beam search at some ``ef``);
    ``"allknn"`` points carry a whole-table ``solve_seconds`` (an
    NN-descent build, or an iterated tree/LSH sweep).
    """

    method: str
    workload: str
    params: dict[str, Any]
    recall: float
    query_seconds: float = 0.0
    solve_seconds: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class PlannerCalibration:
    """Everything one calibration run measured, at one (n, d, k) scale."""

    n: int
    d: int
    k: int
    m_queries: int
    exact_query_seconds: float
    model_ratio: float
    graph_build_seconds: float
    points: list[OperatingPoint] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        doc = asdict(self)
        doc["points"] = [p.to_dict() for p in self.points]
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "PlannerCalibration":
        points = [OperatingPoint(**p) for p in doc.get("points", [])]
        return cls(
            n=int(doc["n"]),
            d=int(doc["d"]),
            k=int(doc["k"]),
            m_queries=int(doc["m_queries"]),
            exact_query_seconds=float(doc["exact_query_seconds"]),
            model_ratio=float(doc["model_ratio"]),
            graph_build_seconds=float(doc["graph_build_seconds"]),
            points=points,
        )


@dataclass(frozen=True)
class PlanDecision:
    """What the planner chose, and why — attached to reports and spans."""

    method: str  # "exact" | "graph" | "rkdtree" | "lsh"
    workload: str
    reason: str
    params: dict[str, Any] = field(default_factory=dict)
    expected_recall: float | None = None
    expected_seconds: float | None = None
    fallback: bool = False


def _exact_decision(
    workload: str,
    reason: str,
    *,
    fallback: bool = False,
    expected_seconds: float | None = None,
) -> PlanDecision:
    registry = _get_registry()
    if registry.enabled:
        registry.inc("plan.decisions", labels={"method": "exact"})
        if fallback:
            registry.inc("plan.fallback", labels={"reason": reason})
    return PlanDecision(
        method="exact",
        workload=workload,
        reason=reason,
        expected_recall=1.0,
        expected_seconds=expected_seconds,
        fallback=fallback,
    )


class QueryPlanner:
    """Picks a solver per (n, d, k, recall_target) from calibrated curves.

    By default the calibration is loaded from the persisted per-host
    store (``planner.json``); pass ``calibration=`` explicitly (or
    ``None`` to force the uncalibrated fallback behaviour) to override.
    """

    _UNSET = object()

    def __init__(
        self,
        calibration: PlannerCalibration | None | object = _UNSET,
        *,
        cache_path=None,
        model: PerformanceModel | None = None,
    ) -> None:
        if calibration is QueryPlanner._UNSET:
            calibration = load_calibration(cache_path)
        self.calibration: PlannerCalibration | None = calibration
        self.model = model if model is not None else PerformanceModel()

    # ---- cost extrapolation -------------------------------------------------

    def _exact_seconds(self, m: int, n: int, d: int, k: int) -> float | None:
        estimate = self.model.estimate_kernel_runtime(m, n, d, k)
        cal = self.calibration
        if cal is None:
            return estimate
        return estimate * cal.model_ratio

    def _approx_seconds(
        self, point: OperatingPoint, m: int, n: int, include_build: bool
    ) -> float:
        cal = self.calibration
        scale_n = n / max(cal.n, 1)
        if point.workload == "allknn":
            # builds and grouped sweeps are ~linear in n
            return point.solve_seconds * scale_n
        # beam search: hop count grows ~log n; per-hop work is n-free
        log_scale = np.log2(max(n, 2)) / np.log2(max(cal.n, 2))
        seconds = point.query_seconds * log_scale * m
        if include_build:
            seconds += cal.graph_build_seconds * scale_n
        return seconds

    # ---- the ladder ---------------------------------------------------------

    def plan(
        self,
        n: int,
        d: int,
        k: int,
        recall_target: float | None,
        *,
        workload: str = "query",
        m_queries: int | None = None,
        include_build: bool = False,
    ) -> PlanDecision:
        """Choose a method; never raises past input validation.

        ``workload="allknn"`` plans a whole-table solve (all n points
        are queries; an NN-descent build is itself the answer);
        ``workload="query"`` plans ``m_queries`` online lookups against
        a standing index (``include_build`` charges the build too, for
        one-shot uses).
        """
        if workload not in _WORKLOADS:
            raise ValidationError(
                f"workload must be one of {_WORKLOADS}, got {workload!r}"
            )
        if n < 1 or d < 1 or k < 1:
            raise ValidationError(
                f"n, d, k must be positive, got ({n}, {d}, {k})"
            )
        if recall_target is not None and not 0.0 < recall_target <= 1.0:
            raise ValidationError(
                f"recall_target must be in (0, 1], got {recall_target}"
            )
        m = m_queries if m_queries is not None else (n if workload == "allknn" else 1)

        if recall_target is None:
            return _exact_decision(
                workload,
                "no recall target: exact by default",
                expected_seconds=self._exact_seconds(m, n, d, k),
            )
        if recall_target >= EXACT_TARGET:
            return _exact_decision(
                workload,
                f"recall target {recall_target} is effectively exact",
                expected_seconds=self._exact_seconds(m, n, d, k),
            )
        cal = self.calibration
        if cal is None:
            return _exact_decision(
                workload, "no_calibration", fallback=True
            )
        # regime guard: don't extrapolate a calibration across a very
        # different dimensionality or list width
        if not (0.5 <= d / cal.d <= 2.0) or k > 2 * cal.k:
            return _exact_decision(
                workload, "regime_mismatch", fallback=True
            )

        exact_seconds = self._exact_seconds(m, n, d, k)
        candidates: list[PlanDecision] = []
        for point in cal.points:
            if point.workload != workload:
                continue
            if point.recall < recall_target:
                continue
            candidates.append(
                PlanDecision(
                    method=point.method,
                    workload=workload,
                    reason=(
                        f"calibrated {point.method} point meets target "
                        f"{recall_target} at lower cost than exact"
                    ),
                    params=dict(point.params),
                    expected_recall=point.recall,
                    expected_seconds=self._approx_seconds(
                        point, m, n, include_build
                    ),
                )
            )
        if not candidates:
            return _exact_decision(
                workload,
                f"no calibrated point reaches recall {recall_target}",
                expected_seconds=exact_seconds,
            )
        best = min(candidates, key=lambda c: c.expected_seconds)
        if exact_seconds is not None and exact_seconds <= best.expected_seconds:
            return _exact_decision(
                workload,
                "exact is cheapest at this size",
                expected_seconds=exact_seconds,
            )
        registry = _get_registry()
        if registry.enabled:
            registry.inc("plan.decisions", labels={"method": best.method})
        return best


def calibrate_planner(
    X: np.ndarray,
    k: int,
    *,
    seed: int = 0,
    beam_grid: tuple[tuple[int, int, int | None], ...] = (
        (16, 3, 3),
        (24, 3, 3),
        (32, 4, 4),
        (64, 4, None),
    ),
    tree_iterations: tuple[int, ...] = (2, 4),
    lsh_tables: tuple[int, ...] = (4, 8),
    sample_queries: int = 128,
    repeats: int = 2,
    graph_kwargs: dict[str, Any] | None = None,
    save: bool = False,
    cache_path=None,
) -> PlannerCalibration:
    """Measure recall/latency operating points on a representative table.

    ``X`` should be drawn at a scale the host can afford to solve
    exactly (the measured points extrapolate; see
    :meth:`QueryPlanner.plan`). With ``save=True`` the calibration is
    persisted for this host so future :class:`QueryPlanner` instances
    pick it up automatically.
    """
    from ..core.neighbors import KnnResult
    from ..core.plan import GsknnPlan
    from ..core.table import ALL_ROWS, TableHandle
    from ..trees.allknn import all_nearest_neighbors
    from ..trees.evaluation import recall_at
    from ..validation import as_coordinate_table, check_finite, check_k
    from .nndescent import build_graph_index
    from .search import beam_search

    def _rows_of(result: KnnResult, rows: np.ndarray) -> KnnResult:
        return KnnResult(result.distances[rows], result.indices[rows])

    def _truncated(result: KnnResult, width: int) -> KnnResult:
        return KnnResult(result.distances[:, :width], result.indices[:, :width])

    X = as_coordinate_table(X)
    check_finite(X)
    n, d = X.shape
    k = check_k(k, n)
    if repeats < 1:
        raise ValidationError(f"repeats must be >= 1, got {repeats}")
    rng = np.random.default_rng(seed)
    m = min(sample_queries, n)
    q_idx = np.sort(rng.choice(n, size=m, replace=False)).astype(np.intp)

    def _best_of(fn):
        best, out = float("inf"), None
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - t0
            if elapsed < best:
                best, out = elapsed, result
        return best, out

    registry = _get_registry()
    with _trace.span("approx.calibrate", n=n, d=d, k=k, m=m):
        # exact cost + truth, through the amortized plan (the honest
        # serving comparator: panels cached, workspaces warm)
        plan = GsknnPlan(TableHandle.borrowed(X), ALL_ROWS)
        exact_seconds, truth = _best_of(lambda: plan.execute(q_idx, k))
        model = PerformanceModel()
        predicted = model.estimate_kernel_runtime(m, n, d, k)
        model_ratio = exact_seconds / predicted if predicted > 0 else 1.0

        points: list[OperatingPoint] = []

        # graph: one build, then the beam-ef sweep
        t0 = time.perf_counter()
        index = build_graph_index(X, seed=seed, **(graph_kwargs or {}))
        graph_build_seconds = time.perf_counter() - t0
        build_k = min(k, index.k_build)
        build_lists = index.as_result(build_k)
        build_recall = recall_at(
            _rows_of(build_lists, q_idx), _truncated(truth, build_k), build_k
        )
        points.append(
            OperatingPoint(
                method="graph",
                workload="allknn",
                params={"stage": "build", "k_build": index.k_build},
                recall=build_recall,
                solve_seconds=graph_build_seconds,
            )
        )
        Qs = X[q_idx]
        for ef, expand, max_hops in beam_grid:
            ef = max(int(ef), k)
            seconds, result = _best_of(
                lambda ef=ef, ex=expand, mh=max_hops: beam_search(
                    index, Qs, k, ef=ef, expand=ex, max_hops=mh
                )
            )
            points.append(
                OperatingPoint(
                    method="graph",
                    workload="query",
                    params={
                        "ef": ef,
                        "expand": int(expand),
                        "max_hops": (
                            None if max_hops is None else int(max_hops)
                        ),
                    },
                    recall=recall_at(result, truth, k),
                    query_seconds=seconds / m,
                )
            )

        # iterated tree / LSH sweeps (all-kNN workload)
        for method, knobs in (
            ("rkdtree", tree_iterations),
            ("lsh", lsh_tables),
        ):
            for iters in knobs:
                t0 = time.perf_counter()
                report = all_nearest_neighbors(
                    X, k, method=method, iterations=int(iters), seed=seed
                )
                seconds = time.perf_counter() - t0
                sample = _rows_of(report.result, q_idx)
                points.append(
                    OperatingPoint(
                        method=method,
                        workload="allknn",
                        params={"iterations": int(iters)},
                        recall=recall_at(sample, truth, k),
                        solve_seconds=seconds,
                    )
                )

        calibration = PlannerCalibration(
            n=n,
            d=d,
            k=k,
            m_queries=m,
            exact_query_seconds=exact_seconds / m,
            model_ratio=model_ratio,
            graph_build_seconds=graph_build_seconds,
            points=points,
        )
        if registry.enabled:
            registry.inc("approx.calibrations")
            registry.observe("approx.calibrate.points", len(points))
    if save:
        save_calibration(calibration, cache_path=cache_path)
    return calibration
