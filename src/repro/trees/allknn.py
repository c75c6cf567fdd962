"""The all-nearest-neighbors driver (the Table 1 experiment's skeleton).

Iterates a partitioner (randomized KD-trees or LSH) over the dataset;
for every group it runs one *exact* kNN kernel with the group as both
queries and references, merges the group's lists into the global
neighbor table, and repeats with fresh randomization until the lists
stop improving or the iteration budget is exhausted.

The kernel is switchable between ``"gsknn"`` (the fused kernel) and
``"gemm"`` (Algorithm 2.1) — exactly the substitution Table 1 measures —
and kernel time is accounted separately so the paper's ">90% of time in
the kernel" context is reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.gsknn import gsknn
from ..core.neighbors import KnnResult, merge_neighbor_lists_fast, recall
from ..core.ref_kernel import ref_knn
from ..core.table import TableHandle, as_table
from ..errors import ValidationError
from ..validation import check_k
from .lsh import LSHSolver
from .rkdtree import RandomizedKDForest

__all__ = ["all_nearest_neighbors", "exact_all_knn", "AllKnnReport"]


@dataclass
class AllKnnReport:
    """Outcome of an approximate all-NN run."""

    result: KnnResult
    iterations: int
    kernel_seconds: float
    total_seconds: float
    converged: bool
    group_count: int = 0
    mean_group_size: float = 0.0
    recall_curve: list[float] = field(default_factory=list)
    #: which solver actually ran — matters for ``method="auto"``, where
    #: the planner's choice (or its exact fallback) is invisible in the
    #: arguments
    method_used: str = ""
    #: the planner decision behind ``method="auto"`` runs, else None
    decision: object | None = None

    @property
    def kernel_fraction(self) -> float:
        """Share of wall-clock spent inside the kNN kernel."""
        if self.total_seconds <= 0:
            return 0.0
        return self.kernel_seconds / self.total_seconds


def _run_kernel(
    kernel: str,
    table: TableHandle,
    group: np.ndarray,
    k: int,
    variant: int | str,
    initial: KnnResult | None = None,
    plans: "PlanCache | None" = None,
) -> KnnResult:
    """Solve one group; with ``initial`` (the group's current lists) the
    fused kernel both warm-starts its filter and performs the update
    merge itself — the paper's 'update the neighbor lists' semantics.
    With ``plans``, the group's kernel runs through a cached
    :class:`~repro.core.plan.GsknnPlan` (arena-backed buffers shared
    across every group of the run, reference panels reused whenever the
    same group recurs across iterations)."""
    k_eff = min(k, group.size)
    folded = False
    if kernel == "gsknn":
        warm = initial if (initial is not None and k_eff == k) else None
        if plans is not None:
            plan = plans.get(table, group, variant=variant)
            res = plan.execute(group, k_eff, initial=warm)
        else:
            res = gsknn(
                table, group, group, k_eff, variant=variant, initial=warm
            )
        folded = warm is not None
    elif kernel == "gemm":
        res = ref_knn(table.X, group, group, k_eff, X2=table.norms)
    else:
        raise ValidationError(
            f"kernel must be 'gsknn' or 'gemm', got {kernel!r}"
        )
    if k_eff < k:
        pad = k - k_eff
        res = KnnResult(
            np.pad(res.distances, ((0, 0), (0, pad)), constant_values=np.inf),
            np.pad(res.indices, ((0, 0), (0, pad)), constant_values=-1),
        )
    if initial is not None and not folded:
        res = merge_neighbor_lists_fast(res, initial)
    return res


def _solve_groups(
    kernel: str,
    table: TableHandle,
    groups: list[np.ndarray],
    k: int,
    variant: int | str,
    n_workers: int,
    current: KnnResult,
    plans: "PlanCache | None" = None,
) -> list[KnnResult]:
    """Solve one iteration's group kernels, serially or task-parallel.

    Each group gets its rows' *current* lists as the kernel's warm
    ``initial`` — groups within a grouping are disjoint, so the reads
    are race-free even under the thread pool.
    """

    def warm(g: np.ndarray) -> KnnResult:
        return KnnResult(current.distances[g], current.indices[g])

    if n_workers == 1 or len(groups) <= 1:
        return [
            _run_kernel(kernel, table, g, k, variant, warm(g), plans)
            for g in groups
        ]

    # §2.5 task parallelism: LPT-schedule groups by modeled runtime
    from ..model.perf_model import PerformanceModel
    from ..parallel.scheduler import ScheduledTask, execute_schedule, lpt_schedule

    model = PerformanceModel()
    tasks = [
        ScheduledTask(
            i,
            model.estimate_kernel_runtime(
                g.size, g.size, table.d, min(k, g.size)
            ),
            payload=g,
        )
        for i, g in enumerate(groups)
    ]
    schedule = lpt_schedule(tasks, n_workers)
    results = execute_schedule(
        schedule,
        lambda t: _run_kernel(
            kernel, table, t.payload, k, variant, warm(t.payload), plans
        ),
    )
    return [results[i] for i in range(len(groups))]


def exact_all_knn(
    X: np.ndarray,
    k: int,
    *,
    kernel: str = "gsknn",
    batch: int = 2048,
) -> KnnResult:
    """Exact all-NN by brute force: every point queried against all points.

    O(N^2 d) — the ground truth for recall evaluation at small N. Queries
    run in batches so memory stays bounded.
    """
    table = as_table(X)
    n = table.n
    k = check_k(k, n)
    all_idx = np.arange(n, dtype=np.intp)
    dist = np.empty((n, k), dtype=np.float64)
    idx = np.empty((n, k), dtype=np.intp)
    for start in range(0, n, batch):
        q = all_idx[start : start + batch]
        if kernel == "gsknn":
            res = gsknn(table, q, all_idx, k)
        elif kernel == "gemm":
            res = ref_knn(table.X, q, all_idx, k, X2=table.norms)
        else:
            raise ValidationError(
                f"kernel must be 'gsknn' or 'gemm', got {kernel!r}"
            )
        dist[start : start + q.size] = res.distances
        idx[start : start + q.size] = res.indices
    return KnnResult(dist, idx)


def _graph_all_knn(
    X: np.ndarray,
    k: int,
    *,
    seed: int | None,
    truth: KnnResult | None,
    graph_kwargs: dict,
    decision: object | None = None,
) -> AllKnnReport:
    """All-NN by NN-descent: the built graph's kNN lists are the answer.

    The build's tree initialization runs its leaf solves through the
    fused kernel, so ``kernel_seconds`` reports that stage; refinement
    rounds are blocked candidate GEMMs accounted in ``total_seconds``.
    """
    from ..approx.nndescent import build_graph_index

    kwargs = dict(graph_kwargs)
    kwargs["k_build"] = max(int(kwargs.get("k_build", max(k, 16))), k)
    kwargs.setdefault("seed", 0 if seed is None else int(seed))
    index = build_graph_index(X, truth=truth, **kwargs)
    rep = index.build_report
    return AllKnnReport(
        result=index.as_result(k),
        iterations=rep.rounds,
        kernel_seconds=rep.init_seconds,
        total_seconds=rep.total_seconds,
        converged=rep.converged,
        recall_curve=list(rep.recall_curve),
        method_used="graph",
        decision=decision,
    )


def all_nearest_neighbors(
    X: np.ndarray,
    k: int,
    *,
    method: str = "rkdtree",
    kernel: str = "gsknn",
    leaf_size: int = 512,
    iterations: int = 8,
    tol: float = 1e-4,
    seed: int | None = 0,
    variant: int | str = "auto",
    truth: KnnResult | None = None,
    lsh: LSHSolver | None = None,
    n_workers: int = 1,
    plan_reuse: "bool | PlanCache" = True,
    recall_target: float | None = None,
    planner: "object | None" = None,
    graph_kwargs: dict | None = None,
) -> AllKnnReport:
    """Approximate all-nearest-neighbors via iterated random groupings.

    Parameters
    ----------
    method:
        ``"rkdtree"`` (randomized KD-trees, the Table 1 solver),
        ``"rptree"`` (random projection trees, the paper's ref [6]),
        ``"lsh"`` (random-projection hashing), ``"graph"`` (NN-descent
        graph construction — the index's kNN lists *are* the all-NN
        answer) or ``"auto"`` (let the recall-aware
        :class:`~repro.approx.planner.QueryPlanner` pick; see
        ``recall_target``).
    kernel:
        ``"gsknn"`` or ``"gemm"`` — which kNN kernel solves each group.
    leaf_size:
        Target group size ``m`` (points per leaf / bucket cap).
    iterations:
        Maximum random groupings (trees / hash tables).
    tol:
        Convergence: stop when the summed kth-neighbor distance improves
        by less than ``tol`` (relatively) over one iteration.
    truth:
        Optional exact result; when given, per-iteration recall is
        recorded in ``report.recall_curve``.
    n_workers:
        Task-parallel execution of each iteration's group kernels
        (§2.5): groups are LPT-scheduled onto ``n_workers`` threads by
        model-estimated runtime. Results are identical to serial
        (groups within one iteration are disjoint). 1 = serial.
    plan_reuse:
        Run each group kernel through a cached
        :class:`~repro.core.plan.GsknnPlan` (default). All groups share
        one workspace arena pool, so the per-group distance/merge
        temporaries are allocated once per run instead of once per
        group, and warm-started groups use the masked selection path.
        Results are identical either way; ``False`` restores the plain
        one-shot kernel calls. Pass an existing
        :class:`~repro.core.plan.PlanCache` to carry plans *across*
        solves: repeated solves over the same table with the same seed
        regrow identical trees, so every leaf group hits its cached
        reference panels and the already-grown workspace arenas.
    recall_target:
        Only read by ``method="auto"``: the recall the planner must
        (predictedly) meet. ``None`` or ``>= 0.999`` means exact.
    planner:
        Only read by ``method="auto"``: a pre-built
        :class:`~repro.approx.planner.QueryPlanner` (tests inject one
        with a handcrafted calibration). Default constructs one from the
        persisted per-host calibration; a missing calibration silently
        falls back to exact.
    graph_kwargs:
        Only read by ``method="graph"``/``"auto"``: extra keyword
        arguments for :func:`~repro.approx.nndescent.build_graph_index`
        (``k_build`` is clamped up to ``k`` so the lists stay wide
        enough for the answer).
    """
    table = as_table(X)
    X = table.X
    n = X.shape[0]
    k = check_k(k, n)

    if method == "auto":
        from ..approx.planner import QueryPlanner

        qp = planner if planner is not None else QueryPlanner()
        decision = qp.plan(
            n, X.shape[1], k, recall_target=recall_target, workload="allknn"
        )
        if decision.method == "graph":
            gk = dict(graph_kwargs or {})
            if "k_build" not in gk and "k_build" in decision.params:
                gk["k_build"] = int(decision.params["k_build"])
            return _graph_all_knn(
                X, k, seed=seed, truth=truth, graph_kwargs=gk,
                decision=decision,
            )
        if decision.method in ("rkdtree", "rptree", "lsh"):
            report = all_nearest_neighbors(
                X,
                k,
                method=decision.method,
                kernel=kernel,
                leaf_size=int(decision.params.get("leaf_size", leaf_size)),
                iterations=int(decision.params.get("iterations", iterations)),
                tol=tol,
                seed=seed,
                variant=variant,
                truth=truth,
                lsh=lsh,
                n_workers=n_workers,
                plan_reuse=plan_reuse,
            )
            report.decision = decision
            return report
        # "exact" — the planner's choice and every fallback rung alike
        t0 = time.perf_counter()
        result = exact_all_knn(X, k, kernel=kernel)
        total = time.perf_counter() - t0
        return AllKnnReport(
            result=result,
            iterations=1,
            kernel_seconds=total,
            total_seconds=total,
            converged=True,
            recall_curve=[recall(result, truth)] if truth is not None else [],
            method_used="exact",
            decision=decision,
        )

    if method == "graph":
        return _graph_all_knn(
            X, k, seed=seed, truth=truth, graph_kwargs=dict(graph_kwargs or {})
        )

    if iterations < 1:
        raise ValidationError(f"iterations must be >= 1, got {iterations}")
    if leaf_size <= k:
        raise ValidationError(
            f"leaf_size ({leaf_size}) must exceed k ({k}) or groups "
            "cannot fill a neighbor list"
        )

    if method == "rkdtree":
        forest = RandomizedKDForest(
            leaf_size=leaf_size, n_trees=iterations, seed=seed
        )
        groupings = ([leaf for leaf in tree.leaves] for tree in forest.trees(X))
    elif method == "rptree":
        from .rptree import RandomProjectionForest

        rp_forest = RandomProjectionForest(
            leaf_size=leaf_size, n_trees=iterations, seed=seed
        )
        groupings = (
            [leaf for leaf in tree.leaves] for tree in rp_forest.trees(X)
        )
    elif method == "lsh":
        solver = lsh if lsh is not None else LSHSolver(
            n_tables=iterations, max_bucket=leaf_size, seed=seed
        )
        groupings = solver.buckets(X)
    else:
        raise ValidationError(
            "method must be 'rkdtree', 'rptree', 'lsh', 'graph' or "
            f"'auto', got {method!r}"
        )

    plans = None
    if kernel == "gsknn":
        from ..core.plan import PlanCache

        # NOTE: an empty PlanCache is falsy (len == 0), so the instance
        # check must come before the truthiness one
        if isinstance(plan_reuse, PlanCache):
            plans = plan_reuse
        elif plan_reuse:
            plans = PlanCache(max_plans=64)
    current = KnnResult(
        np.full((n, k), np.inf), np.full((n, k), -1, dtype=np.intp)
    )
    kernel_seconds = 0.0
    group_count = 0
    group_size_total = 0
    recall_curve: list[float] = []
    converged = False
    start_total = time.perf_counter()
    last_score = np.inf
    done = 0

    if n_workers < 1:
        raise ValidationError(f"n_workers must be >= 1, got {n_workers}")

    for grouping in groupings:
        done += 1
        groups = [
            np.asarray(group, dtype=np.intp)
            for group in grouping
            if np.asarray(group).size >= 2
        ]
        group_count += len(groups)
        group_size_total += int(sum(g.size for g in groups))
        t0 = time.perf_counter()
        locals_by_group = _solve_groups(
            kernel, table, groups, k, variant, n_workers, current, plans
        )
        kernel_seconds += time.perf_counter() - t0
        for group, local in zip(groups, locals_by_group):
            # kernels received the rows' current lists as warm initial
            # state and returned the already-merged update, so the
            # global table takes a straight assignment
            current.distances[group] = local.distances
            current.indices[group] = local.indices
        if truth is not None:
            recall_curve.append(recall(current, truth))
        filled = current.distances[np.isfinite(current.distances)]
        score = float(filled.sum())
        if np.isfinite(last_score) and last_score > 0:
            if (last_score - score) / last_score < tol and bool(
                (current.indices >= 0).all()
            ):
                converged = True
                break
        last_score = score
        if done >= iterations:
            break

    total_seconds = time.perf_counter() - start_total
    return AllKnnReport(
        result=current,
        iterations=done,
        kernel_seconds=kernel_seconds,
        total_seconds=total_seconds,
        converged=converged,
        group_count=group_count,
        mean_group_size=(group_size_total / group_count) if group_count else 0.0,
        recall_curve=recall_curve,
        method_used=method,
    )
