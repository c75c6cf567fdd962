"""Simulated distributed randomized-KD-tree all-NN (the Table 1 solver).

One iteration of the distributed algorithm, following the structure of
the paper's outer solver ([34], Xiao & Biros):

1. rank 0 builds this iteration's randomized tree over the global point
   ids and assigns whole leaves to ranks with LPT scheduling on modeled
   kernel runtimes (§2.5's task-parallel scheme across nodes);
2. every rank ships the coordinates of points whose leaves it was
   assigned but whose *home* rank (block distribution) is elsewhere —
   the alltoallv that dominates the real solver's communication;
3. each rank solves one exact kNN kernel per assigned leaf (measured
   wall-clock, attributed to that rank);
4. updated neighbor lists travel back to the points' home ranks and
   merge into the global table.

Everything computes for real in one process, so results are bit-exact
against the shared-memory solver; the *projection* combines the
busiest rank's measured kernel seconds with the alpha-beta-priced
communication to estimate multi-node wall clock.

The rank execution substrate is pluggable (``transport=``): ``"sim"``
keeps the historical in-process ranks over :class:`SimComm`, while
``"process"`` places each rank's leaf kernels in a **real, long-lived
worker process** (the shard transport of :mod:`repro.shard.transport`,
shared-memory table, per-worker :class:`~repro.core.plan.PlanCache`
kept warm across leaves and iterations). Both produce bit-identical
results; SimComm still prices the communication volume in either mode.
Either way a leaf kernel that fails on its rank — a fault, a dead
worker — is retried there and then re-solved in the parent. See
docs/DISTRIBUTED.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.neighbors import KnnResult, merge_neighbor_lists_fast
from ..core.table import TableHandle, as_table
from ..core.ref_kernel import ref_knn
from ..errors import ValidationError
from ..model.perf_model import PerformanceModel
from ..obs import trace as _trace
from ..obs.metrics import get_registry as _get_registry
from ..parallel.scheduler import ScheduledTask, lpt_schedule
from ..resilience.executor import InlineRung, ThreadRung, run_ladder
from ..resilience.retry import RetryPolicy
from ..trees.rkdtree import RandomizedKDTree
from ..validation import check_k
from .comm import AlphaBetaModel, SimComm

__all__ = ["DistributedAllKnn", "DistributedReport"]

#: Chrome-trace tid base for simulated-rank lanes (rank r renders on
#: lane ``_RANK_LANE + r``, away from any real thread id).
_RANK_LANE = 1000


@dataclass
class DistributedReport:
    """Outcome of a simulated distributed solve."""

    result: KnnResult
    n_ranks: int
    iterations: int
    rank_kernel_seconds: list[float]
    comm_seconds: float
    comm_bytes: int
    serial_kernel_seconds: float = 0.0
    schedule_imbalance: float = 1.0

    @property
    def projected_seconds(self) -> float:
        """Estimated multi-node wall clock: busiest rank + communication."""
        return max(self.rank_kernel_seconds) + self.comm_seconds

    @property
    def projected_speedup(self) -> float:
        """Serial kernel time over the projection — the multi-node gain."""
        if self.projected_seconds <= 0:
            return 1.0
        return self.serial_kernel_seconds / self.projected_seconds


class DistributedAllKnn:
    """Simulated multi-rank randomized-KD-tree all-NN solver."""

    def __init__(
        self,
        n_ranks: int = 8,
        *,
        leaf_size: int = 512,
        iterations: int = 2,
        kernel: str = "gsknn",
        comm_model: AlphaBetaModel | None = None,
        seed: int | None = 0,
        transport: str = "sim",
    ) -> None:
        if n_ranks < 1:
            raise ValidationError(f"need n_ranks >= 1, got {n_ranks}")
        if leaf_size < 2:
            raise ValidationError("leaf_size must be >= 2")
        if iterations < 1:
            raise ValidationError("iterations must be >= 1")
        if kernel not in ("gsknn", "gemm"):
            raise ValidationError(
                f"kernel must be 'gsknn' or 'gemm', got {kernel!r}"
            )
        if transport not in ("sim", "process"):
            raise ValidationError(
                f"transport must be 'sim' or 'process', got {transport!r}"
            )
        if transport == "process" and kernel != "gsknn":
            raise ValidationError(
                "the process transport runs the fused gsknn kernel in "
                "shard workers; kernel='gemm' requires transport='sim'"
            )
        self.n_ranks = int(n_ranks)
        self.leaf_size = int(leaf_size)
        self.iterations = int(iterations)
        self.kernel = kernel
        self.comm_model = comm_model if comm_model is not None else AlphaBetaModel()
        self.seed = 0 if seed is None else int(seed)
        #: "sim" = in-process ranks over SimComm (historical behavior);
        #: "process" = per-rank leaf kernels in long-lived worker
        #: processes over shared memory (bit-identical results)
        self.transport = transport
        self._rank_workers = None
        # Per-leaf kernels run through cached plans: every leaf of a
        # solve shares one workspace arena pool, and a leaf that recurs
        # across iterations reuses its gathered panels.
        from ..core.plan import PlanCache

        self._plans = PlanCache(max_plans=32)

    # -- pieces ---------------------------------------------------------------

    def _home_rank(self, n: int) -> np.ndarray:
        """Block distribution: point i lives on rank i * n_ranks // n."""
        return (np.arange(n) * self.n_ranks // n).astype(np.intp)

    def _assign_leaves(
        self, leaves: list[np.ndarray], d: int, k: int, model: PerformanceModel
    ) -> list[list[np.ndarray]]:
        """LPT-schedule whole leaves onto ranks by modeled kernel time."""
        tasks = [
            ScheduledTask(
                i,
                model.estimate_kernel_runtime(
                    leaf.size, leaf.size, d, min(k, leaf.size)
                ),
                payload=leaf,
            )
            for i, leaf in enumerate(leaves)
        ]
        schedule = lpt_schedule(tasks, self.n_ranks)
        self._last_imbalance = schedule.imbalance
        return [[t.payload for t in rank] for rank in schedule.assignments]

    def _solve_leaf(
        self, table: TableHandle, group: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """One leaf kernel in this process (a simulated rank, or the
        parent re-solving a leaf its rank worker could not)."""
        if self.kernel == "gemm":
            res = ref_knn(table.X, group, group, k, X2=table.norms)
        else:
            res = self._plans.get(table, group).execute(group, k)
        return res.distances, res.indices

    def _run_kernel(
        self,
        table: TableHandle,
        group: np.ndarray,
        k: int,
        *,
        rank: int,
        key: str,
        deadline=None,
        retry=None,
        fault_plan=None,
    ) -> KnnResult:
        """One leaf kernel as a one-item ladder: its rank, then the parent.

        A simulated rank solves on a thread that fires the fault for
        ``key`` (``iteration:rank:leaf``) inside the task, or inline on
        a plain call; a rank worker process rolls its own dice and is
        restarted when it dies. The last rung re-solves the leaf in the
        parent, fault-free — also with no retry policy — so results are
        unchanged by injection.
        """
        def open_parent():
            return lambda rank, task: self._solve_leaf(table, task[1], task[3])

        parent = InlineRung(open_parent)
        if self._rank_workers is not None:
            from ..shard.transport import _TransportRung

            rungs = (_TransportRung(self._rank_workers), parent)
        elif retry is None:
            rungs = (parent,)
        else:
            fault = None if fault_plan is None else (
                lambda _rank, attempt: fault_plan.apply("rank", key, attempt)
            )
            rungs = (ThreadRung(open_parent, 1, fault=fault), parent)
        k_eff = min(k, group.size)
        dist, idx = run_ladder(
            {rank: ("group", group, group, k_eff)},
            rungs,
            retry=retry if retry is not None else RetryPolicy(max_attempts=1),
            deadline=deadline,
        )[rank]
        if k_eff == k:
            return KnnResult(dist, idx)
        pad = k - k_eff
        return KnnResult(
            np.pad(dist, ((0, 0), (0, pad)), constant_values=np.inf),
            np.pad(idx, ((0, 0), (0, pad)), constant_values=-1),
        )

    # -- the solve ---------------------------------------------------------------

    def solve(
        self,
        X: np.ndarray,
        k: int,
        *,
        deadline=None,
        retry=None,
        fault_plan=None,
        request=None,
    ) -> DistributedReport:
        """Run the simulated distributed solve.

        ``X`` is an array or a :class:`~repro.core.table.TableHandle`. An
        array is validated once for this solve and left as it was; pass a
        handle to validate once across solves and let recurring leaves
        find their cached plans.

        Resilience: ``deadline`` (a :class:`~repro.resilience.Deadline`
        or a budget in seconds) bounds the whole solve — it is checked
        before every leaf kernel *and* on every simulated send/recv, so
        expiry raises :class:`~repro.errors.KernelTimeoutError` instead
        of grinding on. Every leaf kernel runs on the resilience layer's
        retry/fallback loop (:func:`~repro.resilience.executor.run_ladder`),
        so its wait — and any injected slow fault, which fires inside
        the rank's task — is bounded by the same deadline.
        ``fault_plan`` (or ``$REPRO_FAULT_PLAN``) injects deterministic
        rank-level faults into leaf kernels; ``retry`` (defaulted on
        when faults are active) re-runs a failed leaf on its rank with
        backoff — the recovery the paper's outer solver [34] assumes at
        rank level — before a fault-free re-solve in the parent, so
        results are unchanged by injection.

        ``request`` (a :class:`~repro.obs.context.RequestContext` or
        bare request-id string) tags every span and metric of the solve;
        a context deadline becomes the solve deadline unless one is
        passed explicitly. Per-rank kernel spans carry a ``lane``
        attribute, so a Chrome trace shows each simulated rank on its
        own timeline lane.
        """
        from ..obs.context import coerce_request, current_request, request_scope

        ctx = coerce_request(request) or current_request()
        if deadline is None and ctx is not None:
            deadline = ctx.deadline
        with request_scope(ctx):
            with _trace.span(
                "dist.solve", n_ranks=self.n_ranks, kernel=self.kernel
            ):
                return self._solve(
                    X, k, deadline=deadline, retry=retry, fault_plan=fault_plan
                )

    def _solve(
        self,
        X: np.ndarray,
        k: int,
        *,
        deadline=None,
        retry=None,
        fault_plan=None,
    ) -> DistributedReport:
        from ..resilience import Deadline, FaultPlan

        table = as_table(X)
        X = table.X
        n, d = X.shape
        k = check_k(k, n)
        if self.leaf_size <= k:
            raise ValidationError(
                f"leaf_size ({self.leaf_size}) must exceed k ({k})"
            )
        deadline = Deadline.coerce(deadline)
        fault_plan = FaultPlan.coerce(fault_plan)
        if fault_plan is None:
            fault_plan = FaultPlan.from_env()
        if retry is None and fault_plan is not None:
            retry = RetryPolicy()

        comm = SimComm(self.n_ranks, deadline=deadline)
        model = PerformanceModel()
        home = self._home_rank(n)
        if self.transport == "process":
            from ..shard.transport import ProcessTransport, ShardWorld

            workers = ProcessTransport()
            # group-only world: the rank workers attach the table but own
            # no partition — every leaf arrives as an explicit group task
            # served from the worker's warm PlanCache
            workers.start(
                ShardWorld(
                    table=table,
                    local_ids=[
                        np.empty(0, dtype=np.intp)
                        for _ in range(self.n_ranks)
                    ],
                    epoch=0,
                    fault_spec=(
                        fault_plan.spec()
                        if fault_plan is not None and fault_plan.active
                        else None
                    ),
                )
            )
            self._rank_workers = workers
        try:
            return self._solve_inner(
                table, k, n, d, comm, model, home,
                deadline=deadline, retry=retry, fault_plan=fault_plan,
            )
        finally:
            if self._rank_workers is not None:
                self._rank_workers.close()
                self._rank_workers = None

    def _solve_inner(
        self,
        table: TableHandle,
        k: int,
        n: int,
        d: int,
        comm: SimComm,
        model: PerformanceModel,
        home: np.ndarray,
        *,
        deadline=None,
        retry=None,
        fault_plan=None,
    ) -> DistributedReport:
        X = table.X
        current = KnnResult(
            np.full((n, k), np.inf), np.full((n, k), -1, dtype=np.intp)
        )
        rank_kernel_seconds = [0.0] * self.n_ranks
        serial_kernel = 0.0
        imbalances: list[float] = []
        rng = np.random.default_rng(self.seed)

        for iteration in range(self.iterations):
            # rank-owned phases carry a ``lane`` attr (an int tid
            # override) so every simulated rank renders on its own
            # Chrome-trace lane; 1000+ keeps clear of real thread ids
            with _trace.span("tree_build", iteration=iteration, lane=_RANK_LANE):
                tree = RandomizedKDTree(
                    leaf_size=self.leaf_size,
                    seed=int(rng.integers(0, 2**63 - 1)),
                ).fit(X)
                # rank 0 owns the tree; leaf assignments are broadcast
                assignments = self._assign_leaves(tree.leaves, d, k, model)
            imbalances.append(self._last_imbalance)
            comm.broadcast(
                0, np.concatenate([leaf for leaf in tree.leaves]), tag="tree"
            )

            # coordinate exchange: each solving rank receives the rows of
            # its leaves that live on other home ranks
            with _trace.span("exchange", what="coords", iteration=iteration):
                shuffle: list[list] = [
                    [np.empty((0, d)) for _ in range(self.n_ranks)]
                    for _ in range(self.n_ranks)
                ]
                for solver_rank, rank_leaves in enumerate(assignments):
                    for leaf in rank_leaves:
                        owners = home[leaf]
                        for src in np.unique(owners):
                            if src == solver_rank:
                                continue
                            rows = leaf[owners == src]
                            shuffle[src][solver_rank] = np.vstack(
                                [shuffle[src][solver_rank], X[rows]]
                            )
                comm.alltoallv(shuffle, tag="coords")

            # each rank solves its leaves (measured, attributed per rank);
            # list updates destined for other home ranks accumulate per
            # (solver, dst) pair and travel in one alltoallv
            pending: list[list[list]] = [
                [[] for _ in range(self.n_ranks)] for _ in range(self.n_ranks)
            ]
            for solver_rank, rank_leaves in enumerate(assignments):
                for leaf_index, leaf in enumerate(rank_leaves):
                    if deadline is not None:
                        deadline.check(
                            "rank kernel",
                            iteration=iteration,
                            rank=solver_rank,
                        )
                    t0 = time.perf_counter()
                    with _trace.span(
                        "kernel",
                        rank=solver_rank,
                        leaf_size=int(leaf.size),
                        lane=_RANK_LANE + solver_rank,
                    ):
                        local = self._run_kernel(
                            table, leaf, k,
                            rank=solver_rank,
                            key=f"{iteration}:{solver_rank}:{leaf_index}",
                            deadline=deadline,
                            retry=retry,
                            fault_plan=fault_plan,
                        )
                    elapsed = time.perf_counter() - t0
                    rank_kernel_seconds[solver_rank] += elapsed
                    serial_kernel += elapsed
                    owners = home[leaf]
                    for dst in np.unique(owners):
                        mask = owners == dst
                        payload = (
                            leaf[mask],
                            local.distances[mask],
                            local.indices[mask],
                        )
                        if dst == solver_rank:
                            self._merge_rows(current, *payload)
                        else:
                            pending[solver_rank][dst].append(payload)
            with _trace.span("exchange", what="lists", iteration=iteration):
                results_back = [
                    [self._stack_payloads(cell, k) for cell in row]
                    for row in pending
                ]
                inboxes = comm.alltoallv(results_back, tag="lists")
                for dst in range(self.n_ranks):
                    for payload in inboxes[dst]:
                        rows, dists, ids = payload
                        if rows.size:
                            self._merge_rows(current, rows, dists, ids)

        registry = _get_registry()
        if registry.enabled:
            registry.inc("dist.solves")
            registry.inc("dist.comm_bytes", comm.total_bytes())
            registry.set(
                "dist.imbalance", max(imbalances) if imbalances else 1.0
            )
            for seconds in rank_kernel_seconds:
                registry.observe("dist.rank_kernel_seconds", seconds)
        return DistributedReport(
            result=current,
            n_ranks=self.n_ranks,
            iterations=self.iterations,
            rank_kernel_seconds=rank_kernel_seconds,
            comm_seconds=comm.max_rank_seconds(self.comm_model),
            comm_bytes=comm.total_bytes(),
            serial_kernel_seconds=serial_kernel,
            schedule_imbalance=max(imbalances) if imbalances else 1.0,
        )

    @staticmethod
    def _stack_payloads(cell: list, k: int):
        """Concatenate a (solver, dst) cell's leaf payloads into one message."""
        if not cell:
            return (
                np.empty(0, dtype=np.intp),
                np.empty((0, k)),
                np.empty((0, k), dtype=np.intp),
            )
        rows = np.concatenate([p[0] for p in cell])
        dists = np.vstack([p[1] for p in cell])
        ids = np.vstack([p[2] for p in cell])
        return rows, dists, ids

    @staticmethod
    def _merge_rows(
        current: KnnResult,
        rows: np.ndarray,
        dists: np.ndarray,
        ids: np.ndarray,
    ) -> None:
        merged = merge_neighbor_lists_fast(
            KnnResult(current.distances[rows], current.indices[rows]),
            KnnResult(dists, ids),
        )
        current.distances[rows] = merged.distances
        current.indices[rows] = merged.indices
