"""Micro-batching query service: coalesce concurrent kNN queries into
fused batched solves.

An online serving workload inverts the shapes this repo's kernels were
tuned on: instead of one big ``(m, n, k)`` solve, thousands of tiny
independent requests — a handful of query rows each — arrive
concurrently against one shared reference table. Solving each alone
pays the kernel's fixed costs (dispatch, plan lookup, panel streaming,
the small-GEMM efficiency cliff of §2.3) once *per request*;
:class:`KnnQueryService` pays them once per *window* by fusing every
in-flight request into one batched solve and demultiplexing per-request
slices of the result.

The moving parts, each in its own module:

* admission — a bounded queue; at the bound :meth:`submit` sheds with
  :class:`~repro.errors.OverloadError` carrying a measured
  ``retry_after`` instead of queueing into collapse — but only a
  tenant already holding its weighted share of the bound, so a burst
  from one tenant cannot lock the others out;
* fairness — :class:`~repro.serve.queueing.FairQueue` dequeues
  weighted-round-robin across tenants, so one chatty tenant cannot
  starve the rest out of every coalescing window;
* the window policy — :class:`~repro.serve.policy.CoalescingPolicy`
  keeps a window open only while the §2.6 performance model predicts
  the marginal amortization gain beats the expected wait for the next
  arrival (``policy="fixed"`` reverts to dumb time/size windows);
* SLOs — each request carries a :class:`~repro.resilience.Deadline`
  through its :class:`~repro.obs.context.RequestContext`; requests that
  expire while queued fail fast (the budget is already lost — burning
  kernel time on them only hurts everyone behind);
* solves — index requests fuse through
  :func:`~repro.core.batch.gsknn_batch` (one
  :class:`~repro.core.batch.KnnProblem` per distinct ``k``) against a
  service-owned :class:`~repro.core.plan.PlanCache`, so reference
  panels stay packed across windows; literal-row requests fuse through
  :meth:`~repro.core.plan.GsknnPlan.execute_rows` on plans from the
  same cache. The service holds one
  :class:`~repro.core.table.TableHandle`: the table is validated once,
  at construction, and frozen, so a window re-checks nothing and its
  plan lookup (on :data:`~repro.core.table.ALL_ROWS`) is one dict hit;
* faults — each solve of a window is a one-item ladder on the
  resilience layer's one retry loop (:func:`~repro.resilience.run_ladder`);
  an active :class:`~repro.resilience.FaultPlan` (e.g. from
  ``$REPRO_FAULT_PLAN``) fires inside it and the solve retries with
  fresh dice. Windows keep no fault-free attempt, so a group whose dice
  fail every attempt fails its requests with the last error;
* sharding — with ``config.shards > 0`` the service mounts a
  :class:`~repro.shard.router.ShardedAllKnn` over the table and every
  exact window (index and row groups alike) is scatter/gathered across
  the shard workers instead of solved in-process. Results are
  bit-identical to the unsharded solve (see docs/DISTRIBUTED.md);
  shard-level failures recover inside the router's per-shard ladder
  without failing the window.

Everything observable flows through the ordinary metrics registry under
the ``serve.*`` namespace (latency quantiles, queue depth, occupancy,
coalescing ratio, shed/SLO counters) — the existing ``/metrics``
exporter serves them with zero extra wiring.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Any

import numpy as np

from ..core.batch import KnnProblem, gsknn_batch
from ..core.membudget import MemoryBudget
from ..core.neighbors import KnnResult
from ..core.plan import PlanCache
from ..core.table import ALL_ROWS, TableHandle
from ..errors import KernelTimeoutError, OverloadError, ValidationError
from ..model.perf_model import PerformanceModel
from ..obs.context import RequestContext, request_scope
from ..obs.metrics import get_registry as _get_registry
from ..resilience import Deadline, FaultPlan, RetryPolicy
from ..resilience.executor import InlineRung, ThreadRung, run_ladder
from ..validation import as_index_array, check_finite, check_k
from .config import ServeConfig
from .policy import CoalescingPolicy
from .queueing import FairQueue, PendingRequest

__all__ = ["KnnQueryService", "ServeHandle"]

#: Bucket layout for serving-latency histograms: finer than the default
#: power-of-two edges so p99 gauges resolve to ~±40% at the
#: sub-millisecond latencies micro-batching produces.
_LATENCY_BUCKETS = dict(start=1e-5, factor=1.4, count=45)

#: Attempts per window solve when a fault plan is active (attempt 0 plus
#: retries with fresh deterministic dice; every attempt is faulted).
_WINDOW_ATTEMPTS = 3


@dataclass
class ServeHandle:
    """Caller's side of one submitted request.

    ``result()`` blocks until the fused solve that carried the request
    completes, returning the per-request :class:`KnnResult` slice;
    failures (deadline expiry, solve errors, shutdown) re-raise here.
    """

    request_id: str
    tenant: str
    future: Any

    def result(self, timeout: float | None = None) -> KnnResult:
        return self.future.result(timeout)

    def exception(self, timeout: float | None = None):
        return self.future.exception(timeout)

    def done(self) -> bool:
        return self.future.done()


class KnnQueryService:
    """Admission-controlled micro-batching front-end over one table.

    Parameters
    ----------
    X:
        The shared ``(n, d)`` reference table every request queries, or
        a :class:`~repro.core.table.TableHandle` over it. An array is
        validated once and frozen (its ``writeable`` flag is cleared),
        not copied: writing to it afterwards raises, so a request can
        never see panels packed from older contents.
    config:
        A :class:`~repro.serve.config.ServeConfig`; default tunables
        otherwise.
    norm, variant:
        Forwarded to the fused solves (same semantics as
        :func:`~repro.core.gsknn.gsknn`).
    model:
        :class:`~repro.model.PerformanceModel` for the coalescing
        policy; default paper-constants model otherwise.
    fault_plan:
        Explicit :class:`~repro.resilience.FaultPlan` (or spec string);
        default is ``FaultPlan.from_env()`` like the other driver entry
        points.
    graph_index:
        A :class:`~repro.approx.nndescent.GraphIndex` built over ``X``.
        When set, requests carrying a ``recall_target`` may be routed
        (by the planner, per calibrated cost) through beam search on
        the graph instead of the exact fused solve. Requests without a
        target always solve exactly.
    planner:
        The :class:`~repro.approx.planner.QueryPlanner` deciding
        exact-vs-graph per request; default loads the persisted
        per-host calibration. With no calibration every request falls
        back to exact — approximate serving degrades silently, it
        never errors.

    Use as a context manager (or call :meth:`start`/:meth:`stop`)::

        with KnnQueryService(X, config) as svc:
            handle = svc.submit([3, 17], k=8, tenant="search")
            result = handle.result()
    """

    def __init__(
        self,
        X: np.ndarray,
        config: ServeConfig | None = None,
        *,
        norm: str | float = "l2",
        variant: int | str = "auto",
        model: PerformanceModel | None = None,
        fault_plan: FaultPlan | str | None = None,
        graph_index: Any = None,
        planner: Any = None,
    ) -> None:
        self._table = X if isinstance(X, TableHandle) else TableHandle(X)
        self.config = config if config is not None else ServeConfig()
        if graph_index is not None and graph_index.X.shape != self.X.shape:
            raise ValidationError(
                f"graph_index was built over a {graph_index.X.shape} table "
                f"but the service serves {self.X.shape}"
            )
        self._graph = graph_index
        self._planner = planner
        self._approx_windows = 0
        self._norm = norm
        self._variant = variant
        # One budget object for the whole service: every window's plans
        # and arenas charge against the same cap (ServeConfig validated
        # the spec at construction, so this coerce cannot fail late).
        self._budget = MemoryBudget.coerce(self.config.memory_budget)
        self._plans = PlanCache(max_plans=self.config.plan_cache_size)
        self._policy = CoalescingPolicy(
            model,
            n_refs=self.X.shape[0],
            d=self.X.shape[1],
            fixed=self.config.policy == "fixed",
        )
        plan = FaultPlan.coerce(fault_plan)
        if plan is None:
            plan = FaultPlan.from_env()
        self._fault_plan = plan if plan is not None and plan.active else None
        # each window group is a one-item ladder: solved inline or, under
        # a fault plan, on one thread that fires the fault inside the
        # task, retried without backoff and with no fault-free rung
        def open_solver():
            return lambda key, solve: solve()

        self._window_rung = (
            InlineRung(open_solver)
            if self._fault_plan is None
            else ThreadRung(
                open_solver, 1, fault=partial(plan.apply, "serve.window")
            )
        )
        self._window_retry = RetryPolicy(
            max_attempts=1 if self._fault_plan is None else _WINDOW_ATTEMPTS,
            backoff_base=0.0,
        )
        self._sharded = None
        self._queue = FairQueue(self.config.weight_of)
        self._cond = threading.Condition()
        self._thread: threading.Thread | None = None
        self._running = False
        self._stopping = False
        # Running tallies for retry_after estimation and the
        # coalescing-ratio gauge (mutated only under self._cond or by
        # the single dispatcher).
        self._windows = 0
        self._window_seq = 0
        self._solve_calls = 0
        self._completed = 0
        self._shed = 0
        self._batch_seconds_ewma = 0.0
        self._occupancy_ewma = 1.0

    @property
    def X(self) -> np.ndarray:
        """The served (frozen) coordinate table."""
        return self._table.X

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "KnnQueryService":
        if self.config.shards > 0 and self._sharded is None:
            from ..shard import ShardedAllKnn

            self._sharded = ShardedAllKnn(
                self._table,
                self.config.shards,
                transport=self.config.shard_transport,
                norm=self._norm,
                variant=self._variant,
                fault_plan=self._fault_plan,
            )
        with self._cond:
            if self._running:
                return self
            self._running = True
            self._stopping = False
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the dispatcher; drain or fail queued requests per config."""
        with self._cond:
            if not self._running:
                return
            self._stopping = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        with self._cond:
            self._running = False
        if self._sharded is not None:
            self._sharded.close()
            self._sharded = None

    def __enter__(self) -> "KnnQueryService":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._running and not self._stopping

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # -- submission -------------------------------------------------------

    def submit(
        self,
        q_idx: Any,
        k: int,
        *,
        tenant: str = "default",
        deadline: Deadline | float | None = None,
        recall_target: float | None = None,
    ) -> ServeHandle:
        """Submit a query by table indices; returns immediately.

        ``q_idx`` is one index or an array of them (one result row
        each); ``deadline`` a :class:`Deadline` or budget-seconds float,
        defaulting to the config's ``slo_ms``; ``recall_target`` opts
        the request into the approximate tier (see ``graph_index`` on
        the constructor), defaulting to the config's
        ``default_recall_target`` — i.e. exact. Raises
        :class:`~repro.errors.OverloadError` when shed at admission and
        :class:`~repro.errors.ValidationError` on malformed input —
        both synchronously, before anything is queued.
        """
        q_idx = np.atleast_1d(np.asarray(q_idx))
        q_idx = as_index_array(q_idx, self.X.shape[0], name="q_idx")
        k = check_k(k, self.X.shape[0])
        return self._admit(q_idx=q_idx, Q=None, k=k, tenant=tenant,
                           deadline=deadline, recall_target=recall_target)

    def submit_rows(
        self,
        Q: np.ndarray,
        k: int,
        *,
        tenant: str = "default",
        deadline: Deadline | float | None = None,
        recall_target: float | None = None,
    ) -> ServeHandle:
        """Submit literal query coordinates (the out-of-table shape).

        ``Q`` is ``(rows, d)`` (a single ``(d,)`` row is promoted);
        solved via :meth:`~repro.core.plan.GsknnPlan.execute_rows`
        against the same cached plans as index requests.
        """
        Q = np.ascontiguousarray(np.atleast_2d(np.asarray(Q)), dtype=np.float64)
        if Q.ndim != 2 or Q.shape[1] != self.X.shape[1]:
            raise ValidationError(
                f"Q must be ({self.X.shape[1]},) or (rows, {self.X.shape[1]}) "
                f"to match the table, got shape {Q.shape}"
            )
        check_finite(Q, name="Q")
        k = check_k(k, self.X.shape[0])
        return self._admit(q_idx=None, Q=Q, k=k, tenant=tenant,
                           deadline=deadline, recall_target=recall_target)

    def _plan_request(self, k: int, rows: int, recall_target: float | None):
        """Exact-vs-graph decision for one request; None means exact.

        Only consulted when a graph index is mounted and the request
        carries a target; the planner's ladder (no calibration, regime
        mismatch, infeasible target) lands on exact, so the worst case
        here is always the correct answer, never an error.
        """
        if (
            self._graph is None
            or recall_target is None
            or self._norm != "l2"
            or k > self._graph.k_build
        ):
            return None
        if self._planner is None:
            from ..approx.planner import QueryPlanner

            self._planner = QueryPlanner()
        return self._planner.plan(
            self.X.shape[0], self.X.shape[1], k, recall_target,
            workload="query", m_queries=rows,
        )

    def _admit(
        self,
        *,
        q_idx: np.ndarray | None,
        Q: np.ndarray | None,
        k: int,
        tenant: str,
        deadline: Deadline | float | None,
        recall_target: float | None = None,
    ) -> ServeHandle:
        from concurrent.futures import Future

        registry = _get_registry()
        dl = Deadline.coerce(deadline)
        if dl is None and self.config.slo_seconds is not None:
            dl = Deadline(self.config.slo_seconds)
        if recall_target is None:
            recall_target = self.config.default_recall_target
        elif not 0.0 < recall_target <= 1.0:
            raise ValidationError(
                f"recall_target must be in (0, 1], got {recall_target}"
            )
        ctx = RequestContext.new(tenant=tenant, deadline=dl)
        rows = Q.shape[0] if Q is not None else q_idx.size
        decision = self._plan_request(k, int(rows), recall_target)
        req = PendingRequest(
            ctx=ctx, k=k, future=Future(), q_idx=q_idx, Q=Q,
            recall_target=recall_target, decision=decision,
        )
        with self._cond:
            if not self._running or self._stopping:
                raise OverloadError(
                    "service is not accepting requests (not started or "
                    "stopping)",
                    tenant=tenant,
                )
            depth = len(self._queue)
            if depth >= self.config.max_queue_depth and self._holds_share(
                tenant
            ):
                self._shed += 1
                retry_after = self._estimate_drain_seconds(depth)
                if registry.enabled:
                    registry.inc("serve.shed", labels={"tenant": tenant})
                raise OverloadError(
                    f"admission queue full ({depth} queued, bound "
                    f"{self.config.max_queue_depth}); retry after "
                    f"{retry_after if retry_after is not None else '?'}s",
                    retry_after=retry_after,
                    queue_depth=depth,
                    tenant=tenant,
                )
            depth = self._queue.push(req)
            self._policy.note_request(req.rows)
            self._cond.notify()
        if registry.enabled:
            registry.inc("serve.requests", labels={"tenant": tenant})
            if req.is_approx:
                registry.inc(
                    "serve.approx_requests", labels={"tenant": tenant}
                )
            registry.gauge("serve.queue_depth").set(depth)
        return ServeHandle(
            request_id=ctx.request_id, tenant=tenant, future=req.future
        )

    def _holds_share(self, tenant: str) -> bool:
        """Does ``tenant`` already hold its weighted share of the queue
        bound, among the tenants with queued requests (and itself)?

        Shedding at the bound only such tenants keeps a tenant whose
        burst arrives while others hold the queue from starving; the
        queue then overshoots its bound by at most the sum of those
        shares. Called under ``self._cond``.
        """
        held = self._queue.depths_by_tenant()
        weights = {t: self.config.weight_of(t) for t in {*held, tenant}}
        share = (
            self.config.max_queue_depth
            * weights[tenant]
            / sum(weights.values())
        )
        return held.get(tenant, 0) >= share

    def _estimate_drain_seconds(self, depth: int) -> float | None:
        """Expected seconds to drain ``depth`` queued requests, from the
        measured service rate; ``None`` before the first window."""
        if self._windows == 0 or self._batch_seconds_ewma <= 0:
            return None
        per_request = self._batch_seconds_ewma / max(self._occupancy_ewma, 1.0)
        return round(max(depth * per_request, 1e-3), 4)

    # -- dispatcher -------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while len(self._queue) == 0 and not self._stopping:
                    self._cond.wait(0.05)
            if len(self._queue) == 0:
                if self._stopping:
                    return
                continue
            if self._stopping and not self.config.drain_on_stop:
                for req in self._queue.drain_all():
                    req.future.set_exception(
                        OverloadError(
                            "service stopped before this request was served",
                            tenant=req.tenant,
                        )
                    )
                return
            batch = self._collect_window()
            if batch:
                self._execute_window(batch)

    def _collect_window(self) -> list[PendingRequest]:
        """Hold the window open per policy, then take one WRR batch."""
        cfg = self.config
        close_at = time.perf_counter() + cfg.max_wait_seconds
        while not self._stopping:
            depth = len(self._queue)
            if depth >= cfg.max_batch:
                break
            now = time.perf_counter()
            if now >= close_at:
                break
            if not self._policy.should_wait(max(depth, 1)):
                break
            with self._cond:
                if len(self._queue) == depth:
                    self._cond.wait(min(close_at - now, 5e-4))
        if self._stopping and not cfg.drain_on_stop:
            # leave everything queued: the dispatch loop fails the
            # stragglers explicitly instead of racing stop() into one
            # last solve
            return []
        return self._queue.take(cfg.max_batch, cfg.max_batch_rows)

    def _execute_window(self, batch: list[PendingRequest]) -> None:
        registry = _get_registry()
        t0 = time.perf_counter()
        self._window_seq += 1
        live: list[PendingRequest] = []
        for req in batch:
            if self._expire_queued(req, registry):
                continue
            if registry.enabled:
                registry.observe(
                    "serve.queue_wait_seconds", req.queue_wait(),
                    **_LATENCY_BUCKETS,
                )
            live.append(req)
        if not live:
            self._finish_window(registry, t0, live, 0)
            return

        solve_calls = 0
        with request_scope(RequestContext.new(tenant="serve.batch")):
            for groups, solve in self._window_work(live):
                solve_calls += len(groups)
                try:
                    results = run_ladder(
                        {self._window_seq: solve},
                        [self._window_rung],
                        retry=self._window_retry,
                    )[self._window_seq]
                except Exception as exc:
                    self._fail_members(
                        [r for members in groups for r in members],
                        exc,
                        registry,
                    )
                else:
                    for members, result in zip(groups, results):
                        self._demux(members, result, registry)
        self._finish_window(registry, t0, live, solve_calls)

    def _window_work(self, live: list[PendingRequest]) -> list[tuple]:
        """The window's solves as ``(groups, solve)`` work items:
        ``solve()`` returns one result per member group.

        Unsharded exact index requests fuse into one
        :func:`~repro.core.batch.gsknn_batch` call with one problem per
        distinct ``k``; every other group — sharded index requests and
        row requests per ``k``, approximate requests per beam shape
        ``(k, ef, expand, max_hops)`` — is a solve of its own.
        """
        idx_groups: dict[int, list[PendingRequest]] = {}
        row_groups: dict[int, list[PendingRequest]] = {}
        approx_groups: dict[tuple, list[PendingRequest]] = {}
        for req in live:
            if req.is_approx:
                p = req.decision.params
                mh = p.get("max_hops")
                key = (
                    req.k,
                    max(int(p.get("ef", self.config.approx_ef)), req.k),
                    int(p.get("expand", self.config.approx_expand)),
                    -1 if mh is None else int(mh),
                )
                approx_groups.setdefault(key, []).append(req)
                continue
            target = row_groups if req.is_rows else idx_groups
            target.setdefault(req.k, []).append(req)

        idx = [idx_groups[k] for k in sorted(idx_groups)]
        if self._sharded is None and idx:
            work = [(idx, partial(self._solve_idx, idx))]
        else:
            work = [([m], partial(self._solve_idx, [m])) for m in idx]
        work += [
            ([m], partial(self._solve_rows, m))
            for _, m in sorted(row_groups.items())
        ]
        work += [
            ([m], partial(self._solve_approx, m, key))
            for key, m in sorted(approx_groups.items())
        ]
        return work

    def _solve_idx(self, groups: list[list[PendingRequest]]) -> list:
        queries = [
            (np.concatenate([r.q_idx for r in members]), members[0].k)
            for members in groups
        ]
        if self._sharded is not None:
            return [self._sharded.solve(q_idx, k) for q_idx, k in queries]
        return gsknn_batch(
            self._table,
            [KnnProblem(q_idx, ALL_ROWS, k) for q_idx, k in queries],
            p=self.config.p,
            norm=self._norm,
            variant=self._variant,
            backend=self.config.backend,
            plan_cache=self._plans,
            memory_budget=self._budget,
        )

    def _solve_rows(self, members: list[PendingRequest]) -> list:
        k = members[0].k
        Q_cat = (
            members[0].Q
            if len(members) == 1
            else np.vstack([r.Q for r in members])
        )
        if self._sharded is not None:
            return [self._sharded.solve_rows(Q_cat, k)]
        plan = self._plans.get(
            self._table, ALL_ROWS, norm=self._norm,
            variant=self._variant, memory_budget=self._budget,
        )
        return [plan.execute_rows(Q_cat, k, validate=False)]

    def _solve_approx(self, members: list[PendingRequest], key: tuple) -> list:
        from ..approx.search import beam_search

        k, ef, expand, mh = key
        Q_cat = np.vstack(
            [(r.Q if r.is_rows else self.X[r.q_idx]) for r in members]
        )
        result = beam_search(
            self._graph, Q_cat, k,
            ef=ef, expand=expand,
            max_hops=None if mh < 0 else mh,
            validate=False,
        )
        self._maybe_sample_recall(Q_cat, k, result, _get_registry())
        return [result]

    def _maybe_sample_recall(
        self, Q_cat: np.ndarray, k: int, approx: KnnResult, registry
    ) -> None:
        """Every Nth approximate window, re-solve a few of its rows
        exactly and publish the measured recall — a production
        spot-check that the calibrated operating point still holds."""
        every = self.config.recall_sample_every
        seq = self._approx_windows
        self._approx_windows += 1
        if every == 0 or seq % every != 0 or not registry.enabled:
            return
        rows = min(8, Q_cat.shape[0])
        Qs = np.ascontiguousarray(Q_cat[:rows])
        plan = self._plans.get(
            self._table, ALL_ROWS, norm=self._norm,
            variant=self._variant, memory_budget=self._budget,
        )
        exact = plan.execute_rows(Qs, k, validate=False)
        from ..core.neighbors import recall as _recall

        achieved = _recall(
            KnnResult(approx.distances[:rows], approx.indices[:rows]), exact
        )
        registry.gauge("approx.achieved_recall").set(round(achieved, 4))
        registry.inc("approx.recall_samples")

    def _expire_queued(self, req: PendingRequest, registry) -> bool:
        """Fail-fast a request whose deadline died in the queue."""
        dl = req.ctx.deadline
        if dl is None or not dl.expired():
            return False
        with request_scope(req.ctx):
            try:
                dl.raise_expired(
                    "serve.queue", queue_wait=round(req.queue_wait(), 6)
                )
            except KernelTimeoutError as exc:
                req.future.set_exception(exc)
        if registry.enabled:
            labels = {"tenant": req.tenant}
            registry.inc("serve.expired_in_queue", labels=labels)
            registry.inc("serve.slo_misses", labels=labels)
        return True

    def _fail_members(
        self, members: list[PendingRequest], exc: Exception, registry
    ) -> None:
        for req in members:
            req.future.set_exception(exc)
        if registry.enabled:
            registry.inc("serve.batch_failures")
            for req in members:
                registry.inc("serve.failed", labels={"tenant": req.tenant})

    def _demux(
        self, members: list[PendingRequest], result: KnnResult, registry
    ) -> None:
        """Slice the fused result back into per-request results."""
        offset = 0
        for req in members:
            rows = req.rows
            piece = KnnResult(
                result.distances[offset : offset + rows],
                result.indices[offset : offset + rows],
            )
            offset += rows
            latency = time.perf_counter() - req.enqueued_at
            req.future.set_result(piece)
            self._completed += 1
            if registry.enabled:
                labels = {"tenant": req.tenant}
                registry.inc("serve.completed", labels=labels)
                registry.observe(
                    "serve.latency_seconds", latency, **_LATENCY_BUCKETS
                )
                dl = req.ctx.deadline
                if dl is not None and dl.expired():
                    # Result still delivered — the budget died during
                    # the solve, not the queue — but the SLO was missed.
                    registry.inc("serve.slo_misses", labels=labels)

    def _finish_window(
        self, registry, t0: float, live: list[PendingRequest], solve_calls: int
    ) -> None:
        service_seconds = time.perf_counter() - t0
        self._windows += 1
        self._solve_calls += solve_calls
        if live:
            if self._batch_seconds_ewma == 0.0:
                self._batch_seconds_ewma = service_seconds
            else:
                self._batch_seconds_ewma += 0.2 * (
                    service_seconds - self._batch_seconds_ewma
                )
            self._occupancy_ewma += 0.2 * (len(live) - self._occupancy_ewma)
        if not registry.enabled:
            return
        registry.inc("serve.windows")
        if solve_calls:
            registry.inc("serve.solves", solve_calls)
        if live:
            registry.observe("serve.batch_occupancy", len(live))
            registry.observe(
                "serve.batch_rows", sum(r.rows for r in live)
            )
            registry.observe(
                "serve.batch_service_seconds", service_seconds,
                **_LATENCY_BUCKETS,
            )
        registry.gauge("serve.queue_depth").set(len(self._queue))
        if self._solve_calls:
            registry.gauge("serve.coalescing_ratio").set(
                round(self._completed / self._solve_calls, 4)
            )
        hist = registry.histogram("serve.latency_seconds", **_LATENCY_BUCKETS)
        if hist.count:
            for q, name in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
                registry.gauge(f"serve.latency_{name}").set(hist.quantile(q))

    # -- introspection ----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Registry-independent snapshot of service accounting."""
        with self._cond:
            return {
                "queue_depth": len(self._queue),
                "windows": self._windows,
                "solve_calls": self._solve_calls,
                "completed": self._completed,
                "shed": self._shed,
                "coalescing_ratio": (
                    self._completed / self._solve_calls
                    if self._solve_calls
                    else 0.0
                ),
                "batch_seconds_ewma": self._batch_seconds_ewma,
                "occupancy_ewma": self._occupancy_ewma,
                "shards": (
                    self._sharded.stats() if self._sharded is not None else None
                ),
            }
