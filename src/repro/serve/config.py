"""Serving-layer configuration: one validated knob surface.

Every policy the front-end applies — how long a coalescing window may
stay open, how many requests fuse into one solve, when admission starts
shedding, what the default per-request SLO is, how tenants are weighted
against each other — lives here, so a deployment is one dataclass
instead of a constellation of keyword arguments. Validation happens at
construction: a service never starts with an incoherent config.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ValidationError

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of a :class:`~repro.serve.service.KnnQueryService`.

    Attributes
    ----------
    max_batch:
        Most requests one fused solve may serve. The coalescing window
        closes as soon as this many are in hand.
    max_batch_rows:
        Cap on total query *rows* per fused solve (requests carry
        multi-row ``q_idx``); protects the kernel from a pathological
        window where a few huge requests build an enormous fused panel.
    max_wait_ms:
        Hard upper bound on how long the first request of a window may
        wait for company before the batch is dispatched. The
        model-informed policy may close the window earlier; it can
        never hold it open longer.
    max_queue_depth:
        Admission bound: total requests queued (not yet dispatched)
        across all tenants. At the bound, :meth:`submit` sheds with
        :class:`~repro.errors.OverloadError` instead of queueing into
        collapse — a submit whose tenant already holds its weighted
        share of the bound (by :attr:`tenant_weights`, among the tenants
        with queued requests). A tenant below its share is still
        admitted, so the queue can overshoot the bound by at most the
        sum of those shares.
    slo_ms:
        Default per-request deadline in milliseconds, applied when the
        caller does not pass one. ``None`` means no default (requests
        without an explicit deadline are unbounded).
    tenant_weights:
        Weighted-round-robin dequeue weights; a tenant absent from the
        map gets :attr:`default_weight`. Weights are relative shares of
        each coalescing window, not hard quotas — an idle tenant's
        share flows to the busy ones.
    default_weight:
        Weight for tenants not named in :attr:`tenant_weights`.
    p, backend:
        Worker count and execution backend for the fused
        :func:`~repro.core.batch.gsknn_batch` solve (``"threads"`` or
        ``"serial"``). One core serves well with the defaults; the
        threads backend overlaps distinct-``k`` groups on bigger hosts.
    plan_cache_size:
        Entries in the service-owned :class:`~repro.core.plan.PlanCache`
        (distinct reference sets the server keeps warm).
    policy:
        ``"model"`` grows the coalescing window only while the
        :class:`~repro.model.PerformanceModel` predicts batching still
        pays (see :mod:`repro.serve.policy`); ``"fixed"`` always waits
        the full ``max_wait_ms`` unless ``max_batch`` fills first.
    drain_on_stop:
        Whether :meth:`~repro.serve.service.KnnQueryService.stop`
        finishes queued requests (default) or fails them.
    default_recall_target:
        Recall target applied to requests that do not pass one.
        ``None`` (the default) means requests without an explicit
        target are always solved exactly — approximate serving is
        strictly opt-in.
    approx_ef, approx_expand:
        Beam-search pool width and per-hop expansion used for
        approximate windows when the planner's calibrated operating
        point does not dictate its own (e.g. an injected planner with
        bare decisions).
    recall_sample_every:
        Every Nth approximate window, a few of its rows are re-solved
        exactly and the measured recall published on the
        ``approx.achieved_recall`` gauge — a running spot-check that
        the calibrated recall still holds in production. ``0``
        disables sampling.
    shards:
        ``0`` (default) keeps the single-process fused solve. ``>= 1``
        puts the reference table behind a
        :class:`~repro.shard.router.ShardedAllKnn` with that many
        shards: every coalesced exact window (index and row requests
        alike) is scatter/gathered across the shard workers,
        bit-identical to the unsharded solve. Approximate windows stay
        on the in-process graph index.
    shard_transport:
        ``"process"`` (long-lived worker processes over shared memory)
        or ``"local"`` (in-process shards; deterministic tests).
    memory_budget:
        Optional cap on fused-solve workspace — a byte count or a spec
        like ``"64MiB"`` (see :class:`~repro.MemoryBudget`). The
        service coerces it once and shares the budget object across
        every window, so the cap bounds the server's steady-state
        kernel workspace, not each window in isolation. Budgeted plans
        stream their reference panels, which is what lets a service
        mount a memmapped table larger than RAM (docs/MEMORY.md).
    """

    max_batch: int = 64
    max_batch_rows: int = 8192
    max_wait_ms: float = 2.0
    max_queue_depth: int = 256
    slo_ms: float | None = None
    tenant_weights: dict[str, int] = field(default_factory=dict)
    default_weight: int = 1
    p: int = 1
    backend: str = "serial"
    plan_cache_size: int = 8
    policy: str = "model"
    drain_on_stop: bool = True
    default_recall_target: float | None = None
    approx_ef: int = 32
    approx_expand: int = 4
    recall_sample_every: int = 32
    shards: int = 0
    shard_transport: str = "process"
    memory_budget: int | str | None = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValidationError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.max_batch_rows < 1:
            raise ValidationError(
                f"max_batch_rows must be >= 1, got {self.max_batch_rows}"
            )
        if self.max_wait_ms < 0:
            raise ValidationError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}"
            )
        if self.max_queue_depth < 1:
            raise ValidationError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.slo_ms is not None and not self.slo_ms > 0:
            raise ValidationError(
                f"slo_ms must be > 0 (or None), got {self.slo_ms}"
            )
        if self.default_weight < 1:
            raise ValidationError(
                f"default_weight must be >= 1, got {self.default_weight}"
            )
        for tenant, weight in self.tenant_weights.items():
            if int(weight) < 1:
                raise ValidationError(
                    f"tenant {tenant!r}: weight must be >= 1, got {weight}"
                )
        if self.backend not in ("threads", "serial"):
            raise ValidationError(
                f"backend must be 'threads' or 'serial', got {self.backend!r}"
            )
        if self.p < 1:
            raise ValidationError(f"p must be >= 1, got {self.p}")
        if self.plan_cache_size < 1:
            raise ValidationError(
                f"plan_cache_size must be >= 1, got {self.plan_cache_size}"
            )
        if self.policy not in ("model", "fixed"):
            raise ValidationError(
                f"policy must be 'model' or 'fixed', got {self.policy!r}"
            )
        if self.default_recall_target is not None and not (
            0.0 < self.default_recall_target <= 1.0
        ):
            raise ValidationError(
                "default_recall_target must be in (0, 1] or None, got "
                f"{self.default_recall_target}"
            )
        if self.approx_ef < 1:
            raise ValidationError(
                f"approx_ef must be >= 1, got {self.approx_ef}"
            )
        if self.approx_expand < 1:
            raise ValidationError(
                f"approx_expand must be >= 1, got {self.approx_expand}"
            )
        if self.recall_sample_every < 0:
            raise ValidationError(
                "recall_sample_every must be >= 0 (0 disables), got "
                f"{self.recall_sample_every}"
            )
        if self.shards < 0:
            raise ValidationError(
                f"shards must be >= 0 (0 = unsharded), got {self.shards}"
            )
        if self.shard_transport not in ("process", "local"):
            raise ValidationError(
                "shard_transport must be 'process' or 'local', got "
                f"{self.shard_transport!r}"
            )
        if self.memory_budget is not None:
            from ..core.membudget import parse_bytes

            parse_bytes(self.memory_budget)  # fail at construction, not dispatch

    def weight_of(self, tenant: str) -> int:
        return int(self.tenant_weights.get(tenant, self.default_weight))

    @property
    def max_wait_seconds(self) -> float:
        return self.max_wait_ms / 1e3

    @property
    def slo_seconds(self) -> float | None:
        return None if self.slo_ms is None else self.slo_ms / 1e3
