"""Scatter/gather top-k routing over real shard processes.

:class:`ShardedAllKnn` is the multi-process counterpart of one fused
:func:`repro.core.gsknn` call: scatter a query batch to every shard that
owns part of the reference table, run the fused kernel locally per
shard (each shard keeps its panels packed in a warm plan), gather the
partial top-k lists, and merge them with
:func:`repro.select.mergeselect.merge_partial_topk`.

Because the shard map never splits a GEMM tile
(:mod:`repro.shard.map`) and every shard pins the same ``norm`` /
``block_m`` / ``block_n`` / resolved variant as the single-process
solve, the merged result is **bit-identical** — indices and distances —
to ``gsknn(X, q_idx, alive_ids, k, block_n=panel_width, ...)`` on the
same membership, which :meth:`ShardedAllKnn.solve_reference` exposes
for exactly that assertion (tests and the CI ``shard-smoke`` job run
it).

Failure semantics: a batch's shard partitions run on the resilience
layer's one retry/fallback loop (:func:`repro.resilience.executor.run_ladder`),
the same loop the schedule tasks run on. The ladder is the
shards' own workers (a dead one is restarted and its partition
resubmitted, up to ``retry.max_attempts`` rounds), then an in-parent
thread pool (faults still injected, so drills exercise it), then an
inline fault-free serial solve — recovery is guaranteed and still
bit-identical, because both parent-side rungs solve on one lazily
started :class:`~repro.shard.transport.LocalTransport` twin pinned to
the same partitions and kernel config. Healthy shards are never
re-solved, and one :class:`~repro.resilience.Deadline` covers every
rung.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..config import DEFAULT_BLOCK_M, DEFAULT_BLOCK_N
from ..core.neighbors import KnnResult
from ..core.norms import resolve_norm
from ..core.table import TableHandle
from ..errors import BackendError, ValidationError
from ..obs.metrics import get_registry as _get_registry
from ..obs.trace import get_tracer as _get_tracer
from ..resilience.deadline import Deadline
from ..resilience.executor import InlineRung, Rung, ThreadRung, run_ladder
from ..resilience.faults import FaultPlan
from ..resilience.retry import RetryPolicy
from ..select.mergeselect import merge_partial_topk
from ..tune.decision import decide_variant
from ..validation import as_index_array
from .map import ShardMap
from .transport import (
    LocalTransport,
    ShardWorld,
    _TransportRung,
    resolve_transport,
)

__all__ = ["ShardedAllKnn"]


class ShardedAllKnn:
    """A reference table partitioned across shards, solved scatter/gather.

    Parameters
    ----------
    X:
        ``(n, d)`` reference table, or a
        :class:`~repro.core.table.TableHandle` over it. An array is
        validated once (non-finite coordinates raise here, before any
        worker starts) and frozen. The process transport copies it into
        shared segments, where :meth:`insert` appends (doubling the
        segments when they are full), so the caller's array is never
        written.
    n_shards:
        Number of shards (>= 1). With the process transport this is the
        number of long-lived worker processes.
    transport:
        ``"process"`` (real worker processes over shared memory),
        ``"local"`` (in-process twin), or a ready
        :class:`~repro.shard.transport.ShardTransport`.
    norm, variant, block_m, block_n:
        Kernel configuration, pinned across shards; ``block_n`` doubles
        as the shard map's panel width so shard boundaries coincide
        with the kernel's reference-block grid (the bit-identicality
        invariant — see :mod:`repro.shard.map`).
    retry:
        :class:`RetryPolicy`: rounds per rung of the shard ladder.
    deadline:
        Default :class:`Deadline` budget (seconds or instance) applied
        to every solve that does not pass its own.
    fault_plan:
        Spec string or :class:`FaultPlan`; shipped to shard workers
        (scope ``"shard"``) and applied on the parent-side threads rung.
        The in-process ``"local"`` transport does not inject faults.
    """

    def __init__(
        self,
        X: np.ndarray,
        n_shards: int,
        *,
        transport: str | Any = "process",
        norm: str | float = "l2",
        variant: int | str = "auto",
        block_m: int = DEFAULT_BLOCK_M,
        block_n: int = DEFAULT_BLOCK_N,
        retry: RetryPolicy | None = None,
        deadline: Deadline | float | None = None,
        fault_plan: FaultPlan | str | None = None,
        mp_context: str | None = None,
    ) -> None:
        if block_m < 1 or block_n < 1:
            raise ValidationError("block_m and block_n must be >= 1")
        table = X if isinstance(X, TableHandle) else TableHandle(X)
        self._norm = resolve_norm(norm)
        self._variant_spec = variant
        self._block_m = int(block_m)
        self._block_n = int(block_n)
        self.map = ShardMap(table.n, n_shards, panel_width=self._block_n)
        self.retry = retry if retry is not None else RetryPolicy()
        self._default_deadline = deadline
        self._fault_plan = FaultPlan.coerce(fault_plan)
        if self._fault_plan is None:
            self._fault_plan = FaultPlan.from_env()
        if mp_context is not None and transport == "process":
            from .transport import ProcessTransport

            transport = ProcessTransport(mp_context)
        self.transport = resolve_transport(transport)
        # the table in the transport's storage: with process shards the
        # parent's rows are the shared segments the workers read
        self._table = self.transport.share(table)
        # the parent-side twin of the threads and serial rungs: started
        # on the first fallback, refreshed on a fallback in a new epoch
        self._twin: LocalTransport | None = None
        self._twin_epoch = -1
        self._closed = False
        self.transport.start(self._world())

    # -- lifecycle -----------------------------------------------------------

    def _world(self, change: tuple | None = None) -> ShardWorld:
        return ShardWorld(
            table=self._table,
            local_ids=[
                self.map.local_ids(s) for s in range(self.map.n_shards)
            ],
            epoch=self.map.epoch,
            kernel_kwargs={
                "norm": self._norm,
                "block_m": self._block_m,
                "block_n": self._block_n,
            },
            fault_spec=(
                self._fault_plan.spec()
                if self._fault_plan is not None and self._fault_plan.active
                else None
            ),
            membership=(self.map.spec(), self.map.alive_mask),
            change=change,
        )

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.transport.close()
            if self._twin is not None:
                self._twin.close()

    def __enter__(self) -> "ShardedAllKnn":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @property
    def n_refs(self) -> int:
        """Alive reference count (tombstones excluded)."""
        return self.map.n_alive

    @property
    def dim(self) -> int:
        return self._table.d

    @property
    def table(self) -> np.ndarray:
        """The full (frozen) table, including tombstoned rows."""
        return self._table.X

    @property
    def handle(self) -> TableHandle:
        """The table's current handle (over the shared segments, for
        process shards); a caller that appends through :meth:`insert`
        can hold it instead of a table of its own."""
        return self._table

    # -- streaming membership ------------------------------------------------

    def insert(self, rows: np.ndarray) -> np.ndarray:
        """Append new reference rows; returns their global ids.

        The rows are validated before anything changes (a rejected
        insert leaves the table, the map and the workers as they were).
        They are written once, after the table's frozen prefix in its
        shared storage; each shard worker then extends its table over
        them, re-derives its partition from the count, and drops its
        packed plan (per-shard plan invalidation). Only an insert that
        outgrows the storage moves the table to new segments, twice the
        rows, which every worker re-attaches.
        """
        rows = np.asarray(rows)
        if rows.ndim == 1:
            rows = rows[None, :]
        self._table = self._table.append(rows)
        ids = self.map.append(rows.shape[0])
        self._refresh(("insert", rows.shape[0]), rows=rows.shape[0])
        return ids

    def delete(self, ids) -> None:
        """Tombstone reference ids: they leave their owning shards'
        partitions at the new epoch and can never be returned again.
        The workers get the ids and re-derive their partitions."""
        ids = np.array(ids, dtype=np.intp).ravel()
        epoch = self.map.epoch
        self.map.tombstone(ids)
        if self.map.epoch != epoch:
            self._refresh(("delete", ids), ids=ids.size)

    def _refresh(self, change: tuple, **meta) -> None:
        op = change[0]
        with _get_tracer().span("shard.refresh", op=op, **meta):
            self.transport.refresh(self._world(change))
        registry = _get_registry()
        if registry.enabled:
            registry.inc("shard.refreshes", labels={"op": op})
            registry.gauge("shard.epoch").set(self.map.epoch)

    # -- solves --------------------------------------------------------------

    def _variant(self, m: int, k: int) -> int:
        """The variant this router's spec picks for ``m`` queries."""
        spec = self._variant_spec
        return int(decide_variant(spec, m, self.n_refs, self.dim, k)[0])

    def solve(
        self,
        q_idx,
        k: int,
        *,
        deadline: Deadline | float | None = None,
    ) -> KnnResult:
        """Exact top-k of table-row queries against every alive reference.

        Bit-identical to :meth:`solve_reference` on the same membership.
        """
        q_idx = as_index_array(q_idx, self._table.n, name="q_idx")
        k = self._check_k(k)
        var = self._variant(q_idx.size, k)
        return self._scatter_gather(
            ("idx", q_idx, k, var), q_idx.size, k, deadline
        )

    def solve_rows(
        self,
        Q: np.ndarray,
        k: int,
        *,
        deadline: Deadline | float | None = None,
    ) -> KnnResult:
        """Exact top-k for literal query rows (the serving shape)."""
        Q = np.ascontiguousarray(Q, dtype=np.float64)
        if Q.ndim == 1:
            Q = Q[None, :]
        if Q.ndim != 2 or Q.shape[1] != self.dim:
            raise ValidationError(
                f"Q must be (m, {self.dim}), got shape {Q.shape}"
            )
        k = self._check_k(k)
        var = self._variant(Q.shape[0], k)
        return self._scatter_gather(
            ("rows", Q, k, var), Q.shape[0], k, deadline
        )

    def solve_reference(self, q_idx, k: int) -> KnnResult:
        """The single-process fused twin of :meth:`solve` — one plain
        ``gsknn`` call over the same membership and kernel config. The
        bit-identicality oracle tests and CI assert against."""
        from ..core.gsknn import gsknn

        return gsknn(
            self._table,
            as_index_array(q_idx, self._table.n, name="q_idx"),
            self.map.alive_ids(),
            self._check_k(k),
            norm=self._norm,
            variant=self._variant_spec,
            block_m=self._block_m,
            block_n=self._block_n,
        )

    def _check_k(self, k: int) -> int:
        k = int(k)
        if k < 1 or k > self.n_refs:
            raise ValidationError(
                f"k must be in [1, {self.n_refs}], got {k}"
            )
        return k

    # -- scatter/gather core -------------------------------------------------

    def _scatter_gather(
        self,
        task: tuple,
        m: int,
        k: int,
        deadline: Deadline | float | None,
    ) -> KnnResult:
        if self._closed:
            raise BackendError("ShardedAllKnn is closed")
        deadline = Deadline.coerce(
            deadline if deadline is not None else self._default_deadline
        )
        tracer = _get_tracer()
        registry = _get_registry()
        with tracer.span(
            "shard.solve_batch",
            shards=self.map.n_shards,
            m=m,
            k=k,
            epoch=self.map.epoch,
        ):
            owners = [
                s
                for s in range(self.map.n_shards)
                if self.map.local_ids(s).size
            ]
            partials = run_ladder(
                {s: self._shard_task(task, s) for s in owners},
                self._ladder(),
                retry=self.retry,
                deadline=deadline,
            )
            if deadline is not None:
                deadline.check("shard.gather")
            with tracer.span("shard.gather", shards=len(owners)):
                dist, idx = self._merge(partials, owners, m, k)
            if registry.enabled:
                registry.inc("shard.batches")
                registry.observe("shard.batch_rows", float(m))
            return KnnResult(distances=dist, indices=idx)

    def _shard_task(self, task: tuple, shard: int) -> tuple:
        """Clamp k to the shard's partition size (small shards return
        everything they own; the merge pads the difference)."""
        k_local = min(task[2], self.map.local_ids(shard).size)
        return (task[0], task[1], k_local, *task[3:])

    def _ladder(self) -> tuple[Rung, ...]:
        """The shards' workers, then parent-side threads, then serial."""
        fault = None
        if self._fault_plan is not None:
            epoch, plan = self.map.epoch, self._fault_plan

            def fault(shard: int, attempt: int) -> None:
                plan.apply("shard", f"{epoch}:{shard}", attempt)

        return (
            _TransportRung(self.transport),
            ThreadRung(self._open_twin, self.map.n_shards, fault=fault),
            InlineRung(self._open_twin),
        )

    def _open_twin(self):
        """The parent-side rungs' solver: one shard's partition on the
        twin, started lazily and brought to the current epoch."""
        if self._twin is None:
            self._twin = LocalTransport()
            self._twin.start(self._world())
        elif self._twin_epoch != self.map.epoch:
            self._twin.refresh(self._world())
        self._twin_epoch = self.map.epoch
        twin = self._twin
        tracer = _get_tracer()
        parent_id = tracer.current_span_id()

        def solve(shard: int, shard_task: tuple):
            # pool threads start with an empty span stack
            with tracer.span_under(parent_id, "shard.fallback", shard=shard):
                out, _ = twin.submit(shard, shard_task).result()
            return out

        return solve

    def _merge(
        self,
        partials: dict[int, tuple[np.ndarray, np.ndarray]],
        owners: list[int],
        m: int,
        k: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pad ragged partials to a common width and merge via
        :func:`merge_partial_topk` (ascending distance, ties by id)."""
        width = max(p[0].shape[1] for p in partials.values())
        dist_cat = np.full((m, width * len(owners)), np.inf)
        idx_cat = np.full((m, width * len(owners)), -1, dtype=np.intp)
        for col, s in enumerate(owners):
            dist, idx = partials[s]
            lo = col * width
            dist_cat[:, lo : lo + dist.shape[1]] = dist
            idx_cat[:, lo : lo + idx.shape[1]] = idx
        return merge_partial_topk(dist_cat, idx_cat, k)

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "n_shards": self.map.n_shards,
            "transport": self.transport.name,
            "epoch": self.map.epoch,
            "n_alive": self.map.n_alive,
            "n_total": self.map.n_total,
            "panel_width": self.map.panel_width,
            "shard_sizes": [
                int(self.map.local_ids(s).size)
                for s in range(self.map.n_shards)
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"ShardedAllKnn(n_shards={self.map.n_shards}, "
            f"transport={self.transport.name!r}, alive={self.map.n_alive}, "
            f"epoch={self.map.epoch})"
        )

