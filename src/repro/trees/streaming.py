"""Incremental all-NN maintenance over a growing point set.

The paper's introduction motivates GSKNN with "streaming datasets
[where] there are frequent updates of X and computing all
nearest-neighbors fast efficiently is time-critical". This module is
that consumer: a :class:`StreamingAllKnn` structure that absorbs
batches of new points and keeps every point's k-nearest list
approximately current by re-solving only LSH-bucket-local exact kNN
kernels — never the O(N^2) global problem.

Maintenance per ingested batch:

1. new points get empty neighbor rows;
2. a few fresh LSH tables are hashed over the *current* table;
3. each bucket runs one exact GSKNN kernel (queries = references =
   bucket) and the results are dedup-merged into the global lists.

Old points' lists improve over time (each batch's fresh tables regroup
them too), so recall recovers after insertions instead of decaying —
the property the tests pin down.
"""

from __future__ import annotations

import numpy as np

from ..core.neighbors import KnnResult, merge_neighbor_lists_fast
from ..core.table import TableHandle
from ..errors import ValidationError
from ..obs import trace as _trace
from ..obs.context import coerce_request, current_request, request_scope
from ..validation import as_coordinate_table, check_finite
from .lsh import LSHSolver

__all__ = ["StreamingAllKnn"]


class StreamingAllKnn:
    """Maintains approximate k-nearest lists under point insertions.

    Parameters
    ----------
    dim:
        Coordinate dimension of the stream.
    k:
        Neighbors maintained per point.
    tables_per_batch:
        Fresh LSH tables hashed per ingested batch (more = higher
        recall per batch, more kernel work).
    max_bucket:
        Bucket-size cap — the ``m`` of the exact kernels.
    memory_budget:
        Optional cap (a :class:`~repro.MemoryBudget`, byte count, or
        spec like ``"64MiB"``) on bucket/exact kernel workspace —
        budgeted bucket plans stream their panels and charge buffers
        against the budget (docs/MEMORY.md).
    shards:
        ``0`` (default) keeps everything in-process. ``>= 1`` mirrors
        the stream's membership into a
        :class:`~repro.shard.router.ShardedAllKnn` with that many
        shards: the stream and the mirror hold one table, inserts
        append to it in place for the shard workers to read, and
        deletes tombstone the rows out of their shards' partitions
        (both invalidate the affected shards' packed plans), so
        :meth:`exact_solve` scatter/gathers across real processes —
        bit-identical to a single-process solve on the same membership,
        including after arbitrary insert/delete churn.
    shard_transport:
        ``"process"`` or ``"local"`` (see :mod:`repro.shard`).
    """

    def __init__(
        self,
        dim: int,
        k: int,
        *,
        tables_per_batch: int = 3,
        max_bucket: int = 1024,
        seed: int | None = 0,
        shards: int = 0,
        shard_transport: str = "process",
        memory_budget=None,
    ) -> None:
        if dim < 1 or k < 1:
            raise ValidationError(f"need dim >= 1 and k >= 1, got {dim}, {k}")
        if tables_per_batch < 1:
            raise ValidationError("tables_per_batch must be >= 1")
        if shards < 0:
            raise ValidationError(f"shards must be >= 0, got {shards}")
        if shard_transport not in ("process", "local"):
            raise ValidationError(
                "shard_transport must be 'process' or 'local', "
                f"got {shard_transport!r}"
            )
        self.dim = int(dim)
        self.k = int(k)
        self.tables_per_batch = int(tables_per_batch)
        self.max_bucket = int(max_bucket)
        self._seed = 0 if seed is None else int(seed)
        from ..core.membudget import MemoryBudget

        self._memory_budget = MemoryBudget.coerce(memory_budget)
        self._batches_ingested = 0
        self._shards = int(shards)
        self._shard_transport = shard_transport
        self._sharded = None
        # Bucket kernels run through cached plans: repeated refresh()
        # rounds between inserts regenerate the same buckets (the LSH
        # seed is a function of the ingest count), so their gathered
        # panels are reused; all buckets share one workspace arena pool.
        from ..core.plan import PlanCache

        self._plans = PlanCache(max_plans=16)
        # one frozen table handle per insert epoch (None until the first)
        self._table: TableHandle | None = None
        self._distances = np.empty((0, k), dtype=np.float64)
        self._indices = np.empty((0, k), dtype=np.intp)
        self._alive = np.empty(0, dtype=bool)

    # -- state accessors -----------------------------------------------------

    @property
    def n_points(self) -> int:
        return self._points.shape[0]

    @property
    def _points(self) -> np.ndarray:
        if self._table is None:
            return np.empty((0, self.dim), dtype=np.float64)
        return self._table.X

    @property
    def points(self) -> np.ndarray:
        """The current coordinate table (read-only)."""
        return self._points

    def neighbors(self) -> KnnResult:
        """Current neighbor lists for all ingested points."""
        return KnnResult(self._distances.copy(), self._indices.copy())

    # -- shard mirror --------------------------------------------------------

    @property
    def sharded(self):
        """The mounted :class:`ShardedAllKnn` mirror, or ``None``."""
        return self._sharded

    def _build_mirror(self):
        """(Re)build the shard router over the current membership."""
        from ..shard import ShardedAllKnn

        router = ShardedAllKnn(
            self._table, self._shards, transport=self._shard_transport
        )
        dead = np.flatnonzero(~self._alive)
        if dead.size:
            router.delete(dead)
        return router

    def close(self) -> None:
        """Release the shard mirror's worker processes (no-op unsharded)."""
        if self._sharded is not None:
            self._sharded.close()
            self._sharded = None

    def __enter__(self) -> "StreamingAllKnn":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def exact_solve(self, q_idx, k: int | None = None) -> KnnResult:
        """Exact top-``k`` of table rows against the alive membership.

        Routed through the shard mirror when one is mounted (each shard
        solves its partition on a warm plan; partials merge via
        :func:`~repro.select.mergeselect.merge_partial_topk`), otherwise
        one in-process fused kernel — the two are bit-identical on the
        same membership, which the shard tests assert after churn.
        """
        k = self.k if k is None else int(k)
        if self._sharded is not None:
            return self._sharded.solve(q_idx, k)
        from ..core.gsknn import gsknn

        return gsknn(
            self._points if self._table is None else self._table,
            np.asarray(q_idx, dtype=np.intp),
            np.flatnonzero(self._alive),
            k,
            memory_budget=self._memory_budget,
        )

    # -- updates ---------------------------------------------------------------

    def insert(self, batch: np.ndarray, *, request=None) -> int:
        """Ingest a batch of new points and refresh affected lists.

        Returns the number of bucket kernels solved. ``request`` (a
        :class:`~repro.obs.context.RequestContext` or bare request-id
        string) tags the spans and metrics of this update, including
        the bucket kernels of the triggered refresh.
        """
        batch = as_coordinate_table(batch, name="batch")
        check_finite(batch, name="batch")
        if batch.shape[1] != self.dim:
            raise ValidationError(
                f"batch dimension {batch.shape[1]} != stream dimension {self.dim}"
            )
        ctx = coerce_request(request) or current_request()
        with request_scope(ctx), _trace.span(
            "stream.insert", batch=int(batch.shape[0])
        ):
            n_new = batch.shape[0]
            # the new epoch's handle: a copy of the first batch (the
            # caller's array stays writeable), then appends that write
            # and norm only the new rows, in place after the old ones;
            # a mounted shard mirror appends to the one table both hold
            if self._sharded is not None:
                self._sharded.insert(batch)
                self._table = self._sharded.handle
            elif self._table is None:
                self._table = TableHandle(batch.copy())
            else:
                self._table = self._table.append(batch)
            # the old table object is gone; drop plans built against it so
            # the cache never pins dead coordinate arrays in memory
            self._plans.clear()
            self._distances = np.vstack(
                [self._distances, np.full((n_new, self.k), np.inf)]
            )
            self._indices = np.vstack(
                [self._indices, np.full((n_new, self.k), -1, dtype=np.intp)]
            )
            self._alive = np.concatenate(
                [self._alive, np.ones(n_new, dtype=bool)]
            )
            self._batches_ingested += 1
            if self._shards and self._sharded is None:
                self._sharded = self._build_mirror()
                self._table = self._sharded.handle
            if self.n_alive < 2:
                return 0
            return self.refresh()

    def delete(self, ids: np.ndarray, *, request=None) -> int:
        """Remove points from the structure.

        Deleted points keep their row slots (ids stay stable — the
        contract solvers and graphs rely on) but are tombstoned: their
        own lists are cleared, every occurrence of them in *other*
        points' lists is purged, and they stop participating in
        refreshes. The holes the purge leaves refill on subsequent
        :meth:`refresh`/:meth:`insert` rounds. Returns the number of
        list slots purged across the table.
        """
        ids = np.asarray(ids, dtype=np.intp).ravel()
        if ids.size == 0:
            return 0
        if ids.min() < 0 or ids.max() >= self.n_points:
            raise ValidationError(
                f"delete ids out of range for {self.n_points} points"
            )
        ctx = coerce_request(request) or current_request()
        with request_scope(ctx), _trace.span("stream.delete", ids=int(ids.size)):
            return self._delete(ids)

    def _delete(self, ids: np.ndarray) -> int:
        if self._sharded is not None:
            live = np.unique(ids[self._alive[ids]])
            if live.size >= self._sharded.map.n_alive:
                # wiping the whole live set: a shard router cannot hold
                # an empty table, so drop it; the next insert rebuilds
                # the mirror from the surviving membership
                self._sharded.close()
                self._sharded = None
            elif live.size:
                self._sharded.delete(live)
        self._alive[ids] = False
        # Cached plans were built before the tombstones: their gathered
        # reference panels and warm-start lists still contain the deleted
        # ids, so a post-delete refresh hitting a stale plan could
        # resurrect them into merged lists. Same invalidation insert()
        # performs, for the same reason: the cache must never outlive a
        # membership change.
        self._plans.clear()
        # clear the deleted rows
        self._distances[ids] = np.inf
        self._indices[ids] = -1
        # purge them from everyone else's lists
        dead = np.isin(self._indices, ids)
        purged = int(dead.sum())
        self._distances[dead] = np.inf
        self._indices[dead] = -1
        # re-sort rows so real entries precede the new holes
        order = np.argsort(self._distances, axis=1, kind="stable")
        rows = np.arange(self.n_points)[:, None]
        self._distances = self._distances[rows, order]
        self._indices = self._indices[rows, order]
        return purged

    @property
    def n_alive(self) -> int:
        return int(self._alive.sum())

    def refresh(self, tables: int | None = None, *, request=None) -> int:
        """Run one maintenance round over the current table.

        Callable independently of insertion (e.g. to trade background
        work for recall). Returns the number of bucket kernels solved.
        """
        if self.n_alive < 2:
            return 0
        tables = self.tables_per_batch if tables is None else int(tables)
        if tables < 1:
            raise ValidationError("tables must be >= 1")
        ctx = coerce_request(request) or current_request()
        with request_scope(ctx), _trace.span("stream.refresh", tables=tables):
            return self._refresh(tables)

    def _refresh(self, tables: int) -> int:
        alive_ids = np.flatnonzero(self._alive)
        if alive_ids.size <= self.max_bucket:
            # The whole live population fits one kernel: solve exactly —
            # hashing only starts paying once buckets are real subsets.
            self._solve_bucket(alive_ids)
            return 1
        solver = LSHSolver(
            n_tables=tables,
            max_bucket=self.max_bucket,
            seed=self._seed + 1009 * self._batches_ingested,
        )
        kernels = 0
        for table in solver.buckets(self._points[alive_ids]):
            for bucket in table:
                self._solve_bucket(alive_ids[bucket])
                kernels += 1
        return kernels

    def _solve_bucket(self, bucket: np.ndarray) -> None:
        k_eff = min(self.k, bucket.size)
        plan = self._plans.get(
            self._table, bucket, memory_budget=self._memory_budget
        )
        local = plan.execute(bucket, k_eff)
        if k_eff < self.k:
            pad = self.k - k_eff
            local = KnnResult(
                np.pad(local.distances, ((0, 0), (0, pad)),
                       constant_values=np.inf),
                np.pad(local.indices, ((0, 0), (0, pad)), constant_values=-1),
            )
        merged = merge_neighbor_lists_fast(
            KnnResult(self._distances[bucket], self._indices[bucket]), local
        )
        self._distances[bucket] = merged.distances
        self._indices[bucket] = merged.indices

    def recall_against_exact(self) -> float:
        """Recall of the maintained lists vs a fresh exact solve (O(N^2))."""
        from ..core.neighbors import recall
        from .allknn import exact_all_knn

        if self.n_alive < 2:
            return 1.0
        alive_ids = np.flatnonzero(self._alive)
        k_eff = min(self.k, alive_ids.size)
        truth_local = exact_all_knn(self._points[alive_ids], k_eff)
        # map local truth ids back to global row ids
        truth = KnnResult(
            truth_local.distances, alive_ids[truth_local.indices]
        )
        current = KnnResult(
            self._distances[alive_ids][:, :k_eff],
            self._indices[alive_ids][:, :k_eff],
        )
        return recall(current, truth)
