"""Shard transports: how the router reaches a shard's solve engine.

Two implementations of one contract (:class:`ShardTransport`):

* :class:`ProcessTransport` — the one shared-memory worker stack. One
  **long-lived** single-worker process per shard (a
  ``ProcessPoolExecutor`` with ``max_workers=1``, so the worker — and
  its packed panels — survives across calls). The reference table and
  its squared-norm side table live in shared-memory segments with
  room to grow, attached by every worker (the zero-copy
  :class:`SharedSegments` protocol); the parent appends into them in
  place, and only query ids/rows, membership changes and the ``(m, k)``
  partials cross the process boundary. Each worker wraps the attached
  table in one :class:`~repro.core.table.TableHandle` (validated once
  per attach, norms taken from the shared side table, extended over
  each append's rows) and holds its own
  :class:`~repro.core.plan.GsknnPlan` over its partition plus a
  :class:`~repro.core.plan.PlanCache` for ad-hoc group solves, both
  invalidated when the membership epoch moves. Two callers run on
  it: the shard router (a partition per worker) and the distributed
  solver's rank workers (empty partitions, explicit group tasks).

* :class:`LocalTransport` — the same contract executed synchronously in
  the calling process (per-shard plans parent-side). This is the
  deterministic twin used by tests, the engine of the router's
  parent-side threads and serial rungs, and the moral successor of
  ``SimComm``'s in-process ranks on the scatter/gather path.

Both return :class:`concurrent.futures.Future`s from ``submit`` so the
callers are transport-agnostic. :class:`_TransportRung` is how they
reach a transport from the resilience layer's one retry/fallback loop
(:func:`repro.resilience.executor.run_ladder`): the shard router's
partitions and the distributed solver's rank kernels both run on it.

The module also holds the worker stack's two shared protocols:
:class:`SharedSegments` / :func:`attach_segments` create and attach
arrays by name, and the ``_obs_spec`` / ``_install_worker_obs`` /
``_drain_worker_obs`` / ``_absorb_worker_obs`` helpers carry
observability across the process boundary.
"""

from __future__ import annotations

import functools
import os
import pickle
import secrets
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.table import TableHandle, TableStore
from ..errors import BackendError, ValidationError
from ..obs.context import RequestContext, bind_request, current_request
from ..obs.metrics import MetricsRegistry, get_registry as _get_registry
from ..obs.metrics import set_registry as _set_registry
from ..obs.trace import Tracer, get_tracer as _get_tracer
from ..obs.trace import set_tracer as _set_tracer
from ..resilience.executor import Rung

__all__ = [
    "ShardWorld",
    "ShardTransport",
    "LocalTransport",
    "ProcessTransport",
    "resolve_transport",
    "TRANSPORTS",
    "SharedSegments",
    "attach_segments",
    "segment_prefix",
]

# -- cross-process observability propagation ---------------------------------
#
# Process workers cannot share the parent's tracer, registry, or
# ContextVars. The parent captures its observability state as a small
# picklable spec, ships it through the pool initializer, and each worker
# installs *fresh* local equivalents (also neutralizing any enabled
# tracer/registry a fork-started worker inherited — recording into the
# parent's buffers from the wrong pid would corrupt the trace). After
# each task the worker drains its buffers into a payload that rides
# back with the task's result; the parent re-parents the spans under its
# own driver span and folds the metric deltas in.


def _obs_spec() -> dict[str, Any] | None:
    """Picklable snapshot of the caller's observability state, or ``None``."""
    tracer = _get_tracer()
    registry = _get_registry()
    ctx = current_request()
    if not tracer.enabled and not registry.enabled and ctx is None:
        return None
    return {
        "trace": tracer.enabled,
        "sample_every": tracer.sample_every,
        "metrics": registry.enabled,
        "request_id": ctx.request_id if ctx is not None else None,
        "tenant": ctx.tenant if ctx is not None else None,
    }


def _install_worker_obs(spec: dict[str, Any] | None) -> None:
    """Install fresh per-worker tracer/registry/request state.

    Runs in the worker via the pool initializer. Always replaces the
    globals — even with no spec — so fork-inherited enabled instruments
    never record on the parent's behalf.
    """
    if spec is None:
        _set_tracer(Tracer())
        _set_registry(MetricsRegistry())
        bind_request(None)
        return
    _set_tracer(
        Tracer(enabled=spec["trace"], sample_every=spec.get("sample_every", 1))
    )
    _set_registry(MetricsRegistry(enabled=spec["metrics"]))
    if spec.get("request_id"):
        bind_request(
            RequestContext(
                request_id=spec["request_id"],
                tenant=spec.get("tenant") or "default",
            )
        )
    else:
        bind_request(None)


def _drain_worker_obs() -> dict[str, Any] | None:
    """The worker-side span/metric deltas accumulated since last drain."""
    payload: dict[str, Any] = {}
    tracer = _get_tracer()
    if tracer.enabled:
        spans = tracer.export_payload()
        if spans:
            payload["spans"] = spans
    registry = _get_registry()
    if registry.enabled:
        payload["metrics"] = registry.drain()
    return payload or None


def _absorb_worker_obs(
    payload: dict[str, Any] | None, parent_id: int | None
) -> None:
    """Caller side: fold a worker's shipped payload into the live
    tracer/registry, re-parenting worker roots under ``parent_id``."""
    if not payload:
        return
    spans = payload.get("spans")
    if spans:
        _get_tracer().adopt_payload(spans, parent_id=parent_id)
    metrics = payload.get("metrics")
    if metrics:
        registry = _get_registry()
        if registry.enabled:
            registry.merge_snapshot(metrics)


# -- shared-memory segments --------------------------------------------------
#
# The create/attach protocol of the process workers. Every segment this
# package creates is named under ``segment_prefix()``, so a leak check
# can list one process's segments without reading anyone else's.


def segment_prefix() -> str:
    """The name prefix of the shared-memory segments this process creates."""
    return f"repro{os.getpid()}_"


def _shm_create(nbytes: int):
    """A new segment of ``nbytes`` named under :func:`segment_prefix`."""
    from multiprocessing import shared_memory

    while True:
        name = segment_prefix() + secrets.token_hex(4)
        try:
            return shared_memory.SharedMemory(
                name=name, create=True, size=max(int(nbytes), 1)
            )
        except FileExistsError:  # pragma: no cover - a 32-bit collision
            continue


class _Mapped:
    """The ``__array_interface__`` of an array over a segment's mapping.

    As the array's base it keeps the segment mapped for as long as any
    view of the array lives, whatever becomes of the segment's owner:
    the mapping is closed by ``SharedMemory.__del__`` only once the last
    view is gone, so a view can never outlive its memory.
    """

    def __init__(self, shm, shape, dtype, readonly: bool) -> None:
        probe = np.frombuffer(shm.buf, dtype=np.uint8, count=1)
        address = probe.__array_interface__["data"][0]
        del probe  # releases its export of shm.buf
        self.shm = shm
        self.__array_interface__ = {
            "data": (address, readonly),
            "shape": tuple(shape),
            "typestr": np.dtype(dtype).str,
            "version": 3,
        }


def _segment_array(shm, shape, dtype, *, readonly: bool) -> np.ndarray:
    return np.asarray(_Mapped(shm, shape, dtype, readonly))


class SharedSegments:
    """Named float64 arrays in shared memory: created empty on
    construction, unlinked on :meth:`unlink`.

    ``arrays`` holds this process's writeable views of the segments;
    ``specs`` maps each name to what a worker passes to
    :func:`attach_segments`. However the owner is left — clean finish,
    worker crash, pool startup failure, deadline expiry,
    ``KeyboardInterrupt``, or a construction that fails midway — the
    segments are unlinked exactly once. Unlinking removes the names;
    each mapping is closed once nothing views it.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]]) -> None:
        self._segments: list[Any] = []
        self.specs: dict[str, Any] = {}
        self.arrays: dict[str, np.ndarray] = {}
        try:
            for key, shape in shapes.items():
                shm = _shm_create(int(np.prod(shape)) * 8)
                self._segments.append(shm)
                self.specs[key] = (shm.name, tuple(shape), "<f8")
                self.arrays[key] = _segment_array(
                    shm, shape, np.float64, readonly=False
                )
        except BaseException:
            self.unlink()
            raise

    @property
    def nbytes(self) -> int:
        return sum(s.size for s in self._segments)

    def unlink(self) -> None:
        segments, self._segments = self._segments, []
        for shm in segments:
            try:
                shm.unlink()
            except OSError:  # pragma: no cover - already gone
                pass


def attach_segments(specs: dict[str, Any]) -> dict[str, np.ndarray]:
    """Worker side of :class:`SharedSegments`: read-only views by name.

    Each view keeps its segment mapped for as long as it lives.
    """
    from multiprocessing import shared_memory

    arrays: dict[str, np.ndarray] = {}
    for key, (name, shape, dtype) in specs.items():
        shm = shared_memory.SharedMemory(name=name)
        arrays[key] = _segment_array(shm, shape, dtype, readonly=True)
    return arrays


class _SharedStore(TableStore):
    """A table store in shared segments: the parent appends in place,
    and the workers read the same rows by name."""

    __slots__ = ("segments",)


@dataclass
class ShardWorld:
    """Everything a transport needs to host the shards of one table.

    ``table`` is the caller's handle over the rows. ``local_ids[s]`` is
    shard ``s``'s partition (global ids, global order) at ``epoch``;
    ``kernel_kwargs`` carries the pinned ``norm`` / ``block_m`` /
    ``block_n`` the bit-identicality contract requires every shard to
    share with the single-process twin. A world derived from a
    :class:`~repro.shard.map.ShardMap` also carries its ``membership``
    (its ``spec()`` and ``alive_mask``) and the
    ``change`` that made this epoch from the one before —
    ``("insert", count)`` or ``("delete", ids)`` — so a worker can
    re-derive its partition from the change alone.
    """

    table: TableHandle
    local_ids: list[np.ndarray]
    epoch: int
    kernel_kwargs: dict[str, Any] = field(default_factory=dict)
    fault_spec: str | None = None
    membership: tuple[dict[str, Any], np.ndarray] | None = None
    change: tuple | None = None

    @property
    def n_shards(self) -> int:
        return len(self.local_ids)


class ShardTransport:
    """Contract: start workers, submit solve tasks, propagate epochs.

    ``submit`` returns a Future resolving to
    ``((distances, global_indices), obs_payload)``; a dead shard rejects
    with :class:`BackendError` (or ``BrokenProcessPool``) and is brought
    back with ``restart``. ``refresh`` must be ordered before any
    subsequent ``submit`` for the same shard — both transports guarantee
    that by construction (single worker FIFO / synchronous execution).
    """

    name = "abstract"

    def start(self, world: ShardWorld) -> None:
        raise NotImplementedError

    def submit(
        self, shard: int, task: tuple, *, attempt: int = 0
    ) -> Future:
        raise NotImplementedError

    def share(self, table: TableHandle) -> TableHandle:
        """The handle a caller should keep for ``table``: the same rows,
        in storage this transport's workers read (an append from it then
        reaches them in place). The table itself by default."""
        return table

    def refresh(self, world: ShardWorld) -> None:
        """Propagate a new membership epoch (and possibly a new table)."""
        raise NotImplementedError

    def restart(self, shard: int) -> None:
        """Drop a shard's executor after a crash; the shard's next
        ``submit`` recreates it. No-op by default."""

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "ShardTransport":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _solve_task(plan, plan_cache, table, task, kernel_kwargs):
    """Execute one solve task against a shard's engine.

    Shared verbatim by the in-process transport and the worker process,
    so both paths run the identical arithmetic. Task forms:

    * ``("idx", q_idx, k, variant)``  — partition solve, table-index queries
    * ``("rows", Q, k, variant)``     — partition solve, literal query rows
    * ``("group", q_idx, r_idx, k)``  — ad-hoc group solve (the
      distributed tree iteration's leaves), via the shard's PlanCache

    ``variant`` is the int the *caller* resolved against the global
    problem shape — a shard must never re-resolve it locally, where its
    smaller partition could flip the Var#1/Var#6 decision and perturb
    distance bits.
    """
    kind = task[0]
    if kind == "group":
        _, q_idx, r_idx, k = task
        group_plan = plan_cache.get(table, r_idx, **kernel_kwargs)
        res = group_plan.execute(q_idx, k, warm_start=False)
        return res.distances, res.indices
    if plan is None:
        raise BackendError("shard has an empty partition; nothing to solve")
    _, q, k, *rest = task
    variant = rest[0] if rest else None
    if kind == "idx":
        res = plan.execute(q, k, warm_start=False, variant=variant)
    elif kind == "rows":
        res = plan.execute_rows(q, k, variant=variant)
    else:  # pragma: no cover - defended against protocol drift
        raise ValidationError(f"unknown shard task kind {kind!r}")
    return res.distances, res.indices


# -- in-process transport ----------------------------------------------------


class LocalTransport(ShardTransport):
    """Synchronous in-process shards: per-shard plans, no IPC.

    Deterministic and dependency-free — the reference implementation of
    the contract, the test twin, and the engine the router's
    parent-side fallback rungs re-solve failed partitions on.
    """

    name = "local"

    def __init__(self) -> None:
        self._world: ShardWorld | None = None
        self._table = None
        self._plans: list[Any] = []
        self._cache = None

    def start(self, world: ShardWorld) -> None:
        from ..core.plan import PlanCache

        self._cache = PlanCache()
        self.refresh(world)

    def refresh(self, world: ShardWorld) -> None:
        from ..core.plan import GsknnPlan

        self._table = world.table
        self._world = world
        if self._cache is not None:
            self._cache.clear()
        self._plans = [
            GsknnPlan(self._table, ids, **world.kernel_kwargs)
            if ids.size
            else None
            for ids in world.local_ids
        ]

    def submit(self, shard: int, task: tuple, *, attempt: int = 0) -> Future:
        assert self._world is not None
        fut: Future = Future()
        registry = _get_registry()
        try:
            with _get_tracer().span(
                "shard.solve", shard=shard, transport=self.name
            ):
                out = _solve_task(
                    self._plans[shard],
                    self._cache,
                    self._table,
                    task,
                    self._world.kernel_kwargs,
                )
            if registry.enabled:
                registry.inc("shard.solves", labels={"shard": str(shard)})
            fut.set_result((out, None))
        except BaseException as exc:  # rejected future, not a raise:
            fut.set_exception(exc)  # keep submit() non-throwing like a pool
        return fut

    def close(self) -> None:
        self._plans = []
        self._world = None
        self._table = None
        self._cache = None


# -- process transport -------------------------------------------------------

# Per-worker module state, set by the pool initializer (one worker per
# shard pool, so this is effectively per-shard state that lives as long
# as the shard process does).
_SHARD_STATE: dict[str, Any] = {}


def _shard_worker_init(
    shard_id: int,
    specs: dict[str, Any],
    init_blob: bytes,
    fault_spec: str | None,
    obs_spec: dict[str, Any] | None,
) -> None:
    from ..core.plan import PlanCache
    from ..core.workers import serial_process
    from ..resilience.faults import FaultPlan

    # the worker processes are the fan-out: their kernels stay serial
    serial_process()
    _install_worker_obs(obs_spec)
    _SHARD_STATE["shard_id"] = int(shard_id)
    _SHARD_STATE["fault_plan"] = (
        FaultPlan.parse(fault_spec) if fault_spec else None
    )
    _SHARD_STATE["cache"] = PlanCache()
    _shard_worker_attach(specs, init_blob)


def _shard_worker_attach(specs: dict[str, Any], init_blob: bytes) -> int:
    """Epoch propagation that (re)attaches the table's segments: at
    startup, and when the parent moved the table to new segments.

    The epoch's table is validated once here; the old segments stay
    mapped only while a dropped plan still views them.
    """
    from .map import ShardMap

    init = pickle.loads(init_blob)
    arrays = attach_segments(specs)
    X = arrays["X"]
    # claimed to capacity: rows past the table are the parent's to write
    store = TableStore(X, arrays["X2"], X.shape[0], TableStore.private)
    _SHARD_STATE["table"] = TableHandle.over(store, init["n"])
    _SHARD_STATE["kernel_kwargs"] = init["kernel_kwargs"]
    membership = init["membership"]
    if membership is None:
        _SHARD_STATE["map"] = None
        _SHARD_STATE["local_ids"] = init["local_ids"]
    else:
        _SHARD_STATE["map"] = ShardMap.from_spec(*membership)
        _SHARD_STATE["local_ids"] = _SHARD_STATE["map"].local_ids(
            _SHARD_STATE["shard_id"]
        )
    return _shard_worker_epoch(init["epoch"])


def _shard_worker_reattach(
    specs: dict[str, Any], init_blob: bytes, epoch: int
) -> int:
    """A refresh that moved the table to new segments."""
    _refresh_fault(epoch)
    return _shard_worker_attach(specs, init_blob)


def _shard_worker_update(n: int, change: tuple, epoch: int) -> int:
    """A refresh at the same segments: apply ``change`` to this worker's
    replica of the shard map, re-derive the partition, and extend the
    table over the rows ``n`` counts past the old end (validating only
    those). A replica that does not land on the parent's ``(n, epoch)``
    raises and leaves the worker at its old epoch.
    """
    _refresh_fault(epoch)
    membership = _SHARD_STATE["map"]
    kind, arg = change
    if kind == "insert":
        membership.append(arg)
    else:
        membership.tombstone(arg)
    if membership.epoch != epoch or membership.n_total != n:
        raise BackendError(
            f"shard worker membership at epoch {membership.epoch} with "
            f"{membership.n_total} rows; the parent is at epoch {epoch} "
            f"with {n}"
        )
    table = _SHARD_STATE["table"]
    if n != table.n:
        _SHARD_STATE["table"] = table.extended(n)
    _SHARD_STATE["local_ids"] = membership.local_ids(_SHARD_STATE["shard_id"])
    return _shard_worker_epoch(epoch)


def _refresh_fault(epoch: int) -> None:
    """A refresh's fault site, ``("shard.refresh", "epoch:shard")``: an
    injected crash kills the worker mid-refresh."""
    fault_plan = _SHARD_STATE.get("fault_plan")
    if fault_plan is not None:
        fault_plan.apply(
            "shard.refresh",
            f"{epoch}:{_SHARD_STATE['shard_id']}",
            hard_exit=True,
        )


def _shard_worker_epoch(epoch: int) -> int:
    """Enter ``epoch``: packed panels refer to the old membership, so
    the partition plan and the group plans are dropped."""
    _SHARD_STATE["epoch"] = epoch
    _SHARD_STATE.pop("plan", None)
    _SHARD_STATE["cache"].clear()
    return epoch


def _shard_worker_solve(
    task: tuple, epoch: int, attempt: int
) -> tuple[tuple[np.ndarray, np.ndarray], dict[str, Any] | None]:
    """Solve one task in the worker; its fault site is
    ``("shard", "epoch:shard")``."""
    if epoch != _SHARD_STATE["epoch"]:
        raise BackendError(
            f"shard worker at epoch {_SHARD_STATE['epoch']} received a "
            f"task for epoch {epoch}"
        )
    shard_id = _SHARD_STATE["shard_id"]
    fault_plan = _SHARD_STATE.get("fault_plan")
    if fault_plan is not None:
        # hard_exit: an injected crash must be a real process death so
        # the caller exercises BrokenProcessPool recovery
        fault_plan.apply(
            "shard", f"{epoch}:{shard_id}", attempt, hard_exit=True
        )
    table = _SHARD_STATE["table"]
    kwargs = _SHARD_STATE["kernel_kwargs"]
    if "plan" not in _SHARD_STATE:
        from ..core.plan import GsknnPlan

        ids = _SHARD_STATE["local_ids"]
        _SHARD_STATE["plan"] = (
            GsknnPlan(table, ids, **kwargs) if ids.size else None
        )
    with _get_tracer().span(
        "shard.solve", shard=shard_id, transport="process", epoch=epoch
    ):
        out = _solve_task(
            _SHARD_STATE["plan"], _SHARD_STATE["cache"], table, task, kwargs
        )
    registry = _get_registry()
    if registry.enabled:
        registry.inc("shard.solves", labels={"shard": str(shard_id)})
    return out, _drain_worker_obs()


def _reap_pool(pool) -> None:
    """Stop a process pool *now*: cancel queued work, terminate workers.

    ``shutdown(wait=False)`` alone leaves a worker grinding on its
    current task past the deadline; the contract is "workers reaped",
    so the pool's processes are terminated directly.
    """
    pool.shutdown(wait=False, cancel_futures=True)
    procs = getattr(pool, "_processes", None)
    if procs:
        for proc in list(procs.values()):
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - already dead
                pass


class ProcessTransport(ShardTransport):
    """One long-lived single-worker process pool per shard.

    ``mp_context`` is the ``multiprocessing`` start method. The default,
    for every caller, is ``fork`` where the platform has it (cheap
    worker startup), else ``spawn``; workers attach the table by name
    either way, so both are equally correct.

    The table lives in a :class:`TableStore` in shared segments
    (:meth:`share`): a caller that keeps the shared handle appends
    straight into the segments' spare rows, and a refresh then sends
    each worker only the change. New segments — and a re-attach by
    every worker — come only when an append outgrows them, which
    doubles their rows.
    """

    name = "process"

    def __init__(self, mp_context: str | None = None) -> None:
        import multiprocessing

        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(mp_context)
        self._world: ShardWorld | None = None
        self._pools: list[ProcessPoolExecutor | None] = []
        # every store this transport made, oldest first; the workers
        # attach the one ``self._table`` is over
        self._stores: list[_SharedStore] = []
        self._table: TableHandle | None = None
        # shard -> the pool whose worker failed to apply a delta
        self._unapplied: dict[int, ProcessPoolExecutor] = {}

    # -- lifecycle -----------------------------------------------------------

    def share(self, table: TableHandle) -> TableHandle:
        """``table`` in this transport's shared segments (as is when it
        already is); a new store holds exactly its rows."""
        if any(table.store is store for store in self._stores):
            return table
        return table.moved(self._new_store)

    def _new_store(self, capacity: int, d: int) -> _SharedStore:
        segments = SharedSegments({"X": (capacity, d), "X2": (capacity,)})
        store = _SharedStore(
            segments.arrays["X"], segments.arrays["X2"], 0, self._new_store
        )
        store.segments = segments
        self._stores.append(store)
        registry = _get_registry()
        if registry.enabled:
            registry.inc("shard.shm_bytes", segments.nbytes)
        return store

    def start(self, world: ShardWorld) -> None:
        self._world = world
        self._table = self.share(world.table)
        self._pools = [None] * world.n_shards
        for s in range(world.n_shards):
            self._spawn(s)

    def _init_blob(self, shard: int) -> bytes:
        """Shard ``shard``'s full state at the current epoch."""
        world = self._world
        return pickle.dumps(
            {
                "kernel_kwargs": world.kernel_kwargs,
                "n": self._table.n,
                "epoch": world.epoch,
                "membership": world.membership,
                "local_ids": (
                    world.local_ids[shard] if world.membership is None else None
                ),
            }
        )

    def _spawn(self, shard: int) -> None:
        assert self._world is not None
        self._pools[shard] = ProcessPoolExecutor(
            max_workers=1,
            mp_context=self._ctx,
            initializer=_shard_worker_init,
            initargs=(
                shard,
                self._table.store.segments.specs,
                self._init_blob(shard),
                self._world.fault_spec,
                _obs_spec(),
            ),
        )

    def restart(self, shard: int) -> None:
        """Reap a shard's worker — a dead one, or a straggler, which is
        terminated rather than left to finish its task. Its replacement
        starts on the shard's next submit."""
        pool, self._pools[shard] = self._pools[shard], None
        if pool is not None:
            _reap_pool(pool)

    def refresh(self, world: ShardWorld) -> None:
        """New epoch, pushed to every worker (FIFO-ordered before any
        subsequent solve on that worker).

        * A **delta**: the table is still in the segments the workers
          attach, and the world names its change from the previous
          epoch. Each worker gets only the change and the new row
          count, and the refresh returns once they are queued. A worker
          that fails to apply its change stays at the old epoch and is
          restarted from full state before its next solve is sent (a
          solve that gets there first fails the epoch check, and the
          ladder restarts the worker).
        * Otherwise every worker **re-attaches** to the table's
          segments, and the superseded segments are unlinked once all
          have: a pool made before the move may still start its worker
          from init-args that name them.

        A worker that died before or during the refresh comes back with
        the new state in its init-args.
        """
        assert self._world is not None
        previous, self._world = self._world, world
        table = self.share(world.table)
        delta = (
            world.change is not None
            and world.membership is not None
            and world.epoch == previous.epoch + 1
            and table.store is self._table.store
        )
        self._table = table
        stale = []
        if not delta:
            stale = [s for s in self._stores if s is not table.store]
            self._stores = [table.store]
        pending = {}
        for s, pool in enumerate(self._pools):
            if pool is None:
                continue
            try:
                if delta:
                    future = pool.submit(
                        _shard_worker_update, table.n, world.change, world.epoch
                    )
                    future.add_done_callback(
                        functools.partial(self._landed, s, pool)
                    )
                else:
                    pending[s] = pool.submit(
                        _shard_worker_reattach,
                        table.store.segments.specs,
                        self._init_blob(s),
                        world.epoch,
                    )
            except Exception:
                self.restart(s)
        for s, future in pending.items():
            try:
                future.result()
            except Exception:
                self.restart(s)
        for store in stale:
            store.segments.unlink()

    def _landed(self, shard: int, pool, future: Future) -> None:
        """A delta's result: a worker that failed to apply it is restarted
        before its next solve (a solve that gets there first fails the
        epoch check and is retried)."""
        if not future.cancelled() and future.exception() is not None:
            self._unapplied[shard] = pool

    # -- solve ---------------------------------------------------------------

    def submit(self, shard: int, task: tuple, *, attempt: int = 0) -> Future:
        """Submit ``task`` to the shard's worker, starting a replacement
        for one that was restarted."""
        assert self._world is not None
        failed = self._unapplied.pop(shard, None)
        if failed is not None and failed is self._pools[shard]:
            self.restart(shard)
        if self._pools[shard] is None:
            self._spawn(shard)
            registry = _get_registry()
            if registry.enabled:
                registry.inc("resilience.pool_rebuilds")
        return self._pools[shard].submit(
            _shard_worker_solve, task, self._world.epoch, attempt
        )

    def close(self) -> None:
        # every pool's management thread is joined: an interpreter
        # exiting while one is still tearing down races the executor
        # atexit hook against the wakeup pipe's close (a spurious
        # "Exception ignored ... Bad file descriptor" on stderr). All
        # pools are told to stop before any is joined, so their workers
        # exit in parallel rather than one after another.
        pools = [pool for pool in self._pools if pool is not None]
        self._pools = []
        managers = [pool._executor_manager_thread for pool in pools]
        for pool in pools:
            pool.shutdown(wait=False, cancel_futures=True)
        for thread in managers:
            if thread is not None:
                thread.join()
        stores, self._stores = self._stores, []
        for store in stores:
            store.segments.unlink()
            # a handle that outlives the transport grows in private
            # memory, never in segments no one would unlink
            store.grow = TableStore.private
        self._table = None
        self._world = None


class _TransportRung(Rung):
    """A transport's workers as a ladder rung: items are keyed by shard
    (a rank, for the distributed solver) and are transport tasks.

    A worker that died is restarted. A rung left on an error — an
    expired deadline, a non-retryable failure — also restarts every
    worker still running one of its items, so no straggler outlives the
    solve that gave up on it.
    """

    def __init__(self, transport: ShardTransport) -> None:
        self.name = transport.name
        self._transport = transport

    def __enter__(self) -> "_TransportRung":
        self._futures: dict[int, Future] = {}
        return self

    def submit(self, shard, task, attempt):
        with _get_tracer().span("shard.scatter", shard=shard):
            future = self._transport.submit(shard, task, attempt=attempt)
        self._futures[shard] = future
        return future

    def recover(self, shards) -> None:
        for shard in shards:
            self._transport.restart(shard)

    def __exit__(self, exc_type, *exc: object) -> None:
        if exc_type is not None:
            self.recover(
                [s for s, f in self._futures.items() if not f.done()]
            )


TRANSPORTS = {
    "local": LocalTransport,
    "process": ProcessTransport,
}


def resolve_transport(transport) -> ShardTransport:
    """Accept a transport name or instance."""
    if isinstance(transport, ShardTransport):
        return transport
    try:
        factory = TRANSPORTS[transport]
    except (KeyError, TypeError):
        raise ValidationError(
            f"transport must be one of {sorted(TRANSPORTS)} or a "
            f"ShardTransport instance, got {transport!r}"
        ) from None
    return factory()
