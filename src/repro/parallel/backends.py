"""Pluggable execution backends for the data-parallel GSKNN driver.

The paper's §2.5 parallelizes the 4th loop: query chunks go to cores,
each core updates a disjoint slice of the neighbor lists. *How* those
chunks reach the cores is an execution-policy question this module makes
explicit — one :class:`ExecutionBackend` contract, three interchangeable
implementations, each of which contributes one rung to the chunk ladder
that :func:`repro.resilience.executor.run_ladder` runs:

* :class:`SerialBackend` — the chunk list in-process, in order, never
  fault-injected. The reference point every other backend must be
  bit-identical to, and the last rung of every ladder.
* :class:`ThreadBackend` — a ``ThreadPoolExecutor``. The right choice
  when runtime is dominated by BLAS blocks that release the GIL
  (Var#6, large d).
* :class:`ProcessBackend` — a ``ProcessPoolExecutor`` over
  **zero-copy shared memory**. The coordinate table ``X``, the
  squared-norm side table, and the index arrays are placed in
  ``multiprocessing.shared_memory`` segments; workers attach by name
  (no pickling, no copy — the kernel's working set is mapped, not
  moved) and only the small ``(chunk_m, k)`` neighbor lists travel back
  through the result pipe. This escapes the GIL for the selection-heavy
  Var#1 regime, where per-query heap/merge work serializes threads.

All three backends consume the *same* chunk list (produced by
:func:`repro.parallel.chunking.contiguous_chunks`), so their results
are bit-identical by construction — the cross-backend equivalence suite
asserts exactly that.

Retry, fallback, deadlines and the translation of a dead worker
(``BrokenProcessPool``) into :class:`repro.errors.BackendError` live in
the ladder loop, not here. A rung only builds its workers on entry,
submits one chunk, rebuilds a pool whose worker died, and releases
everything on exit — the processes rung unlinks its shared segments
however it is left, so neither a crash, a pool startup failure, nor a
``KeyboardInterrupt`` can leak ``/dev/shm`` space.

:class:`SharedSegments` / :func:`attach_segments` are the one
shared-memory export/attach protocol, also used by the shard
transport's long-lived workers (:mod:`repro.shard.transport`).
"""

from __future__ import annotations

import os
import pickle
from functools import partial
from typing import Any, Sequence

import numpy as np

from ..errors import ValidationError
from ..obs.context import (
    RequestContext,
    bind_request,
    current_request,
)
from ..obs.metrics import MetricsRegistry, get_registry as _get_registry
from ..obs.metrics import set_registry as _set_registry
from ..obs.trace import Tracer, get_tracer as _get_tracer
from ..obs.trace import set_tracer as _set_tracer
from ..resilience.executor import InlineRung, Rung, ThreadRung

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "resolve_backend",
    "BACKENDS",
    "SharedSegments",
    "attach_segments",
]

#: Legacy environment hook: a worker whose chunk start matches this
#: value exits hard, simulating an OOM-kill / segfault. Kept for
#: backward compatibility but now implemented as a one-entry
#: :class:`repro.resilience.FaultPlan` (``crash_at``) in the worker
#: initializer.
_CRASH_ENV = "REPRO_BACKEND_TEST_CRASH_AT"


def _plan_for(X, r_idx, kernel_kwargs):
    """One reusable plan per rung (or worker attach).

    Every chunk of a data-parallel solve shares the same reference set,
    so the gathered panels and workspace buffers are built once and
    reused across chunks instead of once per chunk.
    """
    from ..core.plan import GsknnPlan

    return GsknnPlan(X, r_idx, **kernel_kwargs)


# -- cross-process observability propagation ---------------------------------
#
# Process workers cannot share the parent's tracer, registry, or
# ContextVars. The parent captures its observability state as a small
# picklable spec, ships it through the pool initializer, and each worker
# installs *fresh* local equivalents (also neutralizing any enabled
# tracer/registry a fork-started worker inherited — recording into the
# parent's buffers from the wrong pid would corrupt the trace). After
# each chunk the worker drains its buffers into a payload that rides
# back with the chunk result; the parent re-parents the spans under its
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


def _solve_chunk(
    plan, q_idx: np.ndarray, k: int, chunk: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Solve one query chunk; shared by every backend."""
    start, size = chunk
    # warm_start off: chunks are disjoint query slices, never repeats
    res = plan.execute(q_idx[start : start + size], k, warm_start=False)
    return res.distances, res.indices


def _chunk_solver(X, q_idx, r_idx, k, kernel_kwargs):
    """Open the in-process chunk solver of the serial and threads rungs.

    Runs once as the rung is entered: one plan serves every chunk (its
    arena pool gives concurrent executes private buffers), and each
    chunk's span is parented under the span open here, since pool
    threads start with an empty span stack.
    """
    plan = _plan_for(X, r_idx, kernel_kwargs)
    tracer = _get_tracer()
    parent_id = tracer.current_span_id()

    def solve(start: int, chunk: tuple[int, int]):
        with tracer.span_under(
            parent_id, "worker.chunk", chunk=chunk[0], size=chunk[1]
        ):
            return _solve_chunk(plan, q_idx, k, chunk)

    return solve


class ExecutionBackend:
    """Contract: run query chunks as one rung of the chunk ladder.

    :func:`repro.parallel.data_parallel.gsknn_data_parallel` runs the
    chunk list on a ladder of backend rungs through
    :func:`repro.resilience.executor.run_ladder`.
    """

    name = "abstract"

    def rung(
        self,
        X: np.ndarray,
        q_idx: np.ndarray,
        r_idx: np.ndarray,
        k: int,
        chunks: Sequence[tuple[int, int]],
        kernel_kwargs: dict[str, Any],
        fault_plan=None,
    ) -> Rung:
        """This backend's rung for the chunk list; items are keyed by
        chunk start, ``fault_plan`` fires in scope ``"chunk"``."""
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """In-process, in-order execution — the bit-exact reference."""

    name = "serial"

    def __init__(self, p: int = 1) -> None:
        # p accepted (and ignored) so backends are constructor-compatible
        self.p = 1

    def rung(self, X, q_idx, r_idx, k, chunks, kernel_kwargs, fault_plan=None):
        return InlineRung(
            partial(_chunk_solver, X, q_idx, r_idx, k, kernel_kwargs)
        )


class ThreadBackend(ExecutionBackend):
    """``ThreadPoolExecutor`` fan-out — today's default path."""

    name = "threads"

    def __init__(self, p: int = 2) -> None:
        if p < 1:
            raise ValidationError(f"need p >= 1 workers, got {p}")
        self.p = int(p)

    def rung(self, X, q_idx, r_idx, k, chunks, kernel_kwargs, fault_plan=None):
        return ThreadRung(
            partial(_chunk_solver, X, q_idx, r_idx, k, kernel_kwargs),
            self.p,
            fault=None if fault_plan is None else partial(
                fault_plan.apply, "chunk"
            ),
        )


# -- shared-memory segments --------------------------------------------------
#
# The one export/attach protocol of both process-worker stacks: this
# module's per-solve chunk pools and the shard transport's long-lived
# workers (src/repro/shard/transport.py).


def _shm_export(arr: np.ndarray):
    """Copy ``arr`` into a fresh shared-memory segment; returns (shm, spec).

    If the copy into the segment fails (or is interrupted) the segment
    is unlinked before re-raising — a half-exported segment is not yet
    in any caller's cleanup list, so it must clean up after itself.
    """
    from multiprocessing import shared_memory

    arr = np.ascontiguousarray(arr)
    shm = shared_memory.SharedMemory(create=True, size=max(arr.nbytes, 1))
    try:
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        view[:] = arr
    except BaseException:
        try:
            shm.close()
            shm.unlink()
        except OSError:  # pragma: no cover - already gone
            pass
        raise
    return shm, (shm.name, arr.shape, arr.dtype.str)


class SharedSegments:
    """Named arrays exported to shared memory: export on construction,
    unlink on :meth:`unlink`.

    ``specs`` maps each name to what a worker passes to
    :func:`attach_segments` (``None`` for an absent array). However the
    owner is left — clean finish, worker crash, pool startup failure,
    deadline expiry, ``KeyboardInterrupt``, or an export that fails
    midway — the segments are unlinked exactly once.
    """

    def __init__(self, arrays: dict[str, np.ndarray | None]) -> None:
        self._segments: list[Any] = []
        self.specs: dict[str, Any] = {}
        try:
            for key, arr in arrays.items():
                if arr is None:
                    self.specs[key] = None
                    continue
                shm, spec = _shm_export(np.asarray(arr))
                self._segments.append(shm)
                self.specs[key] = spec
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
                shm.close()
                shm.unlink()
            except OSError:  # pragma: no cover - already gone
                pass


def attach_segments(specs: dict[str, Any]) -> tuple[dict, dict]:
    """Worker side of :class:`SharedSegments`: ``(handles, arrays)``.

    The arrays are zero-copy views; keep the handles alive as long as
    the views are used.
    """
    from multiprocessing import shared_memory

    handles: dict[str, Any] = {}
    arrays: dict[str, np.ndarray | None] = {}
    for key, spec in specs.items():
        if spec is None:
            arrays[key] = None
            continue
        name, shape, dtype = spec
        handles[key] = shm = shared_memory.SharedMemory(name=name)
        arrays[key] = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
    return handles, arrays


class _SharedOperands(SharedSegments):
    """One chunk solve's operands in shared memory: the ``X`` /
    ``q_idx`` / ``r_idx`` / ``X2`` segments plus the pickled kernel
    kwargs, shared by every pool the processes rung builds."""

    def __init__(
        self,
        X: np.ndarray,
        q_idx: np.ndarray,
        r_idx: np.ndarray,
        kernel_kwargs: dict[str, Any],
    ) -> None:
        from ..core.norms import resolve_norm, squared_norms

        # Pre-compute the l2 side table once in the parent so workers
        # never redo it per chunk; ship it through shared memory too.
        kwargs = dict(kernel_kwargs)
        X2 = kwargs.pop("X2", None)
        norm = resolve_norm(kwargs.get("norm", "l2"))
        if (norm.is_l2 or norm.is_cosine) and X2 is None:
            X2 = squared_norms(np.ascontiguousarray(X, dtype=np.float64))
        super().__init__({"X": X, "q_idx": q_idx, "r_idx": r_idx, "X2": X2})
        self.blob = pickle.dumps(kwargs)
        registry = _get_registry()
        if registry.enabled:
            registry.inc("backend.processes.shm_bytes", self.nbytes)


# -- process backend ---------------------------------------------------------
#
# Worker-side state: one attach per worker process (via the pool
# initializer), reused across every chunk that worker executes. The
# arrays are ndarray views over the shared segments — zero-copy.

_WORKER_STATE: dict[str, Any] = {}


def _worker_fault_plan(fault_spec: str | None):
    """The worker's fault plan: the explicit spec merged with the legacy
    ``REPRO_BACKEND_TEST_CRASH_AT`` env hook (now just a one-entry
    ``crash_at`` plan)."""
    from ..resilience.faults import FaultPlan

    plan = FaultPlan.parse(fault_spec) if fault_spec else None
    crash_at = os.environ.get(_CRASH_ENV)
    if crash_at is not None:
        legacy = (int(crash_at),)
        if plan is None:
            plan = FaultPlan(crash_at=legacy)
        else:
            plan = FaultPlan(
                seed=plan.seed,
                crash=plan.crash,
                slow=plan.slow,
                alloc=plan.alloc,
                slow_seconds=plan.slow_seconds,
                crash_at=tuple(plan.crash_at) + legacy,
            )
    return plan


def _process_worker_init(
    specs: dict,
    kernel_blob: bytes,
    fault_spec: str | None = None,
    obs_spec: dict[str, Any] | None = None,
) -> None:
    _install_worker_obs(obs_spec)
    # keep the handles alive for the views' lifetime
    _WORKER_STATE["segments"], _WORKER_STATE["arrays"] = attach_segments(specs)
    _WORKER_STATE["kernel_kwargs"] = pickle.loads(kernel_blob)
    _WORKER_STATE["fault_plan"] = _worker_fault_plan(fault_spec)
    # a fork-started worker inherits the parent's module state; drop any
    # stale plan so this attach builds its own against the new segments
    _WORKER_STATE.pop("plan", None)


def _process_worker_solve(
    task: tuple[tuple[int, int], int, int]
) -> tuple[tuple[np.ndarray, np.ndarray], dict[str, Any] | None]:
    chunk, k, attempt = task
    fault_plan = _WORKER_STATE.get("fault_plan")
    if fault_plan is not None:
        # hard_exit: in a pool worker an injected crash must be a real
        # process death so the parent exercises its BrokenProcessPool
        # handling, not a tidy in-band exception
        fault_plan.apply("chunk", chunk[0], attempt, hard_exit=True)
    arrays = _WORKER_STATE["arrays"]
    kwargs = dict(_WORKER_STATE["kernel_kwargs"])
    if arrays.get("X2") is not None:
        kwargs["X2"] = arrays["X2"]
    if "plan" not in _WORKER_STATE:
        # one plan per shared-memory attach: built on the worker's first
        # chunk, reused for every later chunk this worker executes
        _WORKER_STATE["plan"] = _plan_for(arrays["X"], arrays["r_idx"], kwargs)
    with _get_tracer().span("worker.chunk", chunk=chunk[0], size=chunk[1]):
        dist, idx = _solve_chunk(
            _WORKER_STATE["plan"], arrays["q_idx"], k, chunk
        )
    # span/metric deltas ride back with the chunk result; ``None`` when
    # observability was off (the common path ships nothing extra)
    return (dist, idx), _drain_worker_obs()


def _reap_pool(pool) -> None:
    """Stop a process pool *now*: cancel queued work, terminate workers.

    ``shutdown(wait=False)`` alone leaves a worker grinding on its
    current chunk past the deadline; the contract is "workers reaped",
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


class _ProcessRung(Rung):
    """Chunks on a process pool over one solve's shared operands.

    Entering exports the operands; a worker death drops the broken pool
    and the next submit builds a fresh one against the same segments;
    leaving reaps the pool (joins it after a clean finish) and unlinks
    the segments.
    """

    name = "processes"

    def __init__(
        self, X, q_idx, r_idx, k, kernel_kwargs, workers, mp_context,
        fault_plan,
    ) -> None:
        import multiprocessing

        self._operands = (X, q_idx, r_idx, kernel_kwargs)
        self._k = k
        self._workers = workers
        self._ctx = multiprocessing.get_context(mp_context)
        self._fault_spec = None if fault_plan is None else fault_plan.spec()

    def __enter__(self) -> "_ProcessRung":
        self._ops = _SharedOperands(*self._operands)
        self._pool = None
        self._pools_built = 0
        return self

    def submit(self, key, chunk, attempt):
        from concurrent.futures import ProcessPoolExecutor

        if self._pool is None:
            if self._pools_built:
                registry = _get_registry()
                if registry.enabled:
                    registry.inc("resilience.pool_rebuilds")
            self._pool = ProcessPoolExecutor(
                max_workers=self._workers,
                mp_context=self._ctx,
                initializer=_process_worker_init,
                initargs=(
                    self._ops.specs, self._ops.blob, self._fault_spec,
                    _obs_spec(),
                ),
            )
            self._pools_built += 1
        return self._pool.submit(
            _process_worker_solve, (chunk, self._k, attempt)
        )

    def recover(self, keys) -> None:
        # the executor marks itself unusable after a worker death
        _reap_pool(self._pool)
        self._pool = None

    def __exit__(self, exc_type, *exc: object) -> None:
        try:
            if self._pool is not None:
                if exc_type is None:
                    self._pool.shutdown(wait=True)
                else:
                    _reap_pool(self._pool)
        finally:
            self._ops.unlink()


class ProcessBackend(ExecutionBackend):
    """``ProcessPoolExecutor`` over zero-copy shared-memory operands.

    Parameters
    ----------
    p:
        Worker processes.
    mp_context:
        ``multiprocessing`` start method. Defaults to ``fork`` where
        available (cheap worker startup; the initializer re-attaches by
        name regardless, so ``spawn`` is equally correct — just slower
        to warm up).
    """

    name = "processes"

    def __init__(self, p: int = 2, *, mp_context: str | None = None) -> None:
        import multiprocessing

        if p < 1:
            raise ValidationError(f"need p >= 1 workers, got {p}")
        self.p = int(p)
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        self.mp_context = mp_context

    def rung(self, X, q_idx, r_idx, k, chunks, kernel_kwargs, fault_plan=None):
        from .chunking import resolve_workers

        return _ProcessRung(
            X, q_idx, r_idx, k, kernel_kwargs,
            resolve_workers(self.p, max(len(chunks), 1)),
            self.mp_context, fault_plan,
        )


BACKENDS: dict[str, type[ExecutionBackend]] = {
    "serial": SerialBackend,
    "threads": ThreadBackend,
    "processes": ProcessBackend,
}


def resolve_backend(
    backend: str | ExecutionBackend, p: int | str = 1
) -> ExecutionBackend:
    """Turn a backend name (or ready instance) into an instance.

    ``p`` is the worker count forwarded to a by-name construction
    (``"auto"`` resolves to the host's core count); an instance passes
    through unchanged.
    """
    from .chunking import resolve_workers

    if isinstance(backend, ExecutionBackend):
        return backend
    if not isinstance(backend, str) or backend not in BACKENDS:
        raise ValidationError(
            f"unknown backend {backend!r}; choose from "
            f"{sorted(BACKENDS)} or pass an ExecutionBackend instance"
        )
    return BACKENDS[backend](resolve_workers(p))
