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
* :class:`ProcessBackend` — worker processes over **zero-copy shared
  memory**, escaping the GIL for the selection-heavy Var#1 regime where
  per-query heap/merge work serializes threads. Its rung runs the
  chunks on a per-solve :class:`~repro.shard.transport.ProcessTransport`
  — the one shared-memory worker stack, also behind the shard router
  and the distributed solver's rank workers — whose every worker holds
  the whole reference set: the table and its squared-norm side table
  are mapped from shared memory, each chunk ships only its query ids,
  and only the ``(chunk_m, k)`` neighbor lists travel back.

All three backends consume the *same* chunk list (produced by
:func:`repro.parallel.chunking.contiguous_chunks`), so their results
are bit-identical by construction — the cross-backend equivalence suite
asserts exactly that.

Retry, fallback, deadlines and the translation of a dead worker
(``BrokenProcessPool``) into :class:`repro.errors.BackendError` live in
the ladder loop, not here. A rung only builds its workers on entry,
submits one chunk, restarts a worker that died, and releases
everything on exit — the processes rung closes its transport, which
unlinks the shared segments, however it is left, so neither a crash, a
pool startup failure, nor a ``KeyboardInterrupt`` can leak
``/dev/shm`` space.

This module also holds the worker stack's two shared protocols:
:class:`SharedSegments` / :func:`attach_segments` export and attach
arrays by name, and the ``_obs_spec`` / ``_install_worker_obs`` /
``_drain_worker_obs`` / ``_absorb_worker_obs`` helpers carry
observability across the process boundary.
"""

from __future__ import annotations

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


def _chunk_solver(table, q_idx, r_idx, k, kernel_kwargs):
    """Open the in-process chunk solver of the serial and threads rungs.

    Runs once as the rung is entered: one plan serves every chunk (its
    arena pool gives concurrent executes private buffers), and each
    chunk's span is parented under the span open here, since pool
    threads start with an empty span stack.
    """
    from ..core.plan import GsknnPlan

    plan = GsknnPlan(table, r_idx, **kernel_kwargs)
    tracer = _get_tracer()
    parent_id = tracer.current_span_id()

    def solve(start: int, chunk: tuple[int, int]):
        with tracer.span_under(
            parent_id, "worker.chunk", chunk=chunk[0], size=chunk[1]
        ):
            # warm_start off: chunks are disjoint query slices, never
            # repeats
            res = plan.execute(
                q_idx[start : start + chunk[1]], k, warm_start=False
            )
            return res.distances, res.indices

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
        table,
        q_idx: np.ndarray,
        r_idx: np.ndarray,
        k: int,
        chunks: Sequence[tuple[int, int]],
        kernel_kwargs: dict[str, Any],
        fault_plan=None,
    ) -> Rung:
        """This backend's rung for the chunk list over ``table`` (the
        solve's :class:`~repro.core.table.TableHandle`); items are keyed
        by chunk start, ``fault_plan`` fires in scope ``"chunk"``."""
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """In-process, in-order execution — the bit-exact reference."""

    name = "serial"

    def __init__(self, p: int = 1) -> None:
        # p accepted (and ignored) so backends are constructor-compatible
        self.p = 1

    def rung(
        self, table, q_idx, r_idx, k, chunks, kernel_kwargs, fault_plan=None
    ):
        return InlineRung(
            partial(_chunk_solver, table, q_idx, r_idx, k, kernel_kwargs)
        )


class ThreadBackend(ExecutionBackend):
    """``ThreadPoolExecutor`` fan-out — today's default path."""

    name = "threads"

    def __init__(self, p: int = 2) -> None:
        if p < 1:
            raise ValidationError(f"need p >= 1 workers, got {p}")
        self.p = int(p)

    def rung(
        self, table, q_idx, r_idx, k, chunks, kernel_kwargs, fault_plan=None
    ):
        return ThreadRung(
            partial(_chunk_solver, table, q_idx, r_idx, k, kernel_kwargs),
            self.p,
            fault=None if fault_plan is None else partial(
                fault_plan.apply, "chunk"
            ),
        )


# -- shared-memory segments --------------------------------------------------
#
# The export/attach protocol of the process workers
# (src/repro/shard/transport.py).


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


class _ChunkRung(Rung):
    """Query chunks on a per-solve :class:`~repro.shard.transport.ProcessTransport`
    whose every worker holds the whole reference set.

    Chunk ``i`` goes to worker ``i % workers``; a dead worker is
    restarted. Entering starts the workers; leaving closes the
    transport, first reaping the workers still running a chunk when the
    rung is left on an error.
    """

    name = "processes"

    def __init__(self, transport, world, q_idx, k, chunks) -> None:
        self._transport = transport
        self._world = world
        self._q_idx = q_idx
        self._k = k
        self._route = {
            start: i % world.n_shards for i, (start, _) in enumerate(chunks)
        }

    def __enter__(self) -> "_ChunkRung":
        # per chunk, not per worker: several chunks share a worker
        self._futures: dict[int, Any] = {}
        try:
            self._transport.start(self._world)
        except BaseException:
            # __exit__ does not run when __enter__ raises
            self._transport.close()
            raise
        return self

    def submit(self, start, chunk, attempt):
        task = ("idx", self._q_idx[start : start + chunk[1]], self._k)
        future = self._transport.submit(
            self._route[start], task, attempt=attempt, chunk=start
        )
        self._futures[start] = future
        return future

    def recover(self, starts) -> None:
        for worker in {self._route[start] for start in starts}:
            self._transport.restart(worker)

    def __exit__(self, exc_type, *exc: object) -> None:
        try:
            if exc_type is not None:
                self.recover(
                    [s for s, f in self._futures.items() if not f.done()]
                )
        finally:
            self._transport.close()


class ProcessBackend(ExecutionBackend):
    """Worker processes over zero-copy shared-memory operands.

    Parameters
    ----------
    p:
        Worker processes.
    mp_context:
        ``multiprocessing`` start method; ``None`` takes
        :class:`~repro.shard.transport.ProcessTransport`'s default.
    """

    name = "processes"

    def __init__(self, p: int = 2, *, mp_context: str | None = None) -> None:
        if p < 1:
            raise ValidationError(f"need p >= 1 workers, got {p}")
        self.p = int(p)
        self.mp_context = mp_context

    def rung(
        self, table, q_idx, r_idx, k, chunks, kernel_kwargs, fault_plan=None
    ):
        from ..core.norms import resolve_norm
        from ..shard.transport import ProcessTransport, ShardWorld
        from .chunking import resolve_workers

        # the l2 side table is computed once here and shared with every
        # worker, never redone per worker or per chunk
        norm = resolve_norm(kernel_kwargs.get("norm", "l2"))
        workers = resolve_workers(self.p, max(len(chunks), 1))
        world = ShardWorld(
            X=table.X,
            X2=table.norms if norm.is_l2 or norm.is_cosine else None,
            local_ids=[r_idx] * workers,
            epoch=0,
            kernel_kwargs=kernel_kwargs,
            fault_spec=None if fault_plan is None else fault_plan.spec(),
        )
        return _ChunkRung(
            ProcessTransport(self.mp_context), world, q_idx, k, chunks
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
