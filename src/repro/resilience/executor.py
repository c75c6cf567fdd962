"""The one retry/fallback loop every recoverable fan-out runs on.

Four callers decompose their work into independent items whose answers
do not depend on where they run, and hand the items to
:func:`run_ladder` together with a ladder of :class:`Rung` s:

* the shard router splits the reference side into partitions — the
  shards' own workers, then parent-side threads, then inline serial;
* the LPT schedule executor submits independent tasks in schedule
  order to ``n_processors`` threads (the greedy list schedule), then
  inline serial — the CLI's resilient one-shot kernel is a schedule of
  one task;
* the distributed solver runs each leaf kernel as a one-item ladder —
  the rank (a thread for a simulated rank, a worker process for a real
  one), then inline in the parent;
* the serving front-end runs each window group as a one-item ladder on
  a single fault-injected rung that retries without backoff.

Every rung that leaves the calling process runs on one worker stack,
:class:`~repro.shard.transport.ProcessTransport`: the shard workers
and the rank worker processes. Its workers map the table from shared
memory, fire their item's injected fault with a hard exit, and ship
span/metric deltas back with each result.

A rung only says how to submit one item and how to recover a dead
worker; the loop owns everything else:

* rounds of *submit pending items, drain under the deadline, recover a
  broken worker, back off*, up to :attr:`RetryPolicy.max_attempts`
  rounds per rung;
* a rung that cannot finish its items **degrades** to the next, carrying
  only the unfinished ones — completed results are never recomputed.
  Fallback ladders end in a fault-free inline rung, so under any fault
  plan a solve terminates with the correct answer or a deliberate
  error;
* one :class:`~repro.resilience.Deadline` covers every rung: waits are
  sliced from the remaining budget, injected faults run inside the
  rung's own tasks, and expiry raises
  :class:`~repro.errors.KernelTimeoutError` (``completed``/``total``
  item metadata, counting every item already resolved) without joining
  stragglers; leaving a rung reaps its workers and releases its shared
  segments.

Item values are opaque to the loop: each caller's solver returns
whatever its caller demuxes (a ``(distances, indices)`` pair, a
:class:`~repro.core.neighbors.KnnResult`, a task's return value).

A ladder of one rung run for one round cannot recover anything: it
fails on the first error (a dead worker as :class:`BackendError`) and
records nothing under ``resilience.*``. Every other ladder counts its
recovery — ``resilience.solves``, ``retries``, ``fallbacks`` (and
``fallbacks.<rung>``), ``chunks_recovered``, ``degraded_solves`` — and
opens one ``resilience.rung`` span per rung it reaches.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from typing import Any, Callable, Hashable, Mapping, Sequence

from ..core.workers import serial_kernels
from ..errors import BackendError
from ..obs import trace as _trace
from ..obs.context import current_request, request_scope
from ..obs.metrics import get_registry as _get_registry
from .deadline import Deadline
from .retry import RetryPolicy, is_retryable

__all__ = [
    "Rung",
    "ThreadRung",
    "InlineRung",
    "run_ladder",
    "daemon_tasks_running",
]

#: Poll cap for waits under a deadline, seconds. Bounds how stale a
#: deadline check can get while every in-flight item is stuck.
_WAIT_SLICE = 0.05

#: Opens a rung's in-process solver: called once in the caller's thread
#: when the rung is entered, it returns ``solve(key, item) -> value``.
SolverFactory = Callable[[], Callable[[Any, Any], Any]]


class Rung:
    """One step of a fallback ladder.

    ``submit`` returns a future resolving to ``(value, obs_payload)`` —
    the payload is a worker process's span/metric deltas, ``None``
    in-process. ``recover`` brings back the workers of the items whose
    futures failed with ``BrokenProcessPool``. A rung is entered around
    the rounds it serves; leaving it must not wait on stragglers.
    """

    name = "rung"

    def submit(self, key: Hashable, item: Any, attempt: int) -> Future:
        raise NotImplementedError

    def recover(self, keys: set) -> None:
        """Bring back dead workers. No-op by default."""

    def __enter__(self) -> "Rung":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


#: Items running on daemon threads, across every pool of the process.
_running = 0
_running_lock = threading.Lock()


def daemon_tasks_running() -> int:
    """Items still running on daemon threads, abandoned ones included.

    Once a caller is done, any such item was abandoned on a deadline
    and may sit inside BLAS: a process that exits under it should skip
    its exit handlers (BLAS's own among them), as the CLI does.
    """
    return _running


class _DaemonPool:
    """At most ``workers`` daemon threads draining one task queue.

    ``ThreadPoolExecutor`` joins its threads at interpreter exit, so an
    item abandoned on a deadline would keep the process alive until it
    finished. A daemon thread is not joined: a process whose solve hit
    its deadline exits as soon as it is done with its own work.
    """

    def __init__(self, workers: int) -> None:
        self._workers = workers
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._threads: list[threading.Thread] = []

    def submit(self, fn: Callable, *args: Any) -> Future:
        future: Future = Future()
        self._tasks.put((future, fn, args))
        if len(self._threads) < self._workers:
            thread = threading.Thread(target=self._drain, daemon=True)
            thread.start()
            self._threads.append(thread)
        return future

    def _drain(self) -> None:
        global _running
        while True:
            task = self._tasks.get()
            if task is None:
                return
            future, fn, args = task
            if not future.set_running_or_notify_cancel():
                continue
            with _running_lock:
                _running += 1
            try:
                future.set_result(fn(*args))
            except BaseException as exc:
                future.set_exception(exc)
            finally:
                with _running_lock:
                    _running -= 1

    def shutdown(self) -> None:
        """Cancel queued tasks and stop idle threads; never waits."""
        while True:
            try:
                task = self._tasks.get_nowait()
            except queue.Empty:
                break
            if task is not None:
                task[0].cancel()
        for _ in self._threads:
            self._tasks.put(None)


class ThreadRung(Rung):
    """Items solved on daemon threads in the calling process.

    ``fault(key, attempt)``, when given, fires the injected fault for an
    item inside its task, so a slow fault is bounded by the same wait as
    the solve.
    """

    name = "threads"

    def __init__(
        self,
        open_solver: SolverFactory,
        workers: int,
        fault: Callable[[Any, int], None] | None = None,
    ) -> None:
        self._open_solver = open_solver
        self._workers = workers
        self._fault = fault

    def __enter__(self) -> "ThreadRung":
        self._solve = self._open_solver()
        # pool threads do not inherit the request ContextVar
        self._ctx = current_request()
        self._pool = _DaemonPool(self._workers)
        return self

    def submit(self, key, item, attempt):
        return self._pool.submit(self._run, key, item, attempt)

    def _run(self, key, item, attempt):
        # the rung is the fan-out: kernels inside an item stay serial
        with request_scope(self._ctx), serial_kernels():
            if self._fault is not None:
                self._fault(key, attempt)
            return self._solve(key, item), None

    def __exit__(self, *exc: object) -> None:
        # no waiting on stragglers: a slow item must not hold the
        # deadline error, the next rung or the process exit hostage
        self._pool.shutdown()


class InlineRung(Rung):
    """Items solved one at a time in the calling thread, never
    fault-injected: the rung of last resort must be able to finish."""

    name = "serial"

    def __init__(self, open_solver: SolverFactory) -> None:
        self._open_solver = open_solver

    def __enter__(self) -> "InlineRung":
        self._solve = self._open_solver()
        return self

    def submit(self, key, item, attempt):
        future: Future = Future()
        try:
            future.set_result((self._solve(key, item), None))
        except Exception as exc:
            future.set_exception(exc)
        return future


def run_ladder(
    items: Mapping[Hashable, Any],
    rungs: Sequence[Rung],
    *,
    retry: RetryPolicy,
    deadline: Deadline | None = None,
) -> dict[Hashable, Any]:
    """Solve every item on the first rung that can; ``{key: value}``.

    Raises the first non-retryable error as-is, ``KernelTimeoutError``
    when ``deadline`` expires, and — when every rung has failed an item
    — that item's last error, a dead worker translated to
    :class:`BackendError`.
    """
    from ..shard.transport import _absorb_worker_obs

    pending = dict(items)
    total = len(pending)
    results: dict[Hashable, Any] = {}
    # this round's submitted, not yet drained futures
    in_flight: dict[Future, Hashable] = {}
    attempts = dict.fromkeys(pending, 0)
    errors: dict[Hashable, BaseException] = {}
    recovers = len(rungs) > 1 or retry.max_attempts > 1
    registry = _get_registry()
    counting = registry.enabled and recovers
    tracer = _trace.get_tracer()

    def progress() -> dict[str, int]:
        # an inline rung resolves items inside ``submit``, before any
        # drain records them
        resolved = sum(
            1
            for future in in_flight
            if future.done()
            and not future.cancelled()
            and future.exception() is None
        )
        return {"completed": len(results) + resolved, "total": total}

    def submit(rung: Rung, key, item) -> Future:
        if deadline is not None and deadline.expired():
            deadline.raise_expired(f"{rung.name} submit", **progress())
        if attempts[key] and counting:
            registry.inc("resilience.retries")
        try:
            return rung.submit(key, item, attempts[key])
        except Exception as exc:
            # e.g. a pool that broke earlier this round: recover it
            # like any other failed item
            future: Future = Future()
            future.set_exception(exc)
            return future

    def drain(rung: Rung) -> set:
        parent_id = tracer.current_span_id()
        broken: set = set()
        not_done = set(in_flight)
        while not_done:
            if deadline is not None and deadline.expired():
                for future in not_done:
                    future.cancel()
                deadline.raise_expired(f"{rung.name} wait", **progress())
            done, not_done = wait(
                not_done,
                timeout=None if deadline is None else deadline.timeout(
                    cap=_WAIT_SLICE
                ),
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                key = in_flight.pop(future)
                try:
                    value, obs = future.result()
                except BrokenProcessPool as exc:
                    broken.add(key)
                    attempts[key] += 1
                    errors[key] = exc
                except Exception as exc:
                    if not is_retryable(exc):
                        raise
                    attempts[key] += 1
                    errors[key] = exc
                else:
                    _absorb_worker_obs(obs, parent_id)
                    results[key] = value
                    del pending[key]
        return broken

    degraded = False
    for index, rung in enumerate(rungs):
        if not pending:
            break
        degraded = index > 0
        if degraded and counting:
            registry.inc("resilience.fallbacks")
            registry.inc(f"resilience.fallbacks.{rung.name}")
        span = (
            tracer.span(
                "resilience.rung",
                backend=rung.name,
                pending=len(pending),
                degraded=degraded,
            )
            if recovers
            else nullcontext()
        )
        with span, rung:
            for round_ in range(retry.max_attempts):
                for key, item in pending.items():
                    in_flight[submit(rung, key, item)] = key
                broken = drain(rung)
                if broken:
                    rung.recover(broken)
                if not pending or round_ == retry.max_attempts - 1:
                    break
                retry.sleep(round_, deadline)
    if pending:
        exc = errors[next(iter(pending))]
        if isinstance(exc, BrokenProcessPool):
            raise BackendError(
                f"{rungs[-1].name} rung: a worker process died before "
                f"returning its result (killed, out-of-memory, or a crash "
                f"in native code); {len(pending)}/{total} items unfinished"
            ) from exc
        raise exc
    if counting:
        registry.inc("resilience.solves")
        recovered = sum(1 for key in results if attempts[key])
        if recovered:
            registry.inc("resilience.chunks_recovered", recovered)
        if degraded:
            registry.inc("resilience.degraded_solves")
    return results
