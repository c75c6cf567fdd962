"""``serve_open``: ``KnnQueryService`` under an open loop of small requests.

One generator (the main thread) sends requests on a seeded Poisson
schedule at a fixed rate, whatever the service is doing, so a stall
queues the requests behind it. Each request is ``ROWS`` query rows; the
requests alternate index (``submit``) and literal-row (``submit_rows``)
shapes, pick ``k`` from ``KS`` and come from two weighted tenants.
Latency is timed from each request's due time to its completion
callback, so no client threads are needed and generator lateness counts.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro import KnnResult, ref_knn
from repro.core.plan import GsknnPlan, PlanCache
from repro.errors import OverloadError
from repro.serve import KnnQueryService, ServeConfig
import repro.serve.service as service_module

from common import (
    Ledger,
    Probe,
    SpanTotals,
    counter,
    latency_metrics,
    set_obs,
    timed_setups,
)

#: At n=32768 one window cost about 4 ms, the same order as the
#: scheduler wake-up delays of a busy shared host, and median latency
#: spread 23-53% across seeds there. At n=262144 a window of one 4-row
#: request costs about 25 ms with one BLAS thread on a 2-core x86 host,
#: so a few milliseconds of wake-up delay no longer set the median.
N, D = 262144, 16
ROWS = 4
KS = (10, 32)
#: Offered load, requests per second: the dispatcher is busy about a
#: fifth of the time, so latency follows the per-window cost instead of
#: the queue. Over five seeds the median latency spread 6-7% of its
#: median at this rate and 9-10% at 10 and 12 requests per second.
RATE = 6.0
#: The latency limit ``slo_met_frac`` counts against: about ten windows.
SLO_MS = 250.0
#: Per-request deadline given to the service; a request still queued
#: past it expires and counts as failed.
DEADLINE_MS = 1000.0
TENANTS = ("interactive", "bulk")
WEIGHTS = {"interactive": 3, "bulk": 1}
#: Every CHECK_EVERY-th request is compared with the ``ref_knn`` oracle,
#: CHECK_BATCH requests per oracle call (its distance matrix is
#: CHECK_BATCH * ROWS * N doubles: 32 MiB).
CHECK_EVERY = 5
CHECK_BATCH = 4
#: Services built before the timed loop and, in untraced runs, again
#: after it, so the set-up median covers two moments of the host's load.
SETUP_REPEATS = 15
#: Traced runs alternate untraced and traced blocks of this length.
BLOCK_S = 1.0
DRAIN_TIMEOUT_S = 60.0


def _config() -> ServeConfig:
    return ServeConfig(slo_ms=DEADLINE_MS, tenant_weights=WEIGHTS)


def run(name: str, seed: int, seconds: float, trace: bool):
    rng = np.random.default_rng(seed)
    X = rng.random((N, D))
    r_all = np.arange(N)
    ledger = Ledger()

    # The whole schedule is drawn before anything is timed: a Poisson
    # process conditioned on sending exactly RATE * seconds requests.
    count = int(RATE * seconds)
    dues = np.sort(rng.uniform(0.0, seconds, count))
    # Each (shape, k) pair costs differently (index requests with k=32
    # about 30% more than literal rows with k=10), so each gets exactly
    # a quarter of the requests: a seeded mix would move the median.
    ks = np.array([KS[(i // 2) % 2] for i in range(count)])
    tenants = [str(t) for t in rng.choice(TENANTS, count)]
    q_ids = rng.integers(0, N, size=(count, ROWS))
    q_rows = rng.random((count, ROWS, D))

    def build():
        svc = KnnQueryService(X, _config()).start()
        warm = [
            svc.submit(rng.integers(0, N, ROWS), KS[0]),
            svc.submit_rows(rng.random((ROWS, D)), KS[0]),
        ]
        for handle in warm:
            handle.result()
        return svc

    setup_times, svc = timed_setups(build, lambda s: s.stop(), SETUP_REPEATS)
    probe = Probe()
    if trace:
        probe.wrap(service_module, "gsknn_batch", "batch.solve", keep_result=True)
        probe.wrap(GsknnPlan, "execute", "plan.execute")
        probe.wrap(GsknnPlan, "execute_rows", "plan.execute_rows", keep_result=True)
        probe.wrap(PlanCache, "get", "plan.get", keep_result=True)
    spans = SpanTotals()
    done: list = [None] * count
    handles: list = [None] * count
    late = np.zeros(count)
    submit_s = np.zeros(count)
    before = svc.stats()

    def on_done(i):
        def record(future):
            done[i] = (time.perf_counter(), future)

        return record

    try:
        t_start = time.perf_counter() + 0.005
        traced_now = False
        for i in range(count):
            due = t_start + dues[i]
            if trace and traced_now != (int(dues[i] / BLOCK_S) % 2 == 1):
                traced_now = not traced_now
                set_obs(traced_now)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            t_sub = time.perf_counter()
            late[i] = t_sub - due
            try:
                if i % 2 == 0:
                    handle = svc.submit(q_ids[i], ks[i], tenant=tenants[i])
                else:
                    handle = svc.submit_rows(q_rows[i], ks[i], tenant=tenants[i])
            except OverloadError:
                ledger.attempted += 1
                ledger.fail("shed at admission")
                continue
            submit_s[i] = time.perf_counter() - t_sub
            ledger.attempted += 1
            handles[i] = handle
            handle.future.add_done_callback(on_done(i))
        for handle in handles:
            if handle is not None:
                handle.future.exception(timeout=DRAIN_TIMEOUT_S)
        if trace:
            set_obs(False)
        after = svc.stats()
    finally:
        svc.stop()
        probe.close()
    if trace:
        spans.absorb()

    latencies, answered_rows, last_done = [], 0, t_start
    for i in range(count):
        if done[i] is None:
            continue
        t_done, future = done[i]
        if future.exception() is not None:
            ledger.fail(f"request failed: {type(future.exception()).__name__}")
            continue
        latencies.append(t_done - (t_start + dues[i]))
        answered_rows += ROWS
        last_done = max(last_done, t_done)
    _check(X, r_all, q_ids, q_rows, ks, done, ledger)

    if not trace:
        later_times, svc = timed_setups(build, lambda s: s.stop(), SETUP_REPEATS)
        svc.stop()
        metrics = {
            "setup_s": statistics.median(setup_times[1:] + later_times),
            "rows_per_s": answered_rows / (last_done - t_start),
            **latency_metrics(latencies, count, SLO_MS),
        }
        return metrics, ledger, {"requests": count, "rate": RATE}

    windows = after["windows"] - before["windows"]
    served = after["completed"] - before["completed"]
    solves = after["solve_calls"] - before["solve_calls"]
    solve_calls = probe.calls["batch.solve"] + probe.calls["plan.execute_rows"]
    solve_s = sum(c[1] for c in solve_calls)
    plans = [c[2] for c in probe.calls["plan.get"]]
    hits = len(plans) - len({id(p) for p in plans})
    traced_requests = sum(
        1 for i in range(count) if int(dues[i] / BLOCK_S) % 2 == 1
    )
    layers = {
        "gsknn.gather_ms": spans.self_ms("pack") / traced_requests,
        "gsknn.tile_ms": spans.self_ms("rank_update") / traced_requests,
        "gsknn.select_ms": spans.self_ms("heap") / traced_requests,
        "plan.execute_ms": probe.mean_ms("plan.execute", "plan.execute_rows"),
        "plan.lookup_us": 1e3 * probe.mean_ms("plan.get"),
        "plan.cache_hit_frac": hits / len(plans) if plans else 0.0,
        "plan.unchanged_returns": counter("plan.unchanged_returns"),
        "plan.warm_starts": counter("plan.warm_starts"),
        "batch.solve_ms": probe.mean_ms("batch.solve"),
        "serve.submit_us": 1e6 * float(np.median(submit_s[submit_s > 0])),
        "serve.window_rows": served * ROWS / windows,
        "serve.coalescing_ratio": served / solves,
        "serve.overhead_ms": 1e3 * (np.mean(latencies) - solve_s / windows),
        "serve.gen_late_ms": 1e3 * float(late.max()),
        "trace.overhead_frac": _overhead(solve_calls, t_start),
    }
    return layers, ledger, {"requests": count, "rate": RATE}


def _overhead(solve_calls, t_start: float) -> float:
    """1 - traced / untraced rows per second spent inside solve calls."""
    rows = {False: 0, True: 0}
    busy = {False: 0.0, True: 0.0}
    for start, seconds, result in solve_calls:
        traced = int((start - t_start) / BLOCK_S) % 2 == 1
        results = result if isinstance(result, list) else [result]
        rows[traced] += sum(r.indices.shape[0] for r in results)
        busy[traced] += seconds
    return 1.0 - (rows[True] / busy[True]) / (rows[False] / busy[False])


def _check(X, r_all, q_ids, q_rows, ks, done, ledger: Ledger) -> None:
    """Compare every CHECK_EVERY-th answered request with ``ref_knn``.

    CHECK_EVERY is odd, so checked requests alternate between the index
    and the literal-row shape. They are grouped by shape and ``k`` and
    solved by the oracle CHECK_BATCH requests at a time; literal rows are
    appended to a copy of the table so ``ref_knn`` can address them.
    """
    groups: dict[tuple[bool, int], list[int]] = {}
    for i in range(0, len(done), CHECK_EVERY):
        if done[i] is not None and done[i][1].exception() is None:
            groups.setdefault((i % 2 == 1, int(ks[i])), []).append(i)
    for (is_rows, k), members in groups.items():
        for lo in range(0, len(members), CHECK_BATCH):
            batch = members[lo : lo + CHECK_BATCH]
            if is_rows:
                table = np.vstack([X, q_rows[batch].reshape(-1, X.shape[1])])
                q_idx = np.arange(X.shape[0], table.shape[0])
            else:
                table, q_idx = X, q_ids[batch].ravel()
            want = ref_knn(table, q_idx, r_all, k)
            for j, i in enumerate(batch):
                rows = slice(j * ROWS, (j + 1) * ROWS)
                ledger.check(
                    done[i][1].result(),
                    KnnResult(want.distances[rows], want.indices[rows]),
                    "submit_rows" if is_rows else "submit",
                )
