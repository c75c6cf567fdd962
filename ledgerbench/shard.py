"""``shard_churn``: ``ShardedAllKnn`` over worker processes, reads beside writes.

A closed loop of reads — ``solve`` of ``READ_ROWS`` fresh alive ids —
where every ``WRITE_EVERY``-th read is followed by an ``insert`` of
``WRITE_ROWS`` new rows and a ``delete`` of as many alive ids. It is the
only workload that crosses processes: shared-memory export, IPC,
scatter/gather merge and the epoch refresh every write triggers.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.shard import ShardedAllKnn

from common import (
    Ledger,
    SpanTotals,
    counter,
    latency_metrics,
    obs,
    reset_obs,
    timed_setups,
)

N, D = 32768, 16
SHARDS = 2
READ_ROWS = 256
K = 10
WRITE_EVERY = 4
WRITE_ROWS = 256
#: The latency limit ``slo_met_frac`` counts reads against.
SLO_MS = 150.0
#: Query rows of every checked read compared with ``ref_knn``.
CHECK_ROWS = 16
SETUP_REPEATS = 6
#: Traced runs alternate untraced and traced blocks of this length.
BLOCK_S = 1.0


class _Churn:
    """One sharded table and the op stream run against it."""

    def __init__(self, X, rng, ledger: Ledger) -> None:
        self.X, self.rng, self.ledger = X, rng, ledger
        self.sharded: ShardedAllKnn | None = None
        self.reads: list[float] = []
        self.first_reads: list[float] = []
        self.updates: list[float] = []
        self.tax: list[tuple[float, float]] = []
        self.busy = 0.0

    def build(self) -> ShardedAllKnn:
        """Construct over the table and solve once (spawns the workers)."""
        sharded = ShardedAllKnn(self.X, SHARDS, transport="process")
        sharded.solve(self._fresh_ids(sharded), K)
        return sharded

    def _fresh_ids(self, sharded, count: int = READ_ROWS) -> np.ndarray:
        return self.rng.choice(sharded.map.alive_ids(), count, replace=False)

    def step(self, measure_tax: bool = False) -> None:
        """One read; every WRITE_EVERY-th read then inserts and deletes.

        The first read after each write is checked: bit-identical to
        ``solve_reference`` on the same membership, and sampled rows
        equal to ``ref_knn``.
        """
        sharded, ledger = self.sharded, self.ledger
        q_idx = self._fresh_ids(sharded)
        ledger.attempted += 1
        t0 = time.perf_counter()
        got = sharded.solve(q_idx, K)
        dt = time.perf_counter() - t0
        self.reads.append(dt)
        self.busy += dt
        n_read = len(self.reads)
        if n_read % WRITE_EVERY == 1:
            self.first_reads.append(dt)
            t0 = time.perf_counter()
            want = sharded.solve_reference(q_idx, K)
            if measure_tax:
                self.tax.append((dt, time.perf_counter() - t0))
            same = np.array_equal(got.indices, want.indices) and np.array_equal(
                got.distances, want.distances
            )
            if not same:
                ledger.fail("shard solve is not bit-identical to solve_reference")
            rows = self.rng.choice(READ_ROWS, CHECK_ROWS, replace=False)
            ledger.check_rows(
                sharded.table, q_idx, sharded.map.alive_ids(), K, got, rows,
                "shard solve",
            )
        if n_read % WRITE_EVERY == 0:
            ledger.attempted += 2
            t0 = time.perf_counter()
            sharded.insert(self.rng.random((WRITE_ROWS, D)))
            t1 = time.perf_counter()
            sharded.delete(self._fresh_ids(sharded, WRITE_ROWS))
            t2 = time.perf_counter()
            self.updates += [t1 - t0, t2 - t1]
            self.busy += t2 - t0

    def close(self) -> None:
        if self.sharded is not None:
            self.sharded.close()
            self.sharded = None


def run(name: str, seed: int, seconds: float, trace: bool):
    rng = np.random.default_rng(seed)
    X = rng.random((N, D))
    ledger = Ledger()

    if not trace:
        churn = _Churn(X, rng, ledger)
        try:
            setup_times, churn.sharded = timed_setups(
                churn.build, lambda s: s.close(), SETUP_REPEATS
            )
            while churn.busy < seconds:
                churn.step()
        finally:
            churn.close()
            _stop_resource_tracker()
        metrics = {
            "setup_s": statistics.median(setup_times[1:]),
            "rows_per_s": READ_ROWS * len(churn.reads) / churn.busy,
            **latency_metrics(churn.reads, len(churn.reads), SLO_MS),
        }
        return metrics, ledger, {"reads": len(churn.reads)}

    # Traced run: two tables side by side, one whose workers were started
    # with observability off and one with it on (workers take the state
    # they are spawned with); blocks alternate between them. Each gets its
    # own op stream: rows drawn from the table's stream would duplicate
    # table rows and tie distances.
    streams = np.random.SeedSequence(seed).spawn(2)
    plain = _Churn(X, np.random.default_rng(streams[0]), ledger)
    traced = _Churn(X, np.random.default_rng(streams[1]), ledger)
    spans = SpanTotals()
    try:
        plain.sharded = plain.build()
        with obs():
            traced.sharded = traced.build()
        reset_obs()
        while plain.busy + traced.busy < seconds or not traced.reads:
            end = time.perf_counter() + BLOCK_S
            while time.perf_counter() < end:
                plain.step(measure_tax=True)
            end = time.perf_counter() + BLOCK_S
            with obs():
                while time.perf_counter() < end:
                    traced.step()
    finally:
        plain.close()
        traced.close()
        _stop_resource_tracker()
    spans.absorb()
    reads = len(traced.reads)
    writes = reads // WRITE_EVERY
    layers = {
        "gsknn.gather_ms": spans.self_ms("pack") / reads,
        "gsknn.tile_ms": spans.self_ms("rank_update") / reads,
        "gsknn.select_ms": spans.self_ms("heap") / reads,
        "plan.execute_ms": _per(
            spans.total_ms("plan.execute"), spans.count("plan.execute")
        ),
        "plan.unchanged_returns": counter("plan.unchanged_returns"),
        "plan.warm_starts": counter("plan.warm_starts"),
        "shard.solve_tax": sum(t[0] for t in plain.tax)
        / sum(t[1] for t in plain.tax),
        "shard.scatter_ms": spans.total_ms("shard.scatter") / reads,
        "shard.gather_ms": spans.total_ms("shard.gather") / reads,
        "shard.refresh_ms": _per(
            spans.total_ms("shard.refresh"), spans.count("shard.refresh")
        ),
        "shard.first_solve_after_refresh_ms": 1e3
        * float(np.median(plain.first_reads[1:])),
        "shard.update_p50_ms": 1e3 * float(np.median(plain.updates)),
        "trace.overhead_frac": 1.0
        - (len(traced.reads) / traced.busy) / (len(plain.reads) / plain.busy),
    }
    return layers, ledger, {"reads": len(plain.reads) + reads, "writes": writes}


def _stop_resource_tracker() -> None:
    """End the helper process multiprocessing starts to track shared
    memory, and wait for it, so no process outlives the run."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0
