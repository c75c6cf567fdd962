"""Shared pieces of the layer-ledger benchmark.

* :func:`latency_metrics` — the latency metrics every workload reports;
* :func:`timed_setups` — the median of several fresh constructions;
* :class:`Probe` — times calls into a layer's public functions by
  wrapping them in place for the length of a traced run (nothing inside
  ``src/`` changes);
* :class:`SpanTotals` / :func:`obs` — read the program's own span
  aggregates and metric counters while observability is switched on;
* :class:`Ledger` — attempted/failed/checked tallies plus the oracle
  comparison every workload runs on its answers.
"""

from __future__ import annotations

import contextlib
import functools
import resource
import time

import numpy as np

from repro import KnnResult, ref_knn
from repro.obs import get_registry, get_tracer

#: Distance tolerance of the repository's oracle comparisons.
DIST_ATOL = 1e-9


def latency_metrics(latencies: list[float], sent: int, slo_ms: float) -> dict:
    """Latency percentiles (linear interpolation) over completed ops, in
    ms, plus the share of the ``sent`` ops that completed within
    ``slo_ms`` (the rest missed)."""
    ms = 1e3 * np.asarray(latencies)
    p50, p90, p99 = np.percentile(ms, [50, 90, 99])
    return {
        "latency_p50_ms": float(p50),
        "latency_p90_ms": float(p90),
        "latency_p99_ms": float(p99),
        "slo_met_frac": int((ms <= slo_ms).sum()) / sent,
    }


def peak_rss_mib() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def timed_setups(build, teardown, repeats: int):
    """Build ``repeats`` times; return ``(seconds of each build, last
    object)``. Every object but the last is torn down untimed.

    The first build of a process pays one-off costs (lazy imports, first
    touches) that a long-lived program pays once: callers leave it out
    of the median.
    """
    times, obj = [], None
    for i in range(repeats):
        t0 = time.perf_counter()
        obj = build()
        times.append(time.perf_counter() - t0)
        if i < repeats - 1:
            teardown(obj)
    return times, obj


class Probe:
    """Wraps public functions in place and records every call.

    Each record is ``(start, seconds, result)``; ``keep_result`` decides
    whether the result is retained (plan identities for cache hits).
    ``close`` restores the originals.
    """

    def __init__(self) -> None:
        self.calls: dict[str, list[tuple[float, float, object]]] = {}
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, keep_result=False) -> None:
        original = getattr(owner, attr)
        records = self.calls.setdefault(name, [])

        @functools.wraps(original)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = original(*args, **kwargs)
            records.append(
                (t0, time.perf_counter() - t0, result if keep_result else None)
            )
            return result

        setattr(owner, attr, timed)
        self._undo.append((owner, attr, original))

    def mean_ms(self, *names: str) -> float:
        samples = [r[1] for name in names for r in self.calls.get(name, [])]
        return 1e3 * sum(samples) / len(samples) if samples else 0.0

    def close(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class SpanTotals:
    """Per-name span totals summed over several tracer aggregates."""

    def __init__(self) -> None:
        self.rows: dict[str, dict[str, float]] = {}

    def absorb(self) -> None:
        """Fold the global tracer's current buffer in, then clear it."""
        tracer = get_tracer()
        for name, row in tracer.aggregate().items():
            mine = self.rows.setdefault(
                name, {"count": 0, "total_seconds": 0.0, "self_seconds": 0.0}
            )
            for key, value in row.items():
                mine[key] += value
        tracer.clear()

    def self_ms(self, name: str) -> float:
        return 1e3 * self.rows.get(name, {}).get("self_seconds", 0.0)

    def total_ms(self, name: str) -> float:
        return 1e3 * self.rows.get(name, {}).get("total_seconds", 0.0)

    def count(self, name: str) -> int:
        return int(self.rows.get(name, {}).get("count", 0))


def reset_obs() -> None:
    """Empty the tracer and registry, leaving both switched off."""
    tracer = get_tracer()
    tracer.disable()
    tracer.clear()
    registry = get_registry()
    registry.enabled = False
    registry.clear()


def set_obs(on: bool) -> None:
    """Switch the global tracer and metrics registry on or off.

    Buffers are kept (not cleared) so counters accumulate over every
    traced block of a run.
    """
    get_tracer().enabled = on
    get_registry().enabled = on


@contextlib.contextmanager
def obs():
    """Observability on for the length of a block."""
    set_obs(True)
    try:
        yield
    finally:
        set_obs(False)


def counter(name: str) -> float:
    """An unlabeled counter from the global registry (0 if never hit)."""
    return get_registry().snapshot()["counters"].get(name, 0)


class Ledger:
    """What a run attempted, what failed, and how its answers checked out."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checked_ids = 0
        self.matched_ids = 0
        self.problems: list[str] = []

    def fail(self, why: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(why)

    def check(self, got, want, what: str) -> None:
        """Compare two KnnResults row for row: ids equal, distances close."""
        ids_equal = got.indices == want.indices
        self.checked_ids += ids_equal.size
        self.matched_ids += int(ids_equal.sum())
        if not (
            ids_equal.all()
            and np.allclose(got.distances, want.distances, rtol=0.0, atol=DIST_ATOL)
        ):
            self.fail(f"{what}: result differs from the oracle")

    def check_rows(self, X, q_idx, r_idx, k, got, rows, what: str) -> None:
        """Check ``rows`` of an index-query result against ``ref_knn``."""
        want = ref_knn(X, q_idx[rows], r_idx, k)
        self.check(KnnResult(got.distances[rows], got.indices[rows]), want, what)

    @property
    def recall(self) -> float:
        return self.matched_ids / self.checked_ids if self.checked_ids else 0.0

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.checked_ids > 0
