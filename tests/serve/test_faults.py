"""Fault injection at window granularity: retries absorb faults,
exhausted retries surface them, ambient plans are picked up."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InjectedFault
from repro.resilience.faults import FAULT_PLAN_ENV, FaultPlan
from repro.serve import KnnQueryService, ServeConfig
from repro.serve.service import _WINDOW_ATTEMPTS


def _find_seed(crash: float, pattern) -> int:
    """A seed whose deterministic dice match ``pattern(decisions)`` for
    window 1 — probed, not hardcoded, so the tests don't depend on the
    hash function's exact output."""
    for seed in range(5000):
        plan = FaultPlan(seed=seed, crash=crash)
        decisions = [
            plan.decide("serve.window", 1, attempt)
            for attempt in range(_WINDOW_ATTEMPTS)
        ]
        if pattern(decisions):
            return seed
    raise AssertionError("no matching seed in probe range")  # pragma: no cover


@pytest.fixture
def recover_seed() -> int:
    # crash on attempt 0, clean on attempt 1: one retry saves the window
    return _find_seed(
        0.5, lambda d: d[0] == "crash" and d[1] is None
    )


@pytest.fixture
def exhaust_seed() -> int:
    # crash on every attempt: bounded retry must give up and surface it
    return _find_seed(0.97, lambda d: all(x == "crash" for x in d))


class TestWindowRetry:
    def test_faulted_window_retries_and_serves(self, table, recover_seed, metrics):
        plan = FaultPlan(seed=recover_seed, crash=0.5)
        with KnnQueryService(table, fault_plan=plan) as svc:
            res = svc.submit([3], 2).result(timeout=30)
        assert res.m == 1 and res.k == 2
        counters = metrics.snapshot()["counters"]
        assert counters.get("resilience.retries", 0) >= 1
        assert counters.get("resilience.faults_injected.crash", 0) >= 1

    def test_exhausted_retries_fail_requests_explicitly(
        self, table, exhaust_seed, metrics
    ):
        plan = FaultPlan(seed=exhaust_seed, crash=0.97)
        with KnnQueryService(table, fault_plan=plan) as svc:
            handle = svc.submit([3], 2, tenant="victim")
            with pytest.raises(InjectedFault):
                handle.result(timeout=30)
        counters = metrics.snapshot()["counters"]
        assert counters.get("serve.batch_failures") == 1
        assert counters.get('serve.failed{tenant="victim"}') == 1

    def test_row_requests_ride_the_same_retry_path(self, table, recover_seed, rng):
        plan = FaultPlan(seed=recover_seed, crash=0.5)
        with KnnQueryService(table, fault_plan=plan) as svc:
            res = svc.submit_rows(rng.random((2, table.shape[1])), 3).result(
                timeout=30
            )
        assert res.m == 2

    def test_slow_plan_costs_latency_not_results(self, table):
        plan = FaultPlan(seed=1, slow=1.0, slow_seconds=0.01)
        with KnnQueryService(table, fault_plan=plan) as svc:
            results = [svc.submit([i], 2) for i in range(5)]
            for h in results:
                assert h.result(timeout=30).m == 1


class TestPlanWiring:
    def test_spec_string_accepted(self, table):
        svc = KnnQueryService(table, fault_plan="seed=3,slow=1.0,slow_ms=1")
        assert svc._fault_plan is not None
        assert svc._fault_plan.seed == 3

    def test_ambient_env_plan_picked_up(self, table, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "seed=9,crash=0.25")
        svc = KnnQueryService(table)
        assert svc._fault_plan is not None
        assert svc._fault_plan.seed == 9

    def test_explicit_plan_beats_env(self, table, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "seed=9,crash=0.25")
        svc = KnnQueryService(table, fault_plan="seed=4,slow=0.5")
        assert svc._fault_plan.seed == 4

    def test_inactive_plan_disables_injection(self, table):
        svc = KnnQueryService(table, fault_plan=FaultPlan(seed=5))
        assert svc._fault_plan is None

    def test_no_plan_no_env_is_clean(self, table):
        # conftest's autouse fixture guarantees the env var is absent
        svc = KnnQueryService(table)
        assert svc._fault_plan is None
