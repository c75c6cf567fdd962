"""FaultPlan: grammar, determinism, and the three fault kinds."""

from __future__ import annotations

import time

import pytest

from repro.errors import InjectedFault, ValidationError
from repro.resilience import FaultPlan
from repro.resilience.faults import _unit


class TestGrammar:
    def test_full_spec(self):
        plan = FaultPlan.parse(
            "seed=7,crash=0.3,slow=0.2,slow_ms=20,alloc=0.1"
        )
        assert plan.seed == 7
        assert plan.crash == 0.3
        assert plan.slow == 0.2
        assert plan.alloc == 0.1
        assert plan.slow_seconds == pytest.approx(0.02)

    def test_whitespace_and_empty_parts_tolerated(self):
        plan = FaultPlan.parse(" seed=3 , crash=0.5 ,, ")
        assert plan.seed == 3 and plan.crash == 0.5

    def test_slow_s_alias(self):
        assert FaultPlan.parse("slow_s=0.5").slow_seconds == 0.5

    @pytest.mark.parametrize(
        "bad",
        ["crash", "bogus=1", "crash=lots", "crash=1.5", "seed=x", "slow=-0.1"],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValidationError):
            FaultPlan.parse(bad)

    def test_spec_round_trips(self):
        plan = FaultPlan.parse(
            "seed=9,crash=0.25,slow=0.5,slow_ms=35,alloc=0.1"
        )
        assert FaultPlan.parse(plan.spec()) == plan

    def test_coerce(self):
        assert FaultPlan.coerce(None) is None
        plan = FaultPlan(crash=0.1)
        assert FaultPlan.coerce(plan) is plan
        assert FaultPlan.coerce("crash=0.1").crash == 0.1

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("REPRO_FAULT_PLAN", "seed=4,alloc=0.2")
        plan = FaultPlan.from_env()
        assert plan.seed == 4 and plan.alloc == 0.2

    def test_active(self):
        assert not FaultPlan().active
        assert FaultPlan(crash=0.1).active


class TestDeterminism:
    def test_unit_hash_is_stable(self):
        a = _unit(7, "crash", "chunk", 128, 0)
        b = _unit(7, "crash", "chunk", 128, 0)
        assert a == b
        assert 0.0 <= a < 1.0

    def test_decisions_repeat_exactly(self):
        plan = FaultPlan(seed=11, crash=0.3, slow=0.3, alloc=0.2)
        sites = [("chunk", s, a) for s in range(0, 512, 64) for a in range(3)]
        first = [plan.decide(*site) for site in sites]
        second = [plan.decide(*site) for site in sites]
        assert first == second
        assert any(first)  # at these rates something must fire

    def test_attempt_rolls_fresh_dice(self):
        plan = FaultPlan(seed=0, crash=0.5)
        decisions = {
            plan.decide("chunk", 64, attempt) for attempt in range(12)
        }
        assert decisions == {None, "crash"}  # both outcomes occur

    def test_rate_zero_never_fires(self):
        plan = FaultPlan(seed=3)
        assert all(
            plan.decide("chunk", key, a) is None
            for key in range(100)
            for a in range(2)
        )


class TestApply:
    def test_crash_raises_injected_fault(self):
        plan = FaultPlan(crash=1.0)
        with pytest.raises(InjectedFault):
            plan.apply("chunk", 0, 0)

    def test_alloc_raises_memory_error(self):
        plan = FaultPlan(seed=0, alloc=1.0)
        with pytest.raises(MemoryError):
            plan.apply("chunk", 1, 0)

    def test_slow_sleeps(self):
        plan = FaultPlan(seed=0, slow=1.0, slow_seconds=0.03)
        t0 = time.perf_counter()
        plan.apply("chunk", 1, 0)
        assert time.perf_counter() - t0 >= 0.025

    def test_counters(self, metrics):
        plan = FaultPlan(crash=1.0)
        with pytest.raises(InjectedFault):
            plan.apply("chunk", 0, 0)
        counters = metrics.snapshot()["counters"]
        assert counters["resilience.faults_injected"] == 1
        assert counters["resilience.faults_injected.crash"] == 1
