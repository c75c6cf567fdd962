"""Admission control: bounded queue, load shedding, graceful overload."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.errors import OverloadError
from repro.serve import KnnQueryService, ServeConfig


class TestShedding:
    def test_queue_bound_sheds_with_attributes(self, table):
        """The (depth+1)-th submit into a stalled window is rejected
        synchronously, never queued."""
        config = ServeConfig(
            max_queue_depth=2, max_wait_ms=500.0, policy="fixed"
        )
        with KnnQueryService(table, config) as svc:
            handles = [svc.submit([i], 2, tenant="burst") for i in range(2)]
            with pytest.raises(OverloadError) as err:
                svc.submit([9], 2, tenant="burst")
            assert err.value.queue_depth == 2
            assert err.value.tenant == "burst"
            # no windows have completed yet, so no drain estimate exists
            assert err.value.retry_after is None
            for h in handles:
                assert h.result(timeout=30).m == 1

    def test_retry_after_measured_after_first_window(self, table):
        """Once a window has served, rejections carry a drain estimate
        derived from the measured batch service rate."""
        config = ServeConfig(
            max_queue_depth=2, max_wait_ms=400.0, policy="fixed"
        )
        with KnnQueryService(table, config) as svc:
            warm = svc.submit([0], 2)
            svc.stop()  # drains the warm-up window -> EWMAs seeded
            assert warm.result(timeout=30).m == 1
            svc.start()
            for i in range(2):
                svc.submit([i], 2)
            with pytest.raises(OverloadError) as err:
                svc.submit([5], 2)
            assert isinstance(err.value.retry_after, float)
            assert err.value.retry_after > 0

    def test_shed_counted_in_stats_and_metrics(self, table, metrics):
        config = ServeConfig(
            max_queue_depth=1, max_wait_ms=400.0, policy="fixed"
        )
        with KnnQueryService(table, config) as svc:
            svc.submit([0], 2, tenant="a")
            for _ in range(3):
                with pytest.raises(OverloadError):
                    svc.submit([1], 2, tenant="a")
            stats = svc.stats()
        assert stats["shed"] == 3
        counters = metrics.snapshot()["counters"]
        assert counters.get('serve.shed{tenant="a"}') == 3

    def test_full_queue_admits_tenant_below_its_share(self, table):
        """At the bound only a tenant already holding its weighted share
        sheds: a tenant that arrives while another fills the queue gets
        in, up to its own share."""
        config = ServeConfig(
            max_queue_depth=4,
            max_wait_ms=500.0,
            policy="fixed",
            tenant_weights={"a": 3, "b": 1},
        )
        with KnnQueryService(table, config) as svc:
            handles = [svc.submit([i], 2, tenant="a") for i in range(4)]
            with pytest.raises(OverloadError):
                svc.submit([4], 2, tenant="a")
            # b's share of the bound is 4 * 1/4 = 1 request
            handles.append(svc.submit([5], 2, tenant="b"))
            with pytest.raises(OverloadError) as err:
                svc.submit([6], 2, tenant="b")
            assert err.value.tenant == "b"
            assert err.value.queue_depth == 5
            for h in handles:
                assert h.result(timeout=30).m == 1

    def test_shed_requests_never_enter_queue(self, table):
        config = ServeConfig(
            max_queue_depth=1, max_wait_ms=400.0, policy="fixed"
        )
        with KnnQueryService(table, config) as svc:
            svc.submit([0], 2)
            with pytest.raises(OverloadError):
                svc.submit([1], 2)
            assert svc.queue_depth == 1


class TestGracefulOverload:
    def test_overload_degrades_to_explicit_rejection(self, table):
        """An open-loop burst far past the admission bound: some requests
        shed (explicitly), every admitted request completes correctly,
        and no tenant's goodput collapses to zero."""
        config = ServeConfig(
            max_queue_depth=16,
            max_batch=8,
            max_wait_ms=1.0,
            tenant_weights={"a": 2, "b": 1},
        )
        outcomes = {"a": {"ok": 0, "shed": 0}, "b": {"ok": 0, "shed": 0}}
        lock = threading.Lock()

        def blast(tenant: str, count: int):
            handles = []
            for i in range(count):
                try:
                    handles.append(
                        svc.submit([i % table.shape[0]], 2, tenant=tenant)
                    )
                except OverloadError:
                    with lock:
                        outcomes[tenant]["shed"] += 1
            for h in handles:
                res = h.result(timeout=60)
                assert res.m == 1 and res.k == 2
                with lock:
                    outcomes[tenant]["ok"] += 1

        with KnnQueryService(table, config) as svc:
            threads = [
                threading.Thread(target=blast, args=(t, 120))
                for t in ("a", "b")
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)

        total_shed = sum(o["shed"] for o in outcomes.values())
        total_ok = sum(o["ok"] for o in outcomes.values())
        assert total_ok + total_shed == 240  # nothing silently dropped
        for tenant, o in outcomes.items():
            assert o["ok"] > 0, f"tenant {tenant} starved: {outcomes}"

    def test_served_results_stay_correct_under_pressure(self, table):
        """Under a sustained burst the demuxed slices still match the
        direct kernel (spot-checked via known self-neighbors)."""
        config = ServeConfig(max_queue_depth=64, max_batch=16, max_wait_ms=1.0)
        with KnnQueryService(table, config) as svc:
            admitted = []
            for i in range(200):
                try:
                    admitted.append((i % table.shape[0], svc.submit(
                        [i % table.shape[0]], 1
                    )))
                except OverloadError:
                    pass
            assert admitted
            for idx, handle in admitted:
                res = handle.result(timeout=60)
                # k=1 against the full table: a point's nearest neighbor
                # is itself at distance ~0
                assert res.indices[0, 0] == idx
                assert res.distances[0, 0] == pytest.approx(0.0, abs=1e-9)
