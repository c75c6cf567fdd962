"""Cross-process trace merging: pid lanes, re-parenting, request ids.

The acceptance path for the observability pipeline: a process-sharded
solve must yield ONE merged trace in the caller's tracer, with worker
spans on their own pid lanes, re-parented under the caller's
``shard.solve_batch`` span, and every span carrying the originating
request id.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.obs.context import RequestContext, request_scope
from repro.obs.metrics import disable_metrics, enable_metrics
from repro.obs.trace import Tracer, disable_tracing, enable_tracing
from repro.shard import ShardedAllKnn


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)


@pytest.fixture
def obs():
    registry = enable_metrics()
    tracer = enable_tracing()
    try:
        yield tracer, registry
    finally:
        disable_tracing()
        disable_metrics()


@pytest.fixture
def problem():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((420, 12))
    return X, np.arange(240, dtype=np.intp), 5


def run_processes_solve(problem, ctx, batches=4, **kwargs):
    """``batches`` solves over two shard worker processes, under ``ctx``.

    The router is built inside the request scope: its workers take the
    request id (and the enabled tracer/registry) when they start.
    """
    X, q, k = problem
    with request_scope(ctx):
        with ShardedAllKnn(
            X, 2, transport="process", block_m=64, block_n=64, **kwargs
        ) as router:
            for _ in range(batches):
                got = router.solve(q, k)
            return got, router.solve_reference(q, k)


def worker_spans(tracer) -> list:
    return [
        s for s in tracer.spans
        if s.name == "shard.solve" and s.pid != os.getpid()
    ]


class TestProcessesTraceMerge:
    def test_worker_spans_land_on_distinct_pid_lanes(
        self, problem, obs, clean_env
    ):
        tracer, _ = obs
        run_processes_solve(problem, RequestContext.new())
        workers = worker_spans(tracer)
        assert len(workers) == 8  # 2 shards x 4 batches
        worker_pids = {s.pid for s in workers}
        assert len(worker_pids) >= 2, (
            f"expected workers on >= 2 process lanes, got {worker_pids}"
        )
        driver = [s for s in tracer.spans if s.name == "shard.solve_batch"]
        assert len(driver) == 4
        assert {s.pid for s in driver} == {os.getpid()}

    def test_worker_spans_reparent_under_solve(self, problem, obs, clean_env):
        tracer, _ = obs
        run_processes_solve(problem, RequestContext.new())
        by_id = {s.span_id: s for s in tracer.spans}
        for s in worker_spans(tracer):
            parent = by_id[s.parent_id]
            while parent.name != "shard.solve_batch":
                parent = by_id[parent.parent_id]
            assert parent.pid == os.getpid()

    def test_every_span_carries_the_request_id(self, problem, obs, clean_env):
        tracer, _ = obs
        ctx = RequestContext.new(tenant="suite")
        run_processes_solve(problem, ctx)
        for s in tracer.spans:
            assert s.attrs.get("request_id") == ctx.request_id, (
                f"span {s.name!r} missing request id: {s.attrs}"
            )

    def test_span_ids_globally_unique_after_merge(
        self, problem, obs, clean_env
    ):
        tracer, _ = obs
        run_processes_solve(problem, RequestContext.new())
        ids = [s.span_id for s in tracer.spans]
        assert len(ids) == len(set(ids))

    def test_chrome_export_has_worker_lanes(
        self, problem, obs, clean_env, tmp_path
    ):
        import json

        tracer, _ = obs
        run_processes_solve(problem, RequestContext.new())
        path = tracer.export_chrome(tmp_path / "trace.json")
        events = json.loads(path.read_text())["traceEvents"]
        worker_events = [
            e for e in events
            if e["name"] == "shard.solve" and e["pid"] != os.getpid()
        ]
        assert {e["pid"] for e in worker_events} == {
            s.pid for s in worker_spans(tracer)
        }
        # request ids survive into the chrome args
        assert all("request_id" in e["args"] for e in events)

    def test_worker_metrics_merge_into_driver_registry(
        self, problem, obs, clean_env
    ):
        _, registry = obs
        run_processes_solve(problem, RequestContext.new())
        counters = registry.snapshot()["counters"]
        # gsknn.calls happen only inside worker processes here; they are
        # visible in the caller's registry only via the shipped snapshots
        assert counters.get("gsknn.calls", 0) >= 8

    def test_results_match_serial(self, problem, obs, clean_env):
        # observability shipping must not perturb the answer
        got, want = run_processes_solve(problem, RequestContext.new())
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.distances, want.distances)


class TestFaultedRun:
    def test_retry_rung_spans_carry_request_id(self, problem, obs, clean_env):
        from repro.resilience import FaultPlan, RetryPolicy

        tracer, _ = obs
        ctx = RequestContext.new(tenant="faulted")
        run_processes_solve(
            problem,
            ctx,
            batches=1,
            fault_plan=FaultPlan(crash=1.0),
            retry=RetryPolicy(max_attempts=1),
        )
        rungs = [s for s in tracer.spans if s.name == "resilience.rung"]
        assert len(rungs) >= 2  # the process rung failed, a fallback ran
        for s in rungs:
            assert s.attrs.get("request_id") == ctx.request_id
        backends = {s.attrs.get("backend") for s in rungs}
        assert "process" in backends

    def test_killed_worker_recovery_trace_exports_cleanly(
        self, problem, obs, clean_env, kill_first_worker, tmp_path
    ):
        """A killed worker leaves a merged trace that still exports: any
        span it never closed is flagged incomplete instead of raising."""
        tracer, _ = obs
        got, want = run_processes_solve(problem, RequestContext.new())
        assert kill_first_worker
        np.testing.assert_array_equal(got.indices, want.indices)
        # exports and aggregation must not raise on whatever the dead
        # worker left behind
        tracer.aggregate()
        path = tracer.export_chrome(tmp_path / "crash_trace.json")
        assert path.exists()


class TestCollisionRegression:
    def test_same_pid_payloads_are_remapped(self):
        """Two tracers minting from the same (pid, counter) space — the
        pathological case the pid-prefix scheme cannot distinguish —
        must still merge without id collisions."""
        parent = Tracer(enabled=True, pid=7)
        with parent.span("driver"):
            pass
        twin = Tracer(enabled=True, pid=7)  # deliberately colliding
        with twin.span("impostor"):
            pass
        assert parent.spans[0].span_id == twin.spans[0].span_id  # the setup
        adopted = parent.adopt_payload(twin.export_payload())
        assert adopted == 1
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids))

    def test_distinct_pids_never_collide(self):
        tracers = [Tracer(enabled=True, pid=p) for p in (1, 2, 3)]
        for t in tracers:
            for i in range(50):
                with t.span(f"s{i}"):
                    pass
        parent = Tracer(enabled=True, pid=99)
        for t in tracers:
            parent.adopt_payload(t.export_payload())
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == 150
        assert len(ids) == len(set(ids))

    def test_parent_links_follow_a_remap(self):
        parent = Tracer(enabled=True, pid=5)
        with parent.span("root"):
            pass
        twin = Tracer(enabled=True, pid=5)
        with twin.span("outer"):
            with twin.span("inner"):
                pass
        parent.adopt_payload(twin.export_payload())
        spans = {s.name: s for s in parent.spans}
        assert spans["inner"].parent_id == spans["outer"].span_id


class TestIncompleteSpans:
    def test_aggregate_skips_never_ended_spans(self):
        tracer = Tracer(enabled=True)
        with tracer.span("done"):
            pass
        tracer.span("never_ends").__enter__()
        agg = tracer.aggregate()
        assert "done" in agg
        assert "never_ends" not in agg

    def test_chrome_export_flags_incomplete(self, tmp_path):
        import json

        tracer = Tracer(enabled=True)
        tracer.span("stuck", chunk=3).__enter__()
        path = tracer.export_chrome(tmp_path / "incomplete.json")
        events = json.loads(path.read_text())["traceEvents"]
        stuck = [e for e in events if e["name"] == "stuck"]
        assert len(stuck) == 1
        assert stuck[0]["args"].get("incomplete") is True

    def test_export_payload_ships_open_spans(self):
        worker = Tracer(enabled=True, pid=123)
        worker.span("mid_chunk").__enter__()
        payload = worker.export_payload()
        assert payload is not None
        (event,) = payload["events"]
        assert event["incomplete"] is True
        parent = Tracer(enabled=True)
        parent.adopt_payload(payload, parent_id=None)
        (span,) = parent.spans
        assert span.incomplete
        assert span.pid == 123
