"""Cross-process trace merging: pid lanes, re-parenting, request ids.

The acceptance path for the observability pipeline: a processes-backend
solve must yield ONE merged trace in the driver's tracer, with worker
spans on their own pid lanes, re-parented under the driver's ``solve``
span, and every span carrying the originating request id.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.obs.context import RequestContext, request_scope
from repro.obs.metrics import disable_metrics, enable_metrics
from repro.obs.trace import Tracer, disable_tracing, enable_tracing
from repro.parallel.data_parallel import gsknn_data_parallel


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
    return X, np.arange(240, dtype=np.intp), np.arange(420, dtype=np.intp), 5


def run_processes_solve(problem, ctx, **kwargs):
    X, q, r, k = problem
    kwargs.setdefault("p", 2)
    kwargs.setdefault("backend", "processes")
    kwargs.setdefault("chunks_per_worker", 4)
    return gsknn_data_parallel(X, q, r, k, request=ctx, **kwargs)


class TestProcessesTraceMerge:
    def test_worker_spans_land_on_distinct_pid_lanes(
        self, problem, obs, clean_env
    ):
        tracer, _ = obs
        ctx = RequestContext.new()
        run_processes_solve(problem, ctx)
        spans = tracer.spans
        workers = [s for s in spans if s.name == "worker.chunk"]
        assert len(workers) == 8  # p=2 x chunks_per_worker=4
        worker_pids = {s.pid for s in workers}
        assert os.getpid() not in worker_pids
        assert len(worker_pids) >= 2, (
            f"expected workers on >= 2 process lanes, got {worker_pids}"
        )
        driver = [s for s in spans if s.name == "solve"]
        assert len(driver) == 1
        assert driver[0].pid == os.getpid()

    def test_worker_spans_reparent_under_solve(self, problem, obs, clean_env):
        tracer, _ = obs
        run_processes_solve(problem, RequestContext.new())
        spans = tracer.spans
        solve_id = next(s.span_id for s in spans if s.name == "solve")
        for s in spans:
            if s.name == "worker.chunk":
                assert s.parent_id == solve_id

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
        worker_events = [e for e in events if e["name"] == "worker.chunk"]
        assert {e["pid"] for e in worker_events} == {
            s.pid for s in tracer.spans if s.name == "worker.chunk"
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
        # visible in the driver registry only via the shipped snapshots
        assert counters.get("gsknn.calls", 0) >= 8

    def test_results_match_serial(self, problem, obs, clean_env):
        # observability shipping must not perturb the answer (indices
        # exact; distances to FP tolerance — the 30-row chunks of this
        # trace-heavy decomposition round differently than one kernel)
        from repro.core.gsknn import gsknn

        X, q, r, k = problem
        got = run_processes_solve(problem, RequestContext.new())
        truth = gsknn(X, q, r, k)
        assert np.array_equal(got.indices, truth.indices)
        np.testing.assert_allclose(got.distances, truth.distances)


class TestFaultedRun:
    def test_retry_rung_spans_carry_request_id(self, problem, obs, clean_env):
        from repro.resilience import FaultPlan, RetryPolicy

        tracer, _ = obs
        ctx = RequestContext.new(tenant="faulted")
        run_processes_solve(
            problem,
            ctx,
            fault_plan=FaultPlan(crash_at=(0,)),
            retry=RetryPolicy(backoff_base=0.001),
        )
        rungs = [s for s in tracer.spans if s.name == "resilience.rung"]
        assert len(rungs) >= 2  # processes rung failed, a fallback ran
        for s in rungs:
            assert s.attrs.get("request_id") == ctx.request_id
        backends = {s.attrs.get("backend") for s in rungs}
        assert "processes" in backends

    def test_killed_worker_recovery_trace_exports_cleanly(
        self, problem, obs, clean_env, kill_first_worker, tmp_path
    ):
        """A killed worker leaves a merged trace that still exports: any
        span it never closed is flagged incomplete instead of raising."""
        from repro.core.gsknn import gsknn
        from repro.resilience import RetryPolicy

        tracer, _ = obs
        X, q, r, k = problem
        got = run_processes_solve(
            problem, RequestContext.new(), retry=RetryPolicy(backoff_base=0.001)
        )
        assert kill_first_worker
        truth = gsknn(X, q, r, k)
        assert np.array_equal(got.indices, truth.indices)
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
