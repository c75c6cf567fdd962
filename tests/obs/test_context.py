"""RequestContext: id generation, scoping, coercion, span tagging."""

from __future__ import annotations

import os
import threading

from repro.obs.context import (
    RequestContext,
    bind_request,
    coerce_request,
    current_request,
    current_request_id,
    new_request_id,
    request_scope,
)
from repro.obs.trace import Tracer


class TestRequestContext:
    def test_new_generates_unique_pid_prefixed_ids(self):
        a, b = RequestContext.new(), RequestContext.new()
        assert a.request_id != b.request_id
        prefix = f"req-{os.getpid():x}-"
        assert a.request_id.startswith(prefix)
        assert b.request_id.startswith(prefix)

    def test_defaults(self):
        ctx = RequestContext.new()
        assert ctx.tenant == "default"
        assert ctx.deadline is None

    def test_with_deadline_returns_new_context(self):
        ctx = RequestContext.new(tenant="t")
        bounded = ctx.with_deadline(1.5)
        assert bounded is not ctx
        assert bounded.request_id == ctx.request_id
        assert bounded.tenant == "t"
        assert bounded.deadline == 1.5
        assert ctx.deadline is None

    def test_new_request_id_monotonic_suffix(self):
        first, second = new_request_id(), new_request_id()
        assert first != second


class TestCoercion:
    def test_context_passes_through(self):
        ctx = RequestContext.new()
        assert coerce_request(ctx) is ctx

    def test_string_becomes_context(self):
        ctx = coerce_request("req-abc")
        assert isinstance(ctx, RequestContext)
        assert ctx.request_id == "req-abc"

    def test_none_stays_none(self):
        assert coerce_request(None) is None


class TestScoping:
    def test_scope_sets_and_restores(self):
        assert current_request() is None
        ctx = RequestContext.new()
        with request_scope(ctx):
            assert current_request() is ctx
            assert current_request_id() == ctx.request_id
        assert current_request() is None

    def test_none_scope_is_noop(self):
        outer = RequestContext.new()
        with request_scope(outer):
            with request_scope(None):
                # a None scope must not clear the ambient request: callers
                # forward their (possibly absent) request argument blindly
                assert current_request() is outer

    def test_nested_scopes_shadow(self):
        outer, inner = RequestContext.new(), RequestContext.new()
        with request_scope(outer):
            with request_scope(inner):
                assert current_request() is inner
            assert current_request() is outer

    def test_scope_restores_on_exception(self):
        ctx = RequestContext.new()
        try:
            with request_scope(ctx):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert current_request() is None

    def test_threads_do_not_inherit_scope(self):
        # a fresh thread starts with an empty contextvars context: worker
        # pools must capture + rebind explicitly (ThreadRung does)
        seen: list = []
        ctx = RequestContext.new()
        with request_scope(ctx):
            t = threading.Thread(target=lambda: seen.append(current_request()))
            t.start()
            t.join()
        assert seen == [None]

    def test_bind_request_is_permanent_for_thread(self):
        seen: list = []
        ctx = RequestContext.new()

        def worker():
            bind_request(ctx)
            seen.append(current_request())

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert seen == [ctx]
        assert current_request() is None  # the binding stayed in its thread


class TestSpanTagging:
    def test_spans_auto_carry_request_id(self):
        tracer = Tracer(enabled=True)
        ctx = RequestContext.new()
        with request_scope(ctx):
            with tracer.span("inside"):
                pass
        with tracer.span("outside"):
            pass
        spans = {s.name: s for s in tracer.spans}
        assert spans["inside"].attrs["request_id"] == ctx.request_id
        assert "request_id" not in spans["outside"].attrs

    def test_explicit_request_id_attr_wins(self):
        tracer = Tracer(enabled=True)
        with request_scope(RequestContext.new()):
            with tracer.span("s", request_id="req-custom"):
                pass
        assert tracer.spans[0].attrs["request_id"] == "req-custom"

    def test_span_under_carries_request_id(self):
        tracer = Tracer(enabled=True)
        ctx = RequestContext.new()
        with request_scope(ctx):
            with tracer.span_under(None, "forced"):
                pass
        assert tracer.spans[0].attrs["request_id"] == ctx.request_id
