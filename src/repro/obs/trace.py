"""Span-based structured tracing for the kNN kernels.

The paper's analysis is phase-level — ``T_coll + T_gemm + T_sq2d +
T_heap`` — but a flat phase timer cannot express *where inside the loop
nest* time goes (which 6th-loop block, which variant, nested pack inside
gemm inside gsknn). :class:`Tracer` records **nested timed spans** with
attributes, cheap enough to leave compiled into the hot paths:

* disabled (the default), ``tracer.span(...)`` returns a shared no-op
  context manager — one attribute read and one method call, **zero
  allocations** per use;
* enabled, each span records ``(name, start, duration, thread, depth,
  parent)`` plus user attributes, appended under a lock so concurrent
  kernel threads can share one tracer.

Cross-process traces: span ids embed the recording pid (``pid << 32 |
counter``) so buffers merged from process-pool workers can never
collide with the parent's ids. Workers serialize their buffer with
:meth:`Tracer.export_payload` and ship it back alongside chunk results;
the caller folds it in with :meth:`Tracer.adopt_payload`, which
re-anchors timestamps onto the local epoch (``perf_counter`` is
CLOCK_MONOTONIC on Linux, shared across processes) and re-parents
worker roots under the driver span — one Chrome trace, every worker on
its own pid lane.

Spans opened but never closed (a worker crashed mid-chunk, an export
taken from inside a live solve) are not lost and never raise: exports
emit them as *incomplete* events flagged ``"incomplete": true``, and
:meth:`Tracer.aggregate` skips them rather than counting a duration
that never finished.

Exports:

* :meth:`Tracer.export_chrome` — the ``chrome://tracing`` / Perfetto
  JSON object format (complete "X" events, microsecond timestamps);
* :meth:`Tracer.export_jsonl` — one flat JSON event per line, for
  grep/jq pipelines;
* :meth:`Tracer.aggregate` — per-name call count and total seconds, the
  bridge from a trace to a Table-5-style phase breakdown.

A process-global tracer (:func:`get_tracer`) is what the instrumented
kernels use; :func:`enable_tracing` / :func:`disable_tracing` flip it.
Sampling: ``Tracer(sample_every=N)`` records only every Nth span, so a
benchmark loop can stay instrumented without tracing every iteration.
When a :class:`~repro.obs.context.RequestContext` is active, every
recorded span automatically carries a ``request_id`` attribute.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from ..errors import ValidationError
from .context import current_request_id

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "enable_tracing",
    "disable_tracing",
    "span",
]

#: Span ids are ``pid << _PID_SHIFT | per-process counter`` — globally
#: unique across every process that ever contributes to one merged trace.
_PID_SHIFT = 32
_COUNTER_MASK = (1 << _PID_SHIFT) - 1


@dataclass(frozen=True)
class Span:
    """One completed span. Times are seconds on the tracer's clock."""

    span_id: int
    parent_id: int  # -1 for roots
    name: str
    start: float
    duration: float
    thread: int
    depth: int
    attrs: dict[str, Any] = field(default_factory=dict)
    pid: int = 0
    incomplete: bool = False  # opened but never closed (crash, live export)

    @property
    def end(self) -> float:
        return self.start + self.duration

    def to_event(self) -> dict[str, Any]:
        """Flat JSONL shape (seconds, repo-native keys)."""
        event = {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "ts": self.start,
            "dur": self.duration,
            "tid": self.thread,
            "depth": self.depth,
            "pid": self.pid,
        }
        if self.attrs:
            event["attrs"] = self.attrs
        if self.incomplete:
            event["incomplete"] = True
        return event

    def to_chrome_event(self) -> dict[str, Any]:
        """Chrome trace "complete" event (microsecond timestamps).

        The recording process becomes the pid lane; a ``lane`` attr (an
        int — used for simulated ranks) overrides the tid lane so
        logically-parallel actors inside one thread separate visually.
        """
        args = dict(self.attrs)
        tid = self.thread
        lane = args.get("lane")
        if isinstance(lane, int):
            tid = lane
        if self.incomplete:
            args["incomplete"] = True
        return {
            "name": self.name,
            "ph": "X",
            "ts": self.start * 1e6,
            "dur": self.duration * 1e6,
            "pid": self.pid,
            "tid": tid,
            "args": args,
        }


class _NullSpan:
    """Shared no-op context manager — the disabled-tracer hot path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    """An open span; closing it appends a :class:`Span` to the tracer."""

    __slots__ = (
        "_tracer", "name", "attrs", "_start", "_id", "_parent", "_depth",
        "_forced_parent",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: dict[str, Any],
        forced_parent: int | None = None,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._forced_parent = forced_parent

    def __enter__(self) -> "_LiveSpan":
        tracer = self._tracer
        stack = tracer._stack()
        if stack:
            self._parent = stack[-1]
        elif self._forced_parent is not None:
            self._parent = self._forced_parent
        else:
            self._parent = -1
        self._depth = len(stack)
        self._start = tracer.clock()
        self._id = tracer._open_span(self)
        stack.append(self._id)
        return self

    def __exit__(self, *exc: object) -> None:
        tracer = self._tracer
        duration = tracer.clock() - self._start
        stack = tracer._stack()
        if stack and stack[-1] == self._id:
            stack.pop()
        tracer._record(
            Span(
                span_id=self._id,
                parent_id=self._parent,
                name=self.name,
                start=self._start - tracer.epoch,
                duration=duration,
                thread=threading.get_ident() & 0xFFFF,
                depth=self._depth,
                attrs=self.attrs,
                pid=tracer.pid,
            )
        )


class Tracer:
    """Thread-safe nested-span recorder with near-zero disabled overhead."""

    def __init__(
        self,
        *,
        enabled: bool = False,
        sample_every: int = 1,
        clock=time.perf_counter,
        pid: int | None = None,
    ) -> None:
        if sample_every < 1:
            raise ValidationError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.enabled = bool(enabled)
        self.sample_every = int(sample_every)
        self.clock = clock
        self.epoch = clock()
        self.pid = os.getpid() if pid is None else int(pid)
        self._explicit_pid = pid is not None
        self._spans: list[Span] = []
        self._open: dict[int, _LiveSpan] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._counter = 0
        # Unsynchronized sampling counter: approximate under threads,
        # which is fine — sampling is a rate, not an exact stride.
        self._sample_tick = 0

    # -- recording --------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Open a span. Returns a context manager.

        Disabled tracers return a shared no-op instance: no allocation,
        no clock read. This is THE hot-path contract the kernels rely on.
        """
        if not self.enabled:
            return _NULL_SPAN
        return self.span_under(None, name, **attrs)

    def span_under(self, parent_id: int | None, name: str, **attrs: Any):
        """A span explicitly parented under ``parent_id``.

        Thread-pool workers record on the shared tracer but on their own
        per-thread stacks, so their first span would otherwise become a
        root; the submitting thread passes its current span id here to
        keep the tree connected. The parent applies only when this
        thread has no open span, and a ``None`` parent degrades to a
        plain :meth:`span`. Sampled like :meth:`span`.
        """
        if not self.enabled:
            return _NULL_SPAN
        if self.sample_every > 1:
            self._sample_tick += 1
            if self._sample_tick % self.sample_every:
                return _NULL_SPAN
        rid = current_request_id()
        if rid is not None and "request_id" not in attrs:
            attrs["request_id"] = rid
        return _LiveSpan(self, name, attrs, forced_parent=parent_id)

    def annotate(self, **attrs: Any) -> None:
        """Add attributes to the innermost open span on *this* thread.

        For a decision taken inside a span that was opened before the
        decision's inputs were known (the kernel's worker count).
        """
        if not self.enabled:
            return
        stack = self._stack()
        if not stack:
            return
        with self._lock:
            live = self._open.get(stack[-1])
        if live is not None:
            live.attrs.update(attrs)

    def current_span_id(self) -> int | None:
        """Id of the innermost open span on *this* thread, or ``None``."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _open_span(self, live: _LiveSpan) -> int:
        """Allocate a globally-unique id and register the open span."""
        with self._lock:
            pid = os.getpid()
            if pid != self.pid and not self._explicit_pid:
                # Forked child inherited this tracer: adopt the new pid
                # so ids minted here never collide with the parent's.
                self.pid = pid
            self._counter += 1
            sid = (self.pid << _PID_SHIFT) | (self._counter & _COUNTER_MASK)
            self._open[sid] = live
            return sid

    def _next_id(self) -> int:
        """Allocate a globally-unique span id (pid-prefixed counter)."""
        with self._lock:
            self._counter += 1
            return (self.pid << _PID_SHIFT) | (self._counter & _COUNTER_MASK)

    def _record(self, span: Span) -> None:
        with self._lock:
            self._open.pop(span.span_id, None)
            self._spans.append(span)

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._open.clear()
            self._counter = 0
        self.epoch = self.clock()

    # -- reading ----------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        """Completed spans, in completion order (children before parents)."""
        with self._lock:
            return list(self._spans)

    def open_spans(self) -> list[Span]:
        """Spans opened but not yet (or never) closed, as incomplete
        :class:`Span` snapshots with duration measured up to *now*."""
        now = self.clock()
        with self._lock:
            live = list(self._open.items())
        out = []
        for sid, ls in live:
            start = getattr(ls, "_start", now)
            out.append(
                Span(
                    span_id=sid,
                    parent_id=getattr(ls, "_parent", -1),
                    name=ls.name,
                    start=start - self.epoch,
                    duration=max(now - start, 0.0),
                    thread=0,
                    depth=getattr(ls, "_depth", 0),
                    attrs=dict(ls.attrs),
                    pid=self.pid,
                    incomplete=True,
                )
            )
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per-name totals: ``{name: {count, total_seconds, self_seconds}}``.

        ``self_seconds`` excludes time covered by the span's own children
        — the phase-breakdown view (summing self times over a tree equals
        the root's wall clock, so the table's rows add up). Incomplete
        spans (opened, never closed) are skipped: their durations never
        finished, so counting them would inflate the table.
        """
        spans = [s for s in self.spans if not s.incomplete]
        child_time: dict[int, float] = {}
        for s in spans:
            if s.parent_id != -1:
                child_time[s.parent_id] = (
                    child_time.get(s.parent_id, 0.0) + s.duration
                )
        out: dict[str, dict[str, float]] = {}
        for s in spans:
            row = out.setdefault(
                s.name, {"count": 0, "total_seconds": 0.0, "self_seconds": 0.0}
            )
            row["count"] += 1
            row["total_seconds"] += s.duration
            row["self_seconds"] += max(
                s.duration - child_time.get(s.span_id, 0.0), 0.0
            )
        return out

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent_id == -1]

    def children_of(self, span_id: int) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span_id]

    # -- cross-process shipping -------------------------------------------

    def export_payload(self, *, clear: bool = True) -> dict[str, Any] | None:
        """Serialize this tracer's buffer for shipping to another process.

        Returns ``None`` when there is nothing to ship. Completed spans
        and still-open spans (flagged incomplete) are both included, so
        a worker that dies between chunks still accounts for the span it
        was inside. ``epoch`` rides along so the receiver can re-anchor
        timestamps onto its own clock origin.
        """
        incomplete = self.open_spans()
        with self._lock:
            done = list(self._spans)
            if clear:
                self._spans.clear()
        if not done and not incomplete:
            return None
        return {
            "pid": self.pid,
            "epoch": self.epoch,
            "events": [s.to_event() for s in done + incomplete],
        }

    def adopt_payload(
        self, payload: dict[str, Any] | None, *, parent_id: int | None = None
    ) -> int:
        """Fold a worker's :meth:`export_payload` into this tracer.

        * timestamps shift by the epoch delta (both clocks are
          CLOCK_MONOTONIC, so worker spans land at their true position
          on the caller's timeline);
        * worker roots (``parent == -1``) re-parent under ``parent_id``
          (the driver span), connecting the merged tree;
        * ids are pid-prefixed so collisions cannot happen by
          construction; as defense-in-depth any incoming id that *does*
          collide with an already-recorded one is remapped to a fresh
          local id (parent links inside the payload follow the remap).

        Returns the number of spans adopted.
        """
        if not payload:
            return 0
        events = payload.get("events") or []
        if not events:
            return 0
        offset = float(payload.get("epoch", self.epoch)) - self.epoch
        default_pid = int(payload.get("pid", 0))
        with self._lock:
            existing = {s.span_id for s in self._spans}
        remap: dict[int, int] = {}
        for e in events:
            if e["id"] in existing:
                remap[e["id"]] = self._next_id()
        adopted = []
        for e in events:
            parent = e.get("parent", -1)
            parent = remap.get(parent, parent)
            if parent == -1 and parent_id is not None:
                parent = parent_id
            adopted.append(
                Span(
                    span_id=remap.get(e["id"], e["id"]),
                    parent_id=parent,
                    name=e["name"],
                    start=float(e["ts"]) + offset,
                    duration=float(e["dur"]),
                    thread=int(e.get("tid", 0)),
                    depth=int(e.get("depth", 0)) + (parent_id is not None),
                    attrs=e.get("attrs") or {},
                    pid=int(e.get("pid", default_pid)),
                    incomplete=bool(e.get("incomplete", False)),
                )
            )
        with self._lock:
            self._spans.extend(adopted)
        return len(adopted)

    # -- export -----------------------------------------------------------

    def to_chrome(self, *, include_incomplete: bool = True) -> dict[str, Any]:
        """The ``chrome://tracing`` JSON object (load in Perfetto too).

        Open spans are emitted as incomplete events (never an error): a
        trace taken after a worker crash still shows where the crash
        happened.
        """
        spans = self.spans
        if include_incomplete:
            spans = spans + self.open_spans()
        return {
            "traceEvents": [s.to_chrome_event() for s in spans],
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro-gsknn", "format_version": 1},
        }

    def export_chrome(self, path: str | Path) -> Path:
        """Write the Chrome trace JSON; returns the path written."""
        path = Path(path)
        path.write_text(json.dumps(self.to_chrome(), indent=1, sort_keys=True))
        return path

    def export_jsonl(self, path: str | Path) -> Path:
        """Write one flat JSON event per line (grep/jq-friendly)."""
        path = Path(path)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_event(), sort_keys=True) + "\n")
            for s in self.open_spans():
                fh.write(json.dumps(s.to_event(), sort_keys=True) + "\n")
        return path

    def iter_events(self) -> Iterator[dict[str, Any]]:
        for s in self.spans:
            yield s.to_event()


#: Process-global tracer the instrumented kernels report to. Disabled by
#: default — the kernels pay one attribute check per span site.
_GLOBAL_TRACER = Tracer()


def get_tracer() -> Tracer:
    return _GLOBAL_TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the global tracer (tests use this to isolate); returns the old."""
    global _GLOBAL_TRACER
    old, _GLOBAL_TRACER = _GLOBAL_TRACER, tracer
    return old


def enable_tracing(*, sample_every: int = 1) -> Tracer:
    """Enable the global tracer (fresh buffer) and return it."""
    tracer = get_tracer()
    tracer.clear()
    tracer.sample_every = int(sample_every)
    tracer.enable()
    return tracer


def disable_tracing() -> Tracer:
    tracer = get_tracer()
    tracer.disable()
    return tracer


def span(name: str, **attrs: Any):
    """Open a span on the global tracer — the kernels' one-liner hook."""
    return _GLOBAL_TRACER.span(name, **attrs)
