"""Request context: one id that follows a solve everywhere it goes.

The observability layer answers "where did request X spend its time?"
only if every span, counter label, and error produced on behalf of a
caller carries the same identifier — across thread pools, process
workers, retry rungs, and simulated ranks. :class:`RequestContext` is
that identifier plus the two things a serving front-end attaches to it:
a tenant tag (for per-tenant accounting) and a deadline handle (so the
budget travels with the request instead of being re-threaded through
every signature).

Propagation uses :mod:`contextvars`, with two deliberate caveats:

* **threads do not inherit context** — pools must capture the current
  context at submission time and re-enter it in the worker (see
  :func:`bind_request`, ``ThreadRung`` in ``resilience/executor.py``
  and ``RowWorkers`` in ``core/workers.py``);
* **process workers cannot share a ContextVar** — the spec shipped to
  the worker initializer (``_shard_worker_init`` in
  ``shard/transport.py``) carries ``request_id``/``tenant`` and the
  worker re-binds them for its whole lifetime.

The context is intentionally tiny and dependency-free: ``deadline`` is
typed loosely so this module never imports the resilience layer.
"""

from __future__ import annotations

import contextvars
import itertools
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Iterator

__all__ = [
    "RequestContext",
    "new_request_id",
    "current_request",
    "current_request_id",
    "request_scope",
    "bind_request",
    "coerce_request",
]

# Monotone per-process sequence; combined with the pid it makes request
# ids unique across a whole host without any coordination.
_SEQ = itertools.count(1)


def new_request_id() -> str:
    """A host-unique request id: ``req-<pid>-<seq>``."""
    return f"req-{os.getpid():x}-{next(_SEQ):04x}"


@dataclass(frozen=True)
class RequestContext:
    """Identity and budget of one caller-visible operation.

    Attributes
    ----------
    request_id:
        Correlates spans, metric labels, and errors end to end.
    tenant:
        Accounting tag; ``"default"`` when single-tenant.
    deadline:
        Optional :class:`repro.resilience.Deadline`. Carried by
        reference so every layer slices the same shrinking budget;
        never serialized across process boundaries (workers receive
        only id + tenant).
    """

    request_id: str
    tenant: str = "default"
    deadline: Any = None

    @classmethod
    def new(
        cls, *, tenant: str = "default", deadline: Any = None
    ) -> "RequestContext":
        return cls(request_id=new_request_id(), tenant=tenant, deadline=deadline)

    def with_deadline(self, deadline: Any) -> "RequestContext":
        return replace(self, deadline=deadline)


_REQUEST: contextvars.ContextVar[RequestContext | None] = contextvars.ContextVar(
    "repro_request", default=None
)


def current_request() -> RequestContext | None:
    """The active request context, or ``None`` outside any scope."""
    return _REQUEST.get()


def current_request_id() -> str | None:
    """Convenience for span/label sites: the id alone, or ``None``."""
    ctx = _REQUEST.get()
    return ctx.request_id if ctx is not None else None


@contextmanager
def request_scope(ctx: RequestContext | None) -> Iterator[RequestContext | None]:
    """Enter a request scope; ``None`` is a no-op (nested calls inherit).

    Scopes nest: an inner solve issued on behalf of the same request
    simply does not open a new scope and inherits the outer id.
    """
    if ctx is None:
        yield None
        return
    token = _REQUEST.set(ctx)
    try:
        yield ctx
    finally:
        _REQUEST.reset(token)


def bind_request(ctx: RequestContext | None) -> None:
    """Bind a context for the rest of this thread/process lifetime.

    Worker entry points (process pool initializers, long-lived lane
    threads) use this instead of :func:`request_scope` because there is
    no enclosing frame to unwind to.
    """
    _REQUEST.set(ctx)


def coerce_request(value: "RequestContext | str | None") -> RequestContext | None:
    """Accept a ready context, a bare request-id string, or ``None``."""
    if value is None or isinstance(value, RequestContext):
        return value
    return RequestContext(request_id=str(value))
