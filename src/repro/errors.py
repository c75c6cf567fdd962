"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors (``TypeError`` and friends still propagate).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ValidationError(ReproError, ValueError):
    """An input array or parameter failed validation.

    Subclasses ``ValueError`` so existing ``except ValueError`` call sites
    keep working.
    """


class ConfigurationError(ReproError, ValueError):
    """A configuration object is internally inconsistent.

    Raised e.g. when blocking parameters do not satisfy the constraints of
    the Goto partitioning (``m_r`` must divide into ``m_c`` panels, cache
    capacities must be positive, ...).
    """


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solver failed to reach its target within its budget."""


class BackendError(ReproError, RuntimeError):
    """An execution backend failed mid-flight.

    Raised e.g. when a shard or rank worker process dies (OOM-kill,
    segfault in a native extension) — the pool's low-level
    ``BrokenProcessPool`` is translated into this library error so
    callers see one clean failure instead of a hang or a foreign
    exception type.

    On a one-rung, one-attempt ladder this is terminal. Under a
    fallback ladder (:mod:`repro.resilience`) the same condition is
    instead handled per item: only the failed items are resubmitted,
    then degraded to the next rung, and ``BackendError`` only escapes
    once every rung of the ladder is exhausted.
    """


class KernelTimeoutError(ReproError, TimeoutError):
    """A solve exceeded its :class:`repro.resilience.Deadline`.

    Raised instead of hanging: the executor stops dispatching new work,
    reaps worker processes, and unlinks shared-memory segments before
    this propagates. Subclasses ``TimeoutError`` so generic timeout
    handling keeps working.

    Attributes
    ----------
    budget:
        The deadline budget in seconds (``None`` if unknown).
    elapsed:
        Seconds elapsed on the deadline's clock when the budget was
        found exhausted.
    site:
        Where the expiry was detected (e.g. ``"processes wait"``,
        ``"comm.recv"``, ``"schedule task"``).
    partial:
        Free-form progress metadata — for chunked solves a dict with
        ``completed`` / ``total`` chunk counts, so callers can reason
        about how far the solve got before the budget ran out.
    """

    def __init__(
        self,
        message: str,
        *,
        budget: float | None = None,
        elapsed: float | None = None,
        site: str | None = None,
        partial: dict | None = None,
    ) -> None:
        super().__init__(message)
        self.budget = budget
        self.elapsed = elapsed
        self.site = site
        self.partial = dict(partial) if partial else {}


class MemoryBudgetError(ReproError, MemoryError):
    """A solve would exceed its :class:`repro.MemoryBudget`.

    Raised *before* the offending allocation happens: the budget is
    checked when a workspace buffer would grow (or when a plan decides
    a variant's intermediates cannot fit), so a budgeted run fails with
    a clean library error instead of driving the host into swap or an
    OOM kill. Subclasses ``MemoryError`` so generic out-of-memory
    handling keeps working.

    Attributes
    ----------
    limit:
        The configured budget in bytes (``None`` if unknown).
    requested:
        Bytes the denied reservation asked for.
    used:
        Bytes already reserved against the budget at denial time.
    site:
        Where the denial happened (e.g. ``"arena:tile"``,
        ``"plan variant#6 scores"``).
    """

    def __init__(
        self,
        message: str,
        *,
        limit: int | None = None,
        requested: int | None = None,
        used: int | None = None,
        site: str | None = None,
    ) -> None:
        super().__init__(message)
        self.limit = limit
        self.requested = requested
        self.used = used
        self.site = site


class OverloadError(ReproError, RuntimeError):
    """The serving front-end shed a request at admission.

    Raised by :meth:`repro.serve.KnnQueryService.submit` when the
    admission queue is at its configured bound: accepting more work
    would only grow queue delay past every SLO (congestion collapse),
    so the service rejects *explicitly* and tells the caller when to
    come back. Shed requests never enter the queue — nothing is
    silently dropped.

    Attributes
    ----------
    retry_after:
        Estimated seconds until the queue has drained enough to accept
        again (from the measured batch service rate); ``None`` when the
        service has no estimate yet.
    queue_depth:
        The queue depth observed at rejection.
    tenant:
        The tenant whose request was shed.
    """

    def __init__(
        self,
        message: str,
        *,
        retry_after: float | None = None,
        queue_depth: int | None = None,
        tenant: str | None = None,
    ) -> None:
        super().__init__(message)
        self.retry_after = retry_after
        self.queue_depth = queue_depth
        self.tenant = tenant


class InjectedFault(ReproError, RuntimeError):
    """A failure deliberately injected by a :class:`repro.resilience.FaultPlan`.

    Only ever raised when a fault plan is active (tests, the CI
    fault-matrix job, ``--fault-plan`` experiments). The retry machinery
    treats it exactly like a real worker failure; seeing it escape to
    user code means recovery was disabled or exhausted.
    """
