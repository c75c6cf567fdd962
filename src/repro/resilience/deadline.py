"""Wall-clock budgets for long-running solves.

A :class:`Deadline` is an absolute point on a monotonic clock, created
from a relative budget and passed *down* the call stack — through
:func:`repro.parallel.scheduler.execute_schedule`, the shard router,
:meth:`repro.distributed.solver.DistributedAllKnn.solve`, and the wait
loops of :func:`repro.resilience.executor.run_ladder` under them — so
that every layer slices its waits from the same shrinking budget
instead of each inventing its own timeout.

Expiry raises :class:`repro.errors.KernelTimeoutError` (never a hang):
the checking site attaches *partial-result metadata* (how many items
completed, where the budget died) so callers can distinguish "almost
done" from "never started". Enforcement is cooperative — checks happen
between items and at pool waits — so the guarantee is expiry within
one item's runtime past the budget, not preemption mid-GEMM.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable

from ..errors import KernelTimeoutError, ValidationError
from ..obs.metrics import get_registry as _get_registry

__all__ = ["Deadline"]


class Deadline:
    """A monotonic-clock budget shared by every layer of one solve.

    Parameters
    ----------
    seconds:
        Relative budget from *now*. ``math.inf`` (or ``None`` via
        :meth:`coerce`) means unlimited — every check is a no-op.
    clock:
        Injectable time source (tests pin expiry without sleeping).
    """

    __slots__ = ("budget", "_clock", "_t0")

    def __init__(
        self,
        seconds: float,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        seconds = float(seconds)
        if not seconds > 0:  # also rejects NaN
            raise ValidationError(
                f"deadline budget must be > 0 seconds, got {seconds}"
            )
        self.budget = seconds
        self._clock = clock
        self._t0 = clock()

    @classmethod
    def after(cls, seconds: float, **kwargs: Any) -> "Deadline":
        """Explicit-name alias for the constructor: a budget from now."""
        return cls(seconds, **kwargs)

    @classmethod
    def coerce(cls, value: "Deadline | float | None") -> "Deadline | None":
        """Accept a ready :class:`Deadline`, a budget in seconds, or ``None``."""
        if value is None or isinstance(value, Deadline):
            return value
        return cls(float(value))

    # -- state ---------------------------------------------------------------

    @property
    def unlimited(self) -> bool:
        return math.isinf(self.budget)

    def elapsed(self) -> float:
        return self._clock() - self._t0

    def remaining(self) -> float:
        """Seconds left; negative once expired, ``inf`` when unlimited."""
        return self.budget - self.elapsed()

    def expired(self) -> bool:
        return self.remaining() <= 0

    def timeout(self, cap: float | None = None) -> float | None:
        """A value for ``wait(timeout=...)``: remaining budget, >= 0.

        ``None`` when unlimited (block forever), optionally capped so
        pollers can interleave other bookkeeping.
        """
        if self.unlimited:
            return cap
        left = max(self.remaining(), 0.0)
        return left if cap is None else min(left, cap)

    # -- enforcement ---------------------------------------------------------

    def check(self, site: str = "", **partial: Any) -> None:
        """Raise :class:`KernelTimeoutError` if the budget is exhausted.

        ``partial`` keyword metadata (e.g. ``completed=7, total=12``)
        rides on the exception so the caller learns how far the solve
        got. Counts a ``resilience.deadline_hits`` metric on expiry.
        """
        if not self.expired():
            return
        self.raise_expired(site, **partial)

    def raise_expired(self, site: str = "", **partial: Any) -> None:
        """Unconditionally raise the expiry error (wait loops that
        already observed a timeout call this directly).

        When a :class:`~repro.obs.context.RequestContext` is active its
        request id rides on the exception's partial metadata (and labels
        the ``resilience.deadline_hits`` counter), so a timeout surfaced
        to a caller is attributable to the request that overran."""
        from ..obs.context import current_request

        elapsed = self.elapsed()
        ctx = current_request()
        if ctx is not None:
            partial.setdefault("request_id", ctx.request_id)
        registry = _get_registry()
        if registry.enabled:
            labels = {"tenant": ctx.tenant} if ctx is not None else None
            registry.inc("resilience.deadline_hits", labels=labels)
        where = f" at {site}" if site else ""
        detail = ""
        if partial:
            detail = " (" + ", ".join(
                f"{k}={v}" for k, v in sorted(partial.items())
            ) + ")"
        raise KernelTimeoutError(
            f"deadline of {self.budget:.3f}s exceeded{where}: "
            f"{elapsed:.3f}s elapsed{detail}",
            budget=self.budget,
            elapsed=elapsed,
            site=site or None,
            partial=partial,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Deadline(budget={self.budget:.3f}s, "
            f"remaining={self.remaining():.3f}s)"
        )
