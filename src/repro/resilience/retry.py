"""Bounded retry with exponential backoff.

The policy is deliberately small: a failed item is retried up to
``max_attempts`` times *per rung* of a fallback ladder (see
:mod:`repro.resilience.executor`), sleeping ``backoff_base *
backoff_factor**attempt`` (capped) between rounds. Every caller
decomposes its work before the ladder runs, so re-running an item on
a different rung cannot change the answer — the ladder trades
throughput for completion, never correctness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..errors import (
    BackendError,
    InjectedFault,
    KernelTimeoutError,
    ReproError,
    ValidationError,
)

__all__ = ["RetryPolicy", "is_retryable"]

@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry a failed item, and how long to wait.

    Parameters
    ----------
    max_attempts:
        Attempts per item *per ladder rung* (>= 1). ``1`` means no
        retry on a rung — a failure falls straight through to the next.
    backoff_base:
        Sleep before the second attempt, in seconds.
    backoff_factor:
        Multiplier per further attempt (exponential backoff).
    backoff_cap:
        Upper bound on any single sleep.
    """

    max_attempts: int = 3
    backoff_base: float = 0.01
    backoff_factor: float = 2.0
    backoff_cap: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValidationError("backoff times must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValidationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def backoff(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (0-based failed tries)."""
        return min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor ** max(attempt, 0),
        )

    def sleep(self, attempt: int, deadline=None) -> float:
        """Back off before the next round, never past the deadline.

        Returns the seconds actually slept.
        """
        duration = self.backoff(attempt)
        if deadline is not None:
            duration = min(duration, max(deadline.remaining(), 0.0))
        if duration > 0:
            time.sleep(duration)
        return duration


def is_retryable(exc: BaseException) -> bool:
    """Should an item's failure be retried / degraded rather than raised?

    Worker deaths (:class:`BackendError`), injected faults, allocation
    failures, and OS-level errors are transient-by-assumption; a
    :class:`ValidationError` or :class:`KernelTimeoutError` is not — the
    first would fail identically forever, the second *is* the budget
    enforcement and must propagate.
    """
    if isinstance(exc, (KernelTimeoutError, ValidationError)):
        return False
    return isinstance(
        exc, (InjectedFault, BackendError, ReproError, MemoryError, OSError)
    )
