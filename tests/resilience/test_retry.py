"""RetryPolicy backoff arithmetic and retryability classification."""

from __future__ import annotations

import pytest

from repro.errors import (
    BackendError,
    InjectedFault,
    KernelTimeoutError,
    ValidationError,
)
from repro.resilience import RetryPolicy, is_retryable
from repro.resilience.deadline import Deadline


class TestPolicy:
    def test_defaults_valid(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3

    def test_validation(self):
        with pytest.raises(ValidationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValidationError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(ValidationError):
            RetryPolicy(backoff_factor=0.5)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            backoff_base=0.01, backoff_factor=2.0, backoff_cap=0.05
        )
        assert policy.backoff(0) == pytest.approx(0.01)
        assert policy.backoff(1) == pytest.approx(0.02)
        assert policy.backoff(2) == pytest.approx(0.04)
        assert policy.backoff(3) == 0.05  # capped
        assert policy.backoff(10) == 0.05

    def test_sleep_clamps_to_deadline(self):
        policy = RetryPolicy(backoff_base=10.0, backoff_cap=10.0)

        class Clock:
            t = 0.0

            def __call__(self):
                return self.t

        clock = Clock()
        deadline = Deadline(0.001, clock=clock)
        clock.t = 0.0005
        slept = policy.sleep(0, deadline)
        assert slept <= 0.001

    def test_sleep_zero_after_expiry(self):
        class Clock:
            t = 0.0

            def __call__(self):
                return self.t

        clock = Clock()
        deadline = Deadline(0.001, clock=clock)
        clock.t = 1.0
        assert RetryPolicy().sleep(0, deadline) == 0.0


class TestClassification:
    def test_retryable(self):
        assert is_retryable(InjectedFault("x"))
        assert is_retryable(BackendError("worker died"))
        assert is_retryable(MemoryError())
        assert is_retryable(OSError("shm"))

    def test_not_retryable(self):
        assert not is_retryable(ValidationError("bad k"))
        assert not is_retryable(
            KernelTimeoutError("deadline", budget=1.0, elapsed=2.0)
        )
