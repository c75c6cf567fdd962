"""Fixtures for the resilience suite.

Tests that assert *exact* failure/timing semantics must not inherit an
ambient ``$REPRO_FAULT_PLAN`` (the CI fault-matrix job sets one for the
whole process): the ``clean_env`` fixture strips it. Tests that pass an
explicit ``fault_plan`` argument are immune either way — an explicit
plan always overrides the environment.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.metrics import disable_metrics, enable_metrics


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)


@pytest.fixture
def metrics():
    registry = enable_metrics()
    try:
        yield registry
    finally:
        disable_metrics()


@pytest.fixture
def cloud():
    rng = np.random.default_rng(7)
    return rng.standard_normal((420, 12))
