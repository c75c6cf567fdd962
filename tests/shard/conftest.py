"""Fixtures for the sharding suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def table(rng) -> np.ndarray:
    """Odd-sized so panel boundaries leave a ragged tail panel."""
    return rng.random((300, 13))
