"""Property tests for the shared chunking helpers.

These helpers back the GEMM row partitioning and the worker counts of
the scheduler and batch drivers, so the invariants are pinned with
hypothesis rather than a handful of examples: every chunking must cover
all of ``total`` exactly once, produce no empty chunks, and keep whole
blocks.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.parallel.chunking import block_aligned_chunks, resolve_workers


def _covered(chunks):
    out = []
    for start, size in chunks:
        out.extend(range(start, start + size))
    return out


class TestBlockAlignedChunks:
    @given(st.integers(1, 500), st.integers(1, 16), st.integers(1, 64))
    def test_covers_everything_exactly_once(self, total, parts, block):
        chunks = block_aligned_chunks(total, parts, block)
        assert _covered(chunks) == list(range(total))

    @given(st.integers(1, 500), st.integers(1, 16), st.integers(1, 64))
    def test_alignment(self, total, parts, block):
        """Every chunk but the last starts and ends on a block boundary."""
        chunks = block_aligned_chunks(total, parts, block)
        for start, size in chunks[:-1]:
            assert start % block == 0
            assert size % block == 0
        assert chunks[-1][0] % block == 0

    @given(st.integers(1, 500), st.integers(1, 16), st.integers(1, 64))
    def test_no_empty_chunks(self, total, parts, block):
        assert all(s > 0 for _, s in block_aligned_chunks(total, parts, block))

    def test_validates(self):
        with pytest.raises(ValidationError):
            block_aligned_chunks(10, 2, 0)


class TestResolveWorkers:
    def test_auto_uses_cpu_count(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 6)
        assert resolve_workers("auto") == 6

    def test_auto_clamped_by_chunks(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 16)
        assert resolve_workers("auto", n_chunks=3) == 3

    def test_explicit_passthrough(self):
        assert resolve_workers(4) == 4
        assert resolve_workers(4, n_chunks=2) == 2

    def test_validates(self):
        with pytest.raises(ValidationError):
            resolve_workers(0)
        with pytest.raises(ValidationError):
            resolve_workers("many")
        with pytest.raises(ValidationError):
            resolve_workers(2.5)  # type: ignore[arg-type]
