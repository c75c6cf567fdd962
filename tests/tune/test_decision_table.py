"""Unit tests for the (d, k) variant decision table."""

from __future__ import annotations

import pytest

from repro.core.variants import Variant
from repro.errors import ValidationError
from repro.obs.trace import Tracer, set_tracer
from repro.tune import DecisionTable


class TestDecisionTable:
    def test_from_model_covers_grid(self):
        table = DecisionTable.from_model(
            1024, 1024, [16, 64], [4, 64, 512]
        )
        assert len(table.choices) == 6
        assert table.source == "model"

    def test_model_table_monotone_in_k(self):
        """Along each d row the choice flips at most once, VAR1 -> VAR6."""
        table = DecisionTable.from_model(
            8192, 8192, [16, 64, 256], [4, 16, 64, 256, 1024, 4096]
        )
        for d in table.d_grid:
            row = [table.choices[(d, k)] for k in table.k_grid]
            assert row == sorted(row)

    def test_lookup_nearest_gridpoint(self):
        table = DecisionTable.from_model(8192, 8192, [16, 256], [4, 2048])
        assert table.lookup(20, 5) == Variant(table.choices[(16, 4)])
        assert table.lookup(300, 1500) == Variant(table.choices[(256, 2048)])

    def test_lookup_skipped_gridpoint_falls_back(self):
        # k_grid contains a k > n which is skipped at build time
        table = DecisionTable.from_model(128, 128, [16], [4, 64, 512])
        assert (16, 512) not in table.choices
        assert table.lookup(16, 512) in (Variant.VAR1, Variant.VAR6)

    def test_empty_lookup_rejected(self):
        table = DecisionTable(4, 4, [1], [1])
        with pytest.raises(ValidationError):
            table.lookup(1, 1)

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            DecisionTable(4, 4, [], [1])
        with pytest.raises(ValidationError):
            DecisionTable(4, 4, [4, 2], [1])

    def test_round_trip(self, tmp_path):
        table = DecisionTable.from_model(1024, 1024, [16, 64], [4, 256])
        path = table.save(tmp_path / "table.json")
        loaded = DecisionTable.load(path)
        assert loaded.choices == table.choices
        assert loaded.d_grid == table.d_grid

    def test_load_missing(self, tmp_path):
        with pytest.raises(ValidationError):
            DecisionTable.load(tmp_path / "nope.json")

    def test_from_measurements_small(self):
        table = DecisionTable.from_measurements(
            128, 128, [8], [2, 64], repeats=1
        )
        assert set(table.choices.values()) <= {1, 6}
        assert table.source == "measured"

    def test_measured_candidates_are_traced(self):
        """Measured gridpoints are timed by the autotuner's timer: one
        ``tune_candidate`` span per variant and repeat."""
        tracer = Tracer(enabled=True)
        old = set_tracer(tracer)
        try:
            DecisionTable.from_measurements(64, 64, [8], [2, 4], repeats=2)
        finally:
            set_tracer(old)
        spans = [s for s in tracer.spans if s.name == "tune_candidate"]
        assert len(spans) == 2 * 2 * 2
        assert {(s.attrs["variant"], s.attrs["k"]) for s in spans} == {
            (1, 2), (6, 2), (1, 4), (6, 4),
        }
