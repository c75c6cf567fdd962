"""Tests for the guided autotuner and the gsknn(blocking=...) hook."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gsknn import gsknn
from repro.errors import ValidationError
from repro.tune import (
    BUDGETS,
    Autotuner,
    TuneBudget,
    TunedConfig,
    load_tuned_config,
    save_tuned_config,
)

#: A deliberately tiny budget so the full two-stage search runs in
#: well under a second inside the test suite.
TINY = TuneBudget(
    name="tiny",
    m=96, n=96, d=8, k=4,
    repeats=1,
    block_candidates=(64, 128),
    switch_probes=(4, 16),
)


class TestAutotuner:
    def test_unknown_budget_rejected(self):
        with pytest.raises(ValidationError):
            Autotuner("galactic")

    def test_builtin_budgets(self):
        assert set(BUDGETS) == {"small", "medium", "large"}

    def test_run_produces_valid_config(self, tmp_path):
        report = Autotuner(TINY).run(
            persist=True, cache_path=tmp_path / "t.json"
        )
        cfg = report.config
        assert cfg.block_m in TINY.block_candidates
        assert cfg.block_n in TINY.block_candidates
        assert cfg.switch_k >= 1
        # every stage measured at least one candidate
        stages = {c["stage"] for c in report.candidates}
        assert stages == {"blocking", "switch"}
        assert report.seconds > 0
        # and the winner was persisted for blocking="tuned" to find
        assert load_tuned_config(tmp_path / "t.json") == cfg

    @pytest.mark.parametrize("first_probe", [4, 16])
    def test_var6_winning_the_first_probe_switches_below_it(
        self, monkeypatch, first_probe
    ):
        """Var#6 faster already at the smallest probe: the tuned switch
        must sit below that probe (and stay a valid ``switch_k >= 1``),
        not fall back to the untuned default far above it."""
        budget = TuneBudget(
            name="tiny", m=96, n=96, d=8, k=4, repeats=1,
            block_candidates=(64,), switch_probes=(first_probe, 32),
        )
        probes = []

        def faster(self, X, q, r, k, stage, **blocks):
            probes.append(k)
            return 6

        monkeypatch.setattr(Autotuner, "_faster_variant", faster)
        tuner = Autotuner(budget)
        X, q, r = tuner._problem(budget.d)
        switch = tuner._tune_switch_k(X, q, r, 64, 64)
        assert probes == [first_probe]
        assert 1 <= switch < first_probe
        TunedConfig(block_m=64, block_n=64, switch_k=switch)  # valid

    def test_run_without_persist(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "t.json"))
        Autotuner(TINY).run(persist=False)
        assert not (tmp_path / "t.json").exists()


class TestBlockingTuned:
    @pytest.fixture
    def cloud(self):
        return np.random.default_rng(5).random((120, 9))

    def test_tuned_blocking_used_and_results_correct(
        self, cloud, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "t.json"))
        save_tuned_config(TunedConfig(block_m=64, block_n=64, switch_k=8))
        q = np.arange(40)
        r = np.arange(120)
        want = gsknn(cloud, q, r, 6)
        got = gsknn(cloud, q, r, 6, blocking="tuned")
        np.testing.assert_allclose(want.distances, got.distances, atol=1e-12)
        np.testing.assert_array_equal(want.indices, got.indices)

    def test_missing_cache_falls_back_silently(
        self, cloud, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "absent.json"))
        q = np.arange(40)
        r = np.arange(120)
        want = gsknn(cloud, q, r, 6)
        got = gsknn(cloud, q, r, 6, blocking="tuned")
        np.testing.assert_array_equal(want.distances, got.distances)
        np.testing.assert_array_equal(want.indices, got.indices)

    def test_explicit_config_object(self, cloud):
        cfg = TunedConfig(block_m=32, block_n=32, switch_k=4)
        want = gsknn(cloud, np.arange(30), np.arange(120), 5)
        got = gsknn(cloud, np.arange(30), np.arange(120), 5, blocking=cfg)
        np.testing.assert_array_equal(want.indices, got.indices)

    def test_bad_blocking_rejected(self, cloud):
        with pytest.raises(ValidationError):
            gsknn(cloud, np.arange(10), np.arange(120), 3, blocking="fastest")

    def test_tuned_switch_k_changes_auto_variant(self, cloud, tmp_path,
                                                 monkeypatch):
        """The persisted switch_k drives variant="auto" selection."""
        from repro.tune import decide_variant

        # with the default threshold, k=8 <= 256 -> Var#1
        assert decide_variant("auto", 40, 120, 9, 8) == (1, True)
        # a tuned switch_k below k flips the choice to Var#6
        assert decide_variant("auto", 40, 120, 9, 8, switch_k=4) == (6, True)
