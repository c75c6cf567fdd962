"""Unit tests for machine descriptions."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.machine import CacheLevel, IVY_BRIDGE, MachineParams, TINY_MACHINE


class TestCacheLevel:
    def test_n_sets(self):
        level = CacheLevel("L1", 32 * 1024, 64, 8)
        assert level.n_sets == 64

    def test_rejects_size_below_line(self):
        with pytest.raises(ConfigurationError):
            CacheLevel("L0", 32, 64)

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ConfigurationError):
            CacheLevel("L1", 1024, 48)

    def test_rejects_indivisible_associativity(self):
        with pytest.raises(ConfigurationError):
            CacheLevel("L1", 64 * 3, 64, 2)


class TestMachineParams:
    def test_paper_constants(self):
        """Figure 4's single-core numbers must be encoded exactly."""
        assert IVY_BRIDGE.flops_per_cycle == 8
        assert IVY_BRIDGE.clock_hz == 3.54e9
        assert IVY_BRIDGE.tau_b == 2.2e-9
        assert IVY_BRIDGE.tau_l == 13.91e-9
        assert IVY_BRIDGE.epsilon == 0.5
        assert IVY_BRIDGE.peak_gflops == pytest.approx(8 * 3.54)

    def test_ten_core_scaling_matches_figure4(self):
        """tau_f = 10 x 8 x 3.10e9; tau_b and tau_l at 1/5."""
        ten = IVY_BRIDGE.scaled(10, clock_hz=3.10e9)
        assert ten.peak_gflops == pytest.approx(248.0)
        assert ten.tau_b == pytest.approx(2.2e-9 / 5)
        assert ten.tau_l == pytest.approx(13.91e-9 / 5)

    def test_scaling_is_idempotent_through_base(self):
        """Scaling 10 -> 4 cores must equal scaling 1 -> 4."""
        ten = IVY_BRIDGE.scaled(10)
        four_from_ten = ten.scaled(4)
        four_direct = IVY_BRIDGE.scaled(4)
        assert four_from_ten.tau_b == pytest.approx(four_direct.tau_b)

    def test_bandwidth_saturates_at_cap(self):
        twenty = IVY_BRIDGE.scaled(20)
        ten = IVY_BRIDGE.scaled(10)
        assert twenty.tau_b == ten.tau_b  # both capped at /5
        assert twenty.tau_f > ten.tau_f   # flops keep scaling

    def test_cache_lookup(self):
        assert IVY_BRIDGE.cache("L2").size_bytes == 256 * 1024
        with pytest.raises(ConfigurationError):
            IVY_BRIDGE.cache("L9")

    def test_cache_order_enforced(self):
        with pytest.raises(ConfigurationError):
            MachineParams(
                name="bad",
                flops_per_cycle=1,
                clock_hz=1e9,
                tau_b=1e-9,
                tau_l=1e-9,
                caches=(
                    CacheLevel("L1", 2048),
                    CacheLevel("L2", 1024),
                ),
            )

    def test_epsilon_bounds(self):
        with pytest.raises(ConfigurationError):
            MachineParams(
                name="bad",
                flops_per_cycle=1,
                clock_hz=1e9,
                tau_b=1e-9,
                tau_l=1e-9,
                epsilon=1.5,
            )

    def test_tiny_machine_valid(self):
        assert TINY_MACHINE.caches[0].size_bytes < TINY_MACHINE.caches[-1].size_bytes


class TestPortability:
    """The conclusion's portability claim: a new x86 generation means new
    block sizes (derived from its caches) and constants — nothing else."""

    def test_haswell_profile(self):
        from repro.machine import HASWELL

        assert HASWELL.flops_per_cycle == 16  # FMA
        assert HASWELL.peak_gflops > IVY_BRIDGE.peak_gflops

    def test_blocking_rederives_for_new_machine(self):
        from repro.tune import select_blocking
        from repro.machine import HASWELL

        ivy = select_blocking(IVY_BRIDGE)
        hsw = select_blocking(HASWELL)
        # same L1/L2 -> same d_c and m_c; bigger L3 -> wider n_c
        assert hsw.d_c == ivy.d_c
        assert hsw.n_c > ivy.n_c

    def test_model_runs_unchanged_on_new_machine(self):
        from repro.tune import select_blocking
        from repro.machine import HASWELL
        from repro.model import PerformanceModel

        model = PerformanceModel(HASWELL, select_blocking(HASWELL))
        pred = model.predict("var1", 8192, 8192, 256, 16)
        assert 0 < pred.gflops <= HASWELL.peak_gflops
        # more flops per cycle -> higher predicted throughput at high d
        ivy_model = PerformanceModel()
        assert pred.gflops > ivy_model.predict(
            "var1", 8192, 8192, 256, 16
        ).gflops
