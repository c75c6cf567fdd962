"""Unit tests for the blocking derivation and the variant decision."""

from __future__ import annotations

import pytest

from repro.core.variants import Variant
from repro.config import IVY_BRIDGE_BLOCKING
from repro.errors import ValidationError
from repro.machine.params import IVY_BRIDGE, TINY_MACHINE
from repro.tune import decide_variant, select_blocking


class TestSelectBlocking:
    def test_reproduces_paper_neighbourhood_on_ivy_bridge(self):
        """§2.4's recipe applied to the Ivy Bridge geometry must land on
        the published parameters (d_c exactly; m_c/n_c same magnitude)."""
        blk = select_blocking(IVY_BRIDGE)
        assert blk.m_r == 8 and blk.n_r == 4
        assert blk.d_c == IVY_BRIDGE_BLOCKING.d_c == 256
        assert 64 <= blk.m_c <= 128      # paper: 96-104 depending on reserve
        assert 2048 <= blk.n_c <= 16384  # paper: 4096

    def test_l1_budget_respected(self):
        blk = select_blocking(IVY_BRIDGE)
        micro_bytes = (blk.m_r + blk.n_r) * blk.d_c * 8
        assert micro_bytes <= 0.75 * IVY_BRIDGE.cache("L1").size_bytes + 8 * 8

    def test_l2_budget_respected(self):
        blk = select_blocking(IVY_BRIDGE)
        assert blk.m_c * blk.d_c * 8 <= 0.75 * IVY_BRIDGE.cache("L2").size_bytes

    def test_small_machine(self):
        blk = select_blocking(TINY_MACHINE, m_r=2, n_r=2)
        assert blk.d_c >= 8
        assert blk.m_c >= blk.m_r

    def test_requires_three_levels(self):
        from dataclasses import replace

        two_level = replace(IVY_BRIDGE, caches=IVY_BRIDGE.caches[:2])
        with pytest.raises(ValidationError):
            select_blocking(two_level)


class TestVariantSwitching:
    def test_paper_rule(self):
        """§3: Var#1 for k <= 512, Var#6 above."""
        picks = {
            k: decide_variant("paper", 8192, 8192, 64, k)
            for k in (16, 512, 513, 2048)
        }
        assert picks == {
            16: (Variant.VAR1, True),
            512: (Variant.VAR1, True),
            513: (Variant.VAR6, True),
            2048: (Variant.VAR6, True),
        }

    def test_model_selection_monotone_in_k(self):
        """Once the model prefers Var#6 at some k it must keep preferring
        it for larger k (the threshold is a single crossover)."""
        m = n = 8192
        picks = [
            decide_variant("model", m, n, 64, k)[0]
            for k in (4, 16, 64, 256, 1024, 4096)
        ]
        switched = False
        for pick in picks:
            if pick is Variant.VAR6:
                switched = True
            elif switched:
                pytest.fail("variant switched back to VAR1 at larger k")

    def test_model_prefers_var1_for_tiny_k(self):
        assert decide_variant("model", 8192, 8192, 64, 1)[0] is Variant.VAR1


class TestDecideVariant:
    @pytest.mark.parametrize(
        "spec, switch_k, want, inferred",
        [
            ("auto", None, Variant.VAR6, True),   # 300 > 256
            ("auto", 512, Variant.VAR1, True),    # a tuned switch-k
            ("model", None, Variant.VAR6, True),  # Table 4's threshold
            ("paper", None, Variant.VAR1, True),  # 300 <= 512
            (1, None, Variant.VAR1, False),
            (5, None, Variant.VAR5, False),
            (6, None, Variant.VAR6, False),
            ("var6", None, Variant.VAR6, False),
        ],
    )
    def test_every_spec(self, spec, switch_k, want, inferred):
        got = decide_variant(spec, 8192, 8192, 64, 300, switch_k=switch_k)
        assert got == (want, inferred)
        assert got[0] is want
