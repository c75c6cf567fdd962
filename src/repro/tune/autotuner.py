"""Guided per-host search over blocking and the variant switch.

The paper fixes its parameters analytically for one known machine
(Ivy Bridge, §2.4/§3). A reproduction running on arbitrary hosts cannot:
cache sizes, BLAS builds, and the Python selection-path cost all move
the optima. This module measures instead — a two-stage **guided**
search (the second stage conditions on the first stage's winner, so the
space stays tiny compared to a full grid):

1. **Blocking** — coordinate descent over ``block_m`` x ``block_n``
   (the fast path's ``m_c``/``n_c`` analogues) on a representative
   Var#1 problem, best-of-N timing.
2. **Crossover** — the empirical Var#1 <-> Var#6 switch-``k``: time both
   variants at geometric ``k`` probes and take the measured crossover,
   replacing :data:`~repro.tune.decision.NUMPY_VARIANT_SWITCH_K`.

The worker count is not searched: every kernel call deals its row
blocks to the cores the process may use (:mod:`repro.core.workers`).

Candidate timings flow through the PR-1 observability layer — every
measurement is a ``tune_candidate`` trace span and lands in the metrics
registry (``tune.candidates``, ``tune.candidate_seconds``) when
enabled — and the winner is persisted via :mod:`repro.tune.store` for
``gsknn(..., blocking="tuned")`` to pick up transparently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..config import DEFAULT_BLOCK_N
from ..errors import ValidationError
from ..obs import trace as _trace
from ..obs.metrics import get_registry as _get_registry
from .decision import NUMPY_VARIANT_SWITCH_K
from .store import TunedConfig, save_tuned_config

__all__ = ["TuneBudget", "BUDGETS", "Autotuner", "TuneReport"]


@dataclass(frozen=True)
class TuneBudget:
    """How much measuring a tuning run may do."""

    name: str
    m: int  #: representative problem: queries
    n: int  #: representative problem: references
    d: int  #: representative problem: dimension
    k: int  #: representative problem: neighbors (Var#1 regime)
    repeats: int  #: best-of-N per candidate
    block_candidates: tuple[int, ...]  #: block_m / block_n grid values
    switch_probes: tuple[int, ...]  #: k values probed for the crossover


BUDGETS: dict[str, TuneBudget] = {
    "small": TuneBudget(
        name="small",
        m=1024, n=1024, d=32, k=16,
        repeats=2,
        block_candidates=(512, 1024, 2048),
        switch_probes=(64, 256, 512),
    ),
    "medium": TuneBudget(
        name="medium",
        m=4096, n=4096, d=32, k=32,
        repeats=3,
        block_candidates=(256, 512, 1024, 2048, 4096),
        switch_probes=(32, 64, 128, 256, 512, 1024),
    ),
    "large": TuneBudget(
        name="large",
        m=8192, n=8192, d=32, k=64,
        repeats=3,
        block_candidates=(256, 512, 1024, 2048, 4096, 8192),
        switch_probes=(32, 64, 128, 256, 512, 1024, 2048),
    ),
}


@dataclass
class TuneReport:
    """Everything a tuning run measured, plus the winner."""

    config: TunedConfig
    budget: str
    candidates: list[dict[str, Any]] = field(default_factory=list)
    seconds: float = 0.0

    def best_seconds(self, stage: str) -> float:
        times = [c["seconds"] for c in self.candidates if c["stage"] == stage]
        return min(times) if times else float("nan")


class Autotuner:
    """Measure this host, return (and optionally persist) the winner.

    Parameters
    ----------
    budget:
        ``"small"`` / ``"medium"`` / ``"large"`` or a custom
        :class:`TuneBudget`. Small finishes in seconds and is what the
        CI gate runs; large approaches the paper's problem sizes.
    seed:
        Seed of the synthetic tuning problem.
    """

    def __init__(
        self, budget: str | TuneBudget = "small", *, seed: int = 0
    ) -> None:
        if isinstance(budget, str):
            if budget not in BUDGETS:
                raise ValidationError(
                    f"unknown budget {budget!r}; choose from {sorted(BUDGETS)}"
                )
            budget = BUDGETS[budget]
        self.budget = budget
        self.seed = int(seed)
        self._report = TuneReport(config=TunedConfig(), budget=budget.name)

    # -- measurement core -------------------------------------------------

    def _time(self, fn, stage: str, **attrs: Any) -> float:
        """Best-of-repeats wall clock, reported through the obs layer."""
        best = float("inf")
        for _ in range(self.budget.repeats):
            with _trace.span("tune_candidate", stage=stage, **attrs):
                t0 = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - t0)
        registry = _get_registry()
        if registry.enabled:
            registry.inc("tune.candidates")
            registry.observe("tune.candidate_seconds", best)
        self._report.candidates.append(
            {"stage": stage, "seconds": best, **attrs}
        )
        return best

    def _problem(self, d: int):
        from ..data.synthetic import uniform_hypercube

        b = self.budget
        n_points = max(b.m, b.n)
        ds = uniform_hypercube(n_points, d, seed=self.seed)
        rng = np.random.default_rng(self.seed + 1)
        q = rng.permutation(n_points)[: b.m]
        r = rng.permutation(n_points)[: b.n]
        return ds.points, q, r

    def _faster_variant(self, X, q, r, k: int, stage: str, **blocks) -> int:
        """1 or 6, whichever variant solves this problem faster (a tie
        goes to Var#1)."""
        from ..core.gsknn import gsknn

        t1, t6 = [
            self._time(
                lambda: gsknn(X, q, r, k, variant=v, **blocks),
                stage, variant=v, k=k,
            )
            for v in (1, 6)
        ]
        return 1 if t1 <= t6 else 6

    # -- stages -----------------------------------------------------------

    def _tune_blocking(self, X, q, r, k) -> tuple[int, int]:
        """Coordinate descent: best block_m at the default block_n, then
        best block_n at that block_m."""
        from ..core.gsknn import gsknn

        def seconds(blocks: tuple[int, int]) -> float:
            bm, bn = blocks
            return self._time(
                lambda: gsknn(X, q, r, k, variant=1, block_m=bm, block_n=bn),
                "blocking", block_m=bm, block_n=bn,
            )

        grid = self.budget.block_candidates
        block_m, _ = min([(bm, DEFAULT_BLOCK_N) for bm in grid], key=seconds)
        return min([(block_m, bn) for bn in grid], key=seconds)

    def _tune_switch_k(self, X, q, r, block_m, block_n) -> int:
        """Measured Var#1 <-> Var#6 crossover over geometric k probes.

        Returns the largest probed k where Var#1 still wins (i.e. the
        tuned rule is "Var#1 iff k <= switch_k"). When Var#6 already
        wins at the smallest probe, the switch sits one geometric step
        below it; with no probe within ``r``, the default stands. A
        rule cannot send ``k = 1`` to Var#6 (``switch_k >= 1``), so a
        first probe of 1 that Var#6 wins still leaves ``k = 1`` on
        Var#1.
        """
        switch = 0
        for k in self.budget.switch_probes:
            if k > r.size:
                break
            if self._faster_variant(
                X, q, r, k, "switch", block_m=block_m, block_n=block_n
            ) == 6:
                if switch == 0:
                    return max(1, k // 2)
                break  # crossover passed; larger k only favors Var#6 more
            switch = k
        return switch if switch > 0 else NUMPY_VARIANT_SWITCH_K

    # -- driver -----------------------------------------------------------

    def run(
        self,
        *,
        persist: bool = True,
        cache_path=None,
    ) -> TuneReport:
        """Run both stages; optionally persist the winner."""
        self._report = TuneReport(
            config=TunedConfig(), budget=self.budget.name
        )
        t0 = time.perf_counter()
        with _trace.span("autotune", budget=self.budget.name):
            X, q, r = self._problem(self.budget.d)
            block_m, block_n = self._tune_blocking(X, q, r, self.budget.k)
            switch_k = self._tune_switch_k(X, q, r, block_m, block_n)
        self._report.config = TunedConfig(
            block_m=block_m, block_n=block_n, switch_k=switch_k
        )
        self._report.seconds = time.perf_counter() - t0
        registry = _get_registry()
        if registry.enabled:
            registry.observe("tune.run_seconds", self._report.seconds)
        if persist:
            save_tuned_config(
                self._report.config,
                cache_path=cache_path,
                budget=self.budget.name,
                extra={"tune_seconds": self._report.seconds},
            )
        return self._report
