"""Variant decision tables on a (d, k) grid (paper §2.4, §2.6).

Built from the model (cheap) or from measurements (exhaustive, timed by
the :class:`~repro.tune.autotuner.Autotuner`), queried by nearest
gridpoint, persisted as JSON (``repro-gsknn tune [--measured] --save``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..core.variants import Variant
from ..errors import ValidationError
from .autotuner import Autotuner, TuneBudget

if TYPE_CHECKING:
    from ..model.perf_model import PerformanceModel

__all__ = ["DecisionTable"]


@dataclass
class DecisionTable:
    """Variant choice on a (d, k) grid, queried by nearest gridpoint.

    The paper: "A two dimensional threshold can be set on the (d, k)
    space ... a tuning based decision table would need to search the
    whole (d, k) space which can be time consuming." Build it cheaply
    from the model (:meth:`from_model`) or exhaustively from timings
    (:meth:`from_measurements`).
    """

    m: int
    n: int
    d_grid: list[int]
    k_grid: list[int]
    choices: dict[tuple[int, int], int] = field(default_factory=dict)
    source: str = "unset"

    def __post_init__(self) -> None:
        if not self.d_grid or not self.k_grid:
            raise ValidationError("decision table needs non-empty grids")
        if sorted(self.d_grid) != list(self.d_grid) or sorted(
            self.k_grid
        ) != list(self.k_grid):
            raise ValidationError("grids must be sorted ascending")

    # -- construction ----------------------------------------------------

    @classmethod
    def from_model(
        cls,
        m: int,
        n: int,
        d_grid: list[int],
        k_grid: list[int],
        model: PerformanceModel | None = None,
    ) -> "DecisionTable":
        from ..model.perf_model import PerformanceModel

        model = model if model is not None else PerformanceModel()
        table = cls(m, n, list(d_grid), list(k_grid), source="model")
        for d in d_grid:
            for k in k_grid:
                if k > n:
                    continue
                table.choices[(d, k)] = int(model.select_variant(m, n, d, k))
        return table

    @classmethod
    def from_measurements(
        cls,
        m: int,
        n: int,
        d_grid: list[int],
        k_grid: list[int],
        *,
        repeats: int = 2,
    ) -> "DecisionTable":
        """Exhaustive tuning: race Var#1 and Var#6 at every gridpoint.

        Each candidate is the autotuner's best-of-``repeats`` timing on
        uniform data, recorded as a ``tune_candidate`` span.
        """
        table = cls(m, n, list(d_grid), list(k_grid), source="measured")
        tuner = Autotuner(
            TuneBudget(
                name="table", m=m, n=n, d=table.d_grid[0], k=1,
                repeats=repeats, block_candidates=(), switch_probes=(),
            )
        )
        for d in table.d_grid:
            X, q, r = tuner._problem(d)
            for k in table.k_grid:
                if k <= n:
                    table.choices[(d, k)] = tuner._faster_variant(
                        X, q, r, k, "table"
                    )
        return table

    # -- lookup ------------------------------------------------------------

    @staticmethod
    def _nearest(grid: list[int], value: int) -> int:
        return min(grid, key=lambda g: abs(np.log2(max(g, 1)) - np.log2(max(value, 1))))

    def lookup(self, d: int, k: int) -> Variant:
        """Variant for a problem at (d, k): nearest gridpoint in log space."""
        if not self.choices:
            raise ValidationError("decision table is empty")
        key = (self._nearest(self.d_grid, d), self._nearest(self.k_grid, k))
        if key not in self.choices:
            # nearest gridpoint may have been skipped (k > n); fall back
            # to any populated k on that d row
            candidates = [c for c in self.choices if c[0] == key[0]]
            if not candidates:
                raise ValidationError(f"no decision for d={d}")
            key = min(candidates, key=lambda c: abs(c[1] - k))
        return Variant(self.choices[key])

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        payload = {
            "m": self.m,
            "n": self.n,
            "d_grid": self.d_grid,
            "k_grid": self.k_grid,
            "source": self.source,
            "choices": [
                {"d": d, "k": k, "variant": v}
                for (d, k), v in sorted(self.choices.items())
            ],
        }
        path.write_text(json.dumps(payload, indent=2))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "DecisionTable":
        path = Path(path)
        if not path.exists():
            raise ValidationError(f"decision table not found: {path}")
        payload = json.loads(path.read_text())
        table = cls(
            payload["m"],
            payload["n"],
            payload["d_grid"],
            payload["k_grid"],
            source=payload.get("source", "loaded"),
        )
        for entry in payload["choices"]:
            table.choices[(entry["d"], entry["k"])] = entry["variant"]
        return table
