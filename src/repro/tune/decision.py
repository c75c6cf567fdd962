"""The kernel's variant and blocking decisions (paper §2.4, §3).

Every caller of the kernel — one-shot ``gsknn``, plans, the shard
router — resolves its ``variant`` spec through :func:`decide_variant`
and its ``blocking`` selector through :func:`apply_blocking`, so the
specs and the switch points live here and nowhere else.

:func:`select_blocking` is the analytic recipe (following Low et al.,
"Analytical modeling is enough for high performance BLIS"):

* ``m_r x n_r`` — sized so enough independent FMAs are in flight to hide
  the FMA latency (8 cycles of mul+add on Ivy Bridge ⇒ >= 8 tiles of 4
  doubles ⇒ 8 x 4 with an AVX register file of 16 x 256-bit);
* ``d_c`` — micro-panels ``(m_r + n_r) x d_c`` fill ~3/4 of L1, keeping
  a quarter free for streaming;
* ``m_c`` — ``Q_c = m_c x d_c`` fills ~3/4 of L2;
* ``n_c`` — ``R_c = n_c x d_c`` fills L3.

This module imports no kernel and no model at load time: the core
modules import it, and the model is loaded only for ``variant="model"``.
"""

from __future__ import annotations

from ..config import BlockingParams
from ..core.variants import Variant, resolve_variant
from ..errors import ValidationError
from ..machine.params import MachineParams
from ..obs.metrics import get_registry as _get_registry

__all__ = [
    "DEFAULT_VARIANT_SWITCH_K",
    "NUMPY_VARIANT_SWITCH_K",
    "decide_variant",
    "apply_blocking",
    "select_blocking",
]

#: The paper's production rule (§3): Var#1 for k <= 512, Var#6 above.
DEFAULT_VARIANT_SWITCH_K = 512

#: Switch point of the *numpy fast path*. The Table 4 model prices Var#1's
#: selection as per-candidate heap latency, but this path's selection is
#: batched introselect merges whose cost grows more slowly with k, so the
#: measured crossover sits higher than the model's prediction (256 vs
#: ~64-200 across hosts we measured). "auto" uses this empirical rule
#: unless a tuned switch-k replaces it; pass variant="model" for the
#: Table 4 prediction or "paper" for the static k <= 512 rule.
NUMPY_VARIANT_SWITCH_K = 256

_DOUBLE = 8


def decide_variant(
    spec: int | str | Variant,
    m: int,
    n: int,
    d: int,
    k: int,
    switch_k: int | None = None,
) -> tuple[Variant, bool]:
    """The variant a ``spec`` picks for an ``(m, n, d, k)`` problem.

    Returns ``(variant, inferred)``: ``inferred`` is true when the spec
    left the choice to a rule — ``"auto"`` (the fast path's empirical
    threshold, or the per-host tuned ``switch_k`` when one is given),
    ``"model"`` (Table 4's predicted threshold, Figure 5's rule) or
    ``"paper"`` (§3's static rule, Var#1 iff k <= 512) — and false when
    it named a variant (1..6, ``"var6"``, a :class:`Variant`).
    """
    if isinstance(spec, str):
        key = spec.lower()
        if key == "auto":
            threshold = NUMPY_VARIANT_SWITCH_K if switch_k is None else switch_k
            return (Variant.VAR1 if k <= threshold else Variant.VAR6), True
        if key == "model":
            from ..model.perf_model import PerformanceModel

            return PerformanceModel().select_variant(m, n, d, k), True
        if key == "paper":
            threshold = DEFAULT_VARIANT_SWITCH_K
            return (Variant.VAR1 if k <= threshold else Variant.VAR6), True
    return resolve_variant(spec), False


def apply_blocking(
    blocking, block_m: int, block_n: int
) -> tuple[int, int, int | None]:
    """Resolve the ``blocking`` selector into concrete block sizes.

    Returns ``(block_m, block_n, switch_k)`` where ``switch_k`` is the
    tuned Var#1/Var#6 threshold (``None`` when untuned — callers then
    keep :data:`NUMPY_VARIANT_SWITCH_K`). ``"tuned"`` with no matching
    cache entry is a clean fallback to the passed defaults, counted in
    the metrics registry so a fleet can see how many hosts run untuned.
    """
    key = blocking.lower() if isinstance(blocking, str) else blocking
    if key in (None, "default"):
        return block_m, block_n, None
    if key == "tuned":
        from .store import load_tuned_config

        config = load_tuned_config()
        registry = _get_registry()
        if config is None:
            if registry.enabled:
                registry.inc("tune.cache_misses")
            return block_m, block_n, None
        if registry.enabled:
            registry.inc("tune.cache_hits")
        return config.block_m, config.block_n, config.switch_k
    try:  # a TunedConfig, duck-typed
        return (
            int(blocking.block_m),
            int(blocking.block_n),
            int(blocking.switch_k),
        )
    except AttributeError:
        raise ValidationError(
            f"blocking must be 'tuned', 'default', None, or a "
            f"TunedConfig, got {blocking!r}"
        ) from None


def _round_down_multiple(value: int, multiple: int) -> int:
    return max((value // multiple) * multiple, multiple)


def select_blocking(
    machine: MachineParams,
    *,
    m_r: int = 8,
    n_r: int = 4,
    l1_fill: float = 0.75,
    l2_fill: float = 0.75,
    l3_fill: float = 1.0,
) -> BlockingParams:
    """Derive the five block sizes from a machine's cache geometry.

    Applied to :data:`~repro.machine.params.IVY_BRIDGE` this reproduces
    the paper's published parameters up to the m_c rounding (the paper
    uses 104 = 13 x m_r where 3/4 L2 gives 96-128 depending on how much
    is reserved for R_c micro-panels and C; we keep the same
    neighbourhood and round to a multiple of m_r).
    """
    if not machine.caches:
        raise ValidationError(
            f"machine {machine.name!r} has no cache levels to size against"
        )
    if len(machine.caches) < 3:
        raise ValidationError(
            "blocking derivation needs at least three cache levels"
        )
    l1, l2, l3 = machine.caches[0], machine.caches[1], machine.caches[2]

    d_c = int(l1_fill * l1.size_bytes / ((m_r + n_r) * _DOUBLE))
    d_c = _round_down_multiple(d_c, 8)
    m_c = int(l2_fill * l2.size_bytes / (d_c * _DOUBLE))
    m_c = _round_down_multiple(m_c, m_r)
    n_c = int(l3_fill * l3.size_bytes / (d_c * _DOUBLE))
    n_c = _round_down_multiple(n_c, n_r)
    return BlockingParams(m_r=m_r, n_r=n_r, d_c=d_c, m_c=m_c, n_c=n_c)
