"""The variant and blocking decisions, and the per-host autotuner.

* :mod:`repro.tune.decision` — what every kernel call applies:
  :func:`decide_variant` (``variant="auto"|"model"|"paper"|1|5|6``),
  :func:`apply_blocking` (``blocking="tuned"|"default"|None|TunedConfig``)
  and :func:`select_blocking`, the analytic Goto recipe (§2.4);
* :class:`Autotuner` — guided search on this host (blocking, then the
  Var#1/Var#6 switch-``k``), every candidate a ``tune_candidate`` span;
* :class:`DecisionTable` — a (d, k) variant table from the model or
  from the autotuner's timings;
* :mod:`repro.tune.store` — the fingerprint-keyed cache behind
  ``blocking="tuned"``.

Command line: ``repro-gsknn tune`` (see ``docs/TUNING.md``).
"""

from .autotuner import BUDGETS, Autotuner, TuneBudget, TuneReport
from .decision import (
    DEFAULT_VARIANT_SWITCH_K,
    NUMPY_VARIANT_SWITCH_K,
    apply_blocking,
    decide_variant,
    select_blocking,
)
from .store import (
    TUNE_SCHEMA_VERSION,
    TunedConfig,
    default_cache_path,
    fingerprint_key,
    host_fingerprint,
    load_tuned_config,
    save_tuned_config,
)
from .table import DecisionTable

__all__ = [
    "decide_variant",
    "apply_blocking",
    "select_blocking",
    "DEFAULT_VARIANT_SWITCH_K",
    "NUMPY_VARIANT_SWITCH_K",
    "DecisionTable",
    "Autotuner",
    "TuneBudget",
    "TuneReport",
    "BUDGETS",
    "TunedConfig",
    "TUNE_SCHEMA_VERSION",
    "host_fingerprint",
    "fingerprint_key",
    "default_cache_path",
    "save_tuned_config",
    "load_tuned_config",
]
