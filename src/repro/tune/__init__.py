"""Persistent per-host autotuning (blocking, variant switch).

The paper derives its blocking analytically for one machine; this
package *measures* the running host instead and remembers the answer:

* :class:`~repro.tune.autotuner.Autotuner` — guided two-stage search
  (blocking -> Var#1/Var#6 switch-``k``),
  instrumented through the observability layer;
* :mod:`repro.tune.store` — the schema-versioned JSON cache, keyed by a
  host fingerprint so stale or foreign entries are never applied;
* ``gsknn(..., blocking="tuned")`` loads the cache transparently and
  falls back to the built-in defaults when no entry matches.

Command line: ``repro-gsknn tune --budget small`` runs a search and
persists the winner (see ``docs/TUNING.md``).
"""

from .autotuner import BUDGETS, Autotuner, TuneBudget, TuneReport
from .store import (
    TUNE_SCHEMA_VERSION,
    TunedConfig,
    default_cache_path,
    fingerprint_key,
    host_fingerprint,
    load_tuned_config,
    save_tuned_config,
)

__all__ = [
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
