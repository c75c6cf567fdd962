"""Persisted per-host tuning cache: schema-versioned, fingerprint-keyed.

Tuned parameters are only valid on the machine (and numerical stack)
that produced them — a blocking choice sized for one cache hierarchy is
wrong on another, and the Var#1/Var#6 crossover moves with the BLAS.
The cache file therefore keys every entry by a **host fingerprint**
(cpu count, architecture, BLAS vendor, numpy version, python major) and
the loader returns nothing — never a wrong entry — when the running
host does not match.

File shape (``tuning.json``)::

    {
      "schema_version": 1,
      "hosts": {
        "<fingerprint key>": {
          "fingerprint": {...},        # the full dict, for humans
          "config": {...},             # TunedConfig fields
          "budget": "small",
          "created_unix": 1754500000.0
        }
      }
    }

Location: ``$REPRO_TUNE_CACHE`` if set, else
``~/.cache/repro-gsknn/tuning.json``. Writes are atomic (temp file +
rename); a corrupt or future-versioned file loads as empty rather than
raising, so ``gsknn(..., blocking="tuned")`` always degrades cleanly to
the defaults.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from ..config import DEFAULT_BLOCK_M, DEFAULT_BLOCK_N
from ..errors import ValidationError
from ..ioutil import atomic_write_json
from .decision import NUMPY_VARIANT_SWITCH_K

__all__ = [
    "TUNE_SCHEMA_VERSION",
    "TunedConfig",
    "host_fingerprint",
    "fingerprint_key",
    "default_cache_path",
    "save_tuned_config",
    "load_tuned_config",
]

TUNE_SCHEMA_VERSION = 1

_CACHE_ENV = "REPRO_TUNE_CACHE"


@dataclass(frozen=True)
class TunedConfig:
    """The autotuner's winning configuration for one host.

    ``block_m``/``block_n`` are the fast path's cache-block sizes (the
    numpy-scale ``m_c``/``n_c``); ``switch_k`` is the measured
    Var#1 -> Var#6 crossover. The kernel's worker count is not tuned:
    it follows the cores the process may use.
    """

    block_m: int = DEFAULT_BLOCK_M
    block_n: int = DEFAULT_BLOCK_N
    switch_k: int = NUMPY_VARIANT_SWITCH_K

    def __post_init__(self) -> None:
        for name in ("block_m", "block_n", "switch_k"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValidationError(
                    f"tuned parameter {name} must be a positive int, got {value!r}"
                )


def _blas_vendor() -> str:
    """Best-effort BLAS identification from numpy's build config."""
    try:
        import numpy

        config = numpy.show_config(mode="dicts")  # numpy >= 1.25
        blas = (config.get("Build Dependencies") or {}).get("blas") or {}
        name = blas.get("name") or "unknown"
        return str(name)
    except Exception:
        return "unknown"


def host_fingerprint() -> dict[str, Any]:
    """What the tuned numbers depend on: cores, arch, numpy, BLAS."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep
        numpy_version = "none"
    return {
        "cpu_count": os.cpu_count() or 1,
        "machine": platform.machine(),
        "numpy": numpy_version,
        "blas": _blas_vendor(),
        "python": ".".join(platform.python_version_tuple()[:2]),
    }


def fingerprint_key(fingerprint: dict[str, Any] | None = None) -> str:
    """Stable flat key for one fingerprint (the ``hosts`` dict key)."""
    fp = host_fingerprint() if fingerprint is None else fingerprint
    return "|".join(
        f"{field}={fp.get(field)}"
        for field in ("cpu_count", "machine", "numpy", "blas", "python")
    )


def default_cache_path() -> Path:
    env = os.environ.get(_CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-gsknn" / "tuning.json"


def _load_file(path: Path) -> dict[str, Any]:
    """Read the cache file; anything unusable degrades to empty."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {"schema_version": TUNE_SCHEMA_VERSION, "hosts": {}}
    if (
        not isinstance(doc, dict)
        or not isinstance(doc.get("hosts"), dict)
        or not isinstance(doc.get("schema_version"), int)
        or doc["schema_version"] > TUNE_SCHEMA_VERSION
        or doc["schema_version"] < 1
    ):
        return {"schema_version": TUNE_SCHEMA_VERSION, "hosts": {}}
    return doc


def save_tuned_config(
    config: TunedConfig,
    *,
    cache_path: str | Path | None = None,
    budget: str = "small",
    extra: dict[str, Any] | None = None,
) -> Path:
    """Persist ``config`` under this host's fingerprint; returns the path.

    Entries for other hosts in the same file are preserved (a shared
    home directory may serve several machines).
    """
    path = Path(cache_path) if cache_path is not None else default_cache_path()
    doc = _load_file(path) if path.exists() else {
        "schema_version": TUNE_SCHEMA_VERSION,
        "hosts": {},
    }
    fp = host_fingerprint()
    entry: dict[str, Any] = {
        "fingerprint": fp,
        "config": asdict(config),
        "budget": budget,
        "created_unix": time.time(),
    }
    if extra:
        entry["extra"] = dict(extra)
    doc["schema_version"] = TUNE_SCHEMA_VERSION
    doc["hosts"][fingerprint_key(fp)] = entry
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_json(path, doc)
    return path


def load_tuned_config(
    cache_path: str | Path | None = None,
) -> TunedConfig | None:
    """This host's tuned configuration, or ``None``.

    ``None`` — never an exception — when the file is missing, corrupt,
    from a future schema, or holds no entry matching this host's
    fingerprint: the caller's contract is "use the tuned numbers if
    trustworthy, else the defaults".
    """
    path = Path(cache_path) if cache_path is not None else default_cache_path()
    if not path.exists():
        return None
    entry = _load_file(path)["hosts"].get(fingerprint_key())
    if not isinstance(entry, dict) or not isinstance(entry.get("config"), dict):
        return None
    fields = entry["config"]
    try:
        # by name: keys this version does not know (an older file's
        # ``p``/``backend``) are ignored
        return TunedConfig(
            **{
                k: fields[k]
                for k in ("block_m", "block_n", "switch_k")
                if k in fields
            }
        )
    except (TypeError, ValidationError):
        return None
