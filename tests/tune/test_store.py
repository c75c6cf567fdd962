"""Tests for the persisted per-host tuning cache."""

from __future__ import annotations

import json

import pytest

from repro.config import DEFAULT_BLOCK_M, DEFAULT_BLOCK_N
from repro.errors import ValidationError
from repro.tune.store import (
    TUNE_SCHEMA_VERSION,
    TunedConfig,
    default_cache_path,
    fingerprint_key,
    host_fingerprint,
    load_tuned_config,
    save_tuned_config,
)


@pytest.fixture
def cache_file(tmp_path):
    return tmp_path / "tuning.json"


class TestTunedConfig:
    def test_defaults_valid(self):
        cfg = TunedConfig()
        # untuned hosts run the kernel's own default blocking
        assert (cfg.block_m, cfg.block_n) == (DEFAULT_BLOCK_M, DEFAULT_BLOCK_N)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"block_m": 0},
            {"block_n": -1},
            {"switch_k": 0},
            {"block_m": True},
            {"switch_k": 2.5},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValidationError):
            TunedConfig(**kwargs)


class TestFingerprint:
    def test_contains_the_load_bearing_fields(self):
        fp = host_fingerprint()
        assert set(fp) == {"cpu_count", "machine", "numpy", "blas", "python"}
        assert fp["cpu_count"] >= 1

    def test_key_is_stable(self):
        assert fingerprint_key() == fingerprint_key(host_fingerprint())


class TestRoundTrip:
    def test_save_then_load(self, cache_file):
        cfg = TunedConfig(block_m=512, block_n=4096, switch_k=128)
        path = save_tuned_config(cfg, cache_path=cache_file, budget="small")
        assert path == cache_file
        assert load_tuned_config(cache_file) == cfg

    def test_other_hosts_preserved(self, cache_file):
        save_tuned_config(TunedConfig(), cache_path=cache_file)
        doc = json.loads(cache_file.read_text())
        doc["hosts"]["cpu_count=999|other=host"] = {
            "config": {"block_m": 64}
        }
        cache_file.write_text(json.dumps(doc))
        save_tuned_config(TunedConfig(block_m=256), cache_path=cache_file)
        doc = json.loads(cache_file.read_text())
        assert "cpu_count=999|other=host" in doc["hosts"]
        assert load_tuned_config(cache_file).block_m == 256

    def test_file_with_worker_fields_loads(self, cache_file):
        """A file written when the tuner also searched workers and
        backends still loads: the keys it no longer knows are skipped."""
        save_tuned_config(TunedConfig(block_m=512), cache_path=cache_file)
        doc = json.loads(cache_file.read_text())
        config = doc["hosts"][fingerprint_key()]["config"]
        config.update(p=2, chunks_per_worker=1, backend="processes")
        cache_file.write_text(json.dumps(doc))
        assert load_tuned_config(cache_file) == TunedConfig(block_m=512)

    def test_env_var_overrides_path(self, cache_file, monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(cache_file))
        assert default_cache_path() == cache_file
        save_tuned_config(TunedConfig(block_m=2048))
        assert load_tuned_config().block_m == 2048


class TestDegradation:
    """Every unusable cache state loads as None, never an exception."""

    def test_missing_file(self, tmp_path):
        assert load_tuned_config(tmp_path / "nope.json") is None

    def test_corrupt_json(self, cache_file):
        cache_file.write_text("{not json")
        assert load_tuned_config(cache_file) is None

    def test_future_schema(self, cache_file):
        save_tuned_config(TunedConfig(), cache_path=cache_file)
        doc = json.loads(cache_file.read_text())
        doc["schema_version"] = TUNE_SCHEMA_VERSION + 1
        cache_file.write_text(json.dumps(doc))
        assert load_tuned_config(cache_file) is None

    def test_fingerprint_mismatch(self, cache_file):
        save_tuned_config(TunedConfig(), cache_path=cache_file)
        doc = json.loads(cache_file.read_text())
        entry = doc["hosts"].pop(fingerprint_key())
        doc["hosts"]["cpu_count=999|machine=m|numpy=0|blas=?|python=0"] = entry
        cache_file.write_text(json.dumps(doc))
        assert load_tuned_config(cache_file) is None

    def test_bad_config_fields(self, cache_file):
        save_tuned_config(TunedConfig(), cache_path=cache_file)
        doc = json.loads(cache_file.read_text())
        doc["hosts"][fingerprint_key()]["config"]["block_m"] = -5
        cache_file.write_text(json.dumps(doc))
        assert load_tuned_config(cache_file) is None
