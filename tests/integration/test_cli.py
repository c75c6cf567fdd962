"""CLI smoke tests — every subcommand runs end to end."""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0


class TestCommands:
    def test_kernel(self, capsys):
        assert main(["kernel", "-m", "64", "-n", "128", "-d", "8", "-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "gsknn" in out and "gflops" in out

    def test_kernel_gemm_l1(self, capsys):
        assert main(
            ["kernel", "-m", "32", "-n", "64", "-d", "4", "-k", "2",
             "--kernel", "gemm", "--norm", "l1"]
        ) == 0

    def test_compare(self, capsys):
        assert main(
            ["compare", "-m", "64", "-n", "64", "-d", "8", "-k", "4",
             "--repeats", "1"]
        ) == 0
        assert "speedup" in capsys.readouterr().out

    def test_allknn(self, capsys):
        assert main(
            ["allknn", "-N", "400", "-d", "8", "-k", "4",
             "--leaf-size", "64", "--iterations", "2", "--evaluate"]
        ) == 0
        out = capsys.readouterr().out
        assert "recall" in out

    def test_allknn_lsh(self, capsys):
        assert main(
            ["allknn", "-N", "300", "-d", "8", "-k", "4",
             "--method", "lsh", "--leaf-size", "64", "--iterations", "2"]
        ) == 0

    def test_model(self, capsys):
        assert main(["model", "-m", "1024", "-n", "1024", "-d", "64",
                     "-k", "16", "--cores", "10"]) == 0
        out = capsys.readouterr().out
        assert "threshold" in out
        assert "GFLOPS" in out

    def test_trace(self, capsys):
        assert main(["trace", "-m", "32", "-n", "32", "-d", "8", "-k", "4"]) == 0
        assert "DRAM" in capsys.readouterr().out

    def test_tune(self, capsys):
        assert main(["tune", "-m", "512", "-n", "512", "-d", "32", "-k", "64"]) == 0
        out = capsys.readouterr().out
        assert "decision table" in out
        assert "threshold" in out

    def test_tune_save(self, capsys, tmp_path):
        path = str(tmp_path / "table.json")
        assert main(
            ["tune", "-m", "256", "-n", "256", "-d", "16", "-k", "8",
             "--save", path]
        ) == 0
        assert "saved" in capsys.readouterr().out

    def test_distributed(self, capsys):
        assert main(
            ["distributed", "-N", "512", "-d", "8", "-k", "4",
             "--ranks", "4", "--leaf-size", "128", "--iterations", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "projected wall clock" in out

    def test_kernel_cosine(self, capsys):
        assert main(
            ["kernel", "-m", "32", "-n", "64", "-d", "8", "-k", "4",
             "--norm", "cosine"]
        ) == 0

    def test_kernel_explicit_variant(self, capsys):
        assert main(
            ["kernel", "-m", "32", "-n", "64", "-d", "8", "-k", "4",
             "--variant", "6"]
        ) == 0

    def test_allknn_gemm_kernel(self, capsys):
        assert main(
            ["allknn", "-N", "300", "-d", "8", "-k", "4",
             "--kernel", "gemm", "--leaf-size", "64", "--iterations", "1"]
        ) == 0


class TestObservabilityCommands:
    def test_kernel_trace_out_writes_chrome_trace(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.json"
        assert main(
            ["kernel", "-m", "48", "-n", "96", "-d", "8", "-k", "4",
             "--trace-out", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "phase" in out  # the breakdown table printed
        doc = json.loads(path.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"pack", "rank_update", "heap"} <= names
        assert all(e["ph"] == "X" for e in doc["traceEvents"])

    def test_compare_trace_out(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.json"
        assert main(
            ["compare", "-m", "48", "-n", "48", "-d", "8", "-k", "4",
             "--repeats", "1", "--trace-out", str(path)]
        ) == 0
        doc = json.loads(path.read_text())
        assert {e["name"] for e in doc["traceEvents"]} >= {"run"}

    def test_stats(self, capsys):
        assert main(
            ["stats", "-m", "48", "-n", "96", "-d", "8", "-k", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "counters" in out
        assert "gsknn.calls" in out

    def test_stats_json(self, capsys):
        import json

        assert main(
            ["stats", "-m", "32", "-n", "64", "-d", "8", "-k", "4", "--json"]
        ) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["counters"]["gsknn.calls"] >= 1

    def test_trace_json(self, capsys):
        import json

        assert main(
            ["trace", "-m", "32", "-n", "32", "-d", "8", "-k", "4", "--json"]
        ) == 0
        records = json.loads(capsys.readouterr().out)
        assert isinstance(records, list) and records


class TestResilientKernel:
    """Resilience flags run the kernel as a one-task schedule."""

    @staticmethod
    def _neighbours(out: str) -> str:
        return next(
            line for line in out.splitlines()
            if line.startswith("first query neighbors")
        )

    def test_fault_plan_keeps_the_answer(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        problem = ["kernel", "-m", "256", "-n", "512", "-d", "16", "-k", "8"]
        assert main(problem) == 0
        plain = self._neighbours(capsys.readouterr().out)
        assert main(problem + ["--fault-plan", "seed=101,crash=0.4"]) == 0
        out = capsys.readouterr().out
        assert self._neighbours(out) == plain
        assert "resilience.solves" in out

    def test_deadline_exits_3(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        assert main(
            ["kernel", "-m", "2048", "-n", "8192", "-d", "16", "-k", "16",
             "--deadline-ms", "1"]
        ) == 3
        assert "deadline exceeded" in capsys.readouterr().err

    def test_deadline_exit_leaves_the_abandoned_kernel(self, monkeypatch):
        """The process exits 3 on its deadline without waiting for the
        kernel thread it abandoned to finish. The plain run of this
        problem takes about a minute (61 s on a 2-core Xeon VM), so a
        process that joined the thread at exit would time out here."""
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        monkeypatch.setenv("PYTHONPATH", str(Path(repro.__file__).parents[1]))
        problem = ["kernel", "-m", "131072", "-n", "131072", "-d", "64", "-k", "16"]
        t0 = time.perf_counter()
        late = subprocess.run(
            [sys.executable, "-m", "repro.cli", *problem, "--deadline-ms", "50"],
            capture_output=True, text=True, timeout=120,
        )
        late_s = time.perf_counter() - t0
        assert late.returncode == 3, late.stderr
        assert "deadline exceeded" in late.stderr
        assert late_s < 10, late_s

    def test_budget_refusal_exits_4(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        assert main(
            ["kernel", "-m", "2048", "-n", "4096", "-d", "16", "-k", "512",
             "--variant", "6", "--memory-budget", "8MiB",
             "--deadline-ms", "60000", "--retries", "1"]
        ) == 4
