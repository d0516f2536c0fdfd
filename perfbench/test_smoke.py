"""Smoke test of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench -q

A tiny run of every workload emits every declared metric with its unit, a
deliberately wrong result is counted as failed, and the benchmark refuses to
run where the package's sources are missing.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402  (imports qconc from src/)
import workloads  # noqa: E402

import qconc  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.01",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    info_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    info = json.loads(info_line)
    assert info["wall_clock"]["failed_share"]["value"] == 0.0
    assert info["env"]["seed"] == 5 and len(info["inputs_sha256"]) == 64


def test_same_seed_same_inputs(tmp_path):
    digests = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        w = workloads.TripartiteMixed(9, bench.Host(tmp_path / sub, None))
        w.setup()
        digests.append(w.digest)
    assert digests[0] == digests[1]


def _wrong_concurrence(monkeypatch):
    real = qconc.concurrence

    def wrong(state, *args, **kwargs):
        report = real(state, *args, **kwargs)
        return dataclasses.replace(report, value=report.value * (1 + 1e-6) + 1e-9)

    monkeypatch.setattr(qconc, "concurrence", wrong)


def _wrong_verdict(monkeypatch):
    real = qconc.full_separability

    def wrong(state, *args, **kwargs):
        result = real(state, *args, **kwargs)
        return dataclasses.replace(result, fully_separable=not result.fully_separable)

    monkeypatch.setattr(qconc, "full_separability", wrong)


def _wrong_sample(monkeypatch):
    """The first CLI call samples with another seed than the one expected."""
    real = workloads.CliSmall.setup

    def setup(self, full=True):
        real(self, full)
        first = self.mix[0]
        argv = list(first.argv)
        argv[argv.index("--seed") + 1] += "1"
        self.mix[0] = workloads.Invocation(argv, first.code, first.check, first.sample)

    monkeypatch.setattr(workloads.CliSmall, "setup", setup)


@pytest.mark.parametrize("workload, corrupt", [
    ("bipartite_haar", _wrong_concurrence),
    ("tripartite_mixed", _wrong_concurrence),
    ("tripartite_mixed", _wrong_verdict),
    ("cli_small", _wrong_sample),
])
def test_wrong_result_is_counted(workload, corrupt, monkeypatch, tmp_path):
    corrupt(monkeypatch)
    # the loop an untraced run's worker processes execute
    (tmp_path / "plain").mkdir()
    part = bench.worker(workload, 3, 0.01, tmp_path / "plain")
    assert part["failures"] and part["ok"] < part["attempted"]
    # a whole (traced, so in-process) run
    (tmp_path / "traced").mkdir()
    result, info = bench.run(workload, 3, 0.01, True, tmp_path / "traced")
    assert result["failed"] >= 1 and result["correct"] is False
    share = info["wall_clock"]["failed_share"]["value"]
    assert share == result["failed"] / result["attempted"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "cli_small", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
