"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402
from cctuner import _kernels  # noqa: E402

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric(workload, trace):
    proc = _run_cli("--workload", workload, "--seed", "1", "--seconds", "0.5",
                    "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    report = "\n".join(lines[:-1])
    shown = {m["name"] for m in expected} | {"failed_share"}
    if not trace:
        latency, rate = run.NAMES[workload]
        shown |= {latency + "_p50", latency + "_p90", rate}
    for name in shown:
        assert name + " = " in report


@pytest.mark.parametrize("workload", ["tune", "score"])
def test_corrupted_count_is_a_failure(workload, monkeypatch):
    original = _kernels.count_violations

    def off_by_one(*args):
        counts, joint = original(*args)
        return counts + 1, joint

    monkeypatch.setattr(_kernels, "count_violations", off_by_one)
    result = run.measure(workload, 1, 0.3, False, workloads.TINY)
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] > 0


def test_missing_wrap_point_is_reported_absent(monkeypatch):
    points = tracing.WRAP_POINTS + (("ptdf", "cctuner.experiment", "no_such_function"),)
    monkeypatch.setattr(tracing, "WRAP_POINTS", points)
    tracer = tracing.Tracer()
    assert tracer.absent == ["cctuner.experiment.no_such_function"]
    tracer.install()
    tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, 0, 0.0, 0.0)
    assert metrics["trace.absent_wraps"] == 1


def test_without_program_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_cli("--workload", "score", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
