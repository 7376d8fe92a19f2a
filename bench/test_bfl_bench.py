"""Smoke test of the benchmark: every workload at minimal length.

Each workload runs one round per cell with no time budget (one pass over
the run's seeds, plus the untraced unit a traced run adds), in both modes.
The test checks that every metric BENCHMARK.json lists comes out as a
number, that the correctness gate passes, that a sweep whose cells run in
another process is measured like one that runs in this process, and that
the entry point refuses to run where the bfl sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import bfl_bench  # noqa: E402
import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_listed_metric(workload, trace):
    record = harness.run_workload(workload, seed=42, seconds=0, trace=bool(trace), rounds=1)
    line = bfl_bench.contract_line(record, SPEC)
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in listed]
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and not isinstance(metric["value"], bool)
    assert line["correct"], record["problems"]
    assert line["failed"] == 0 and line["attempted"] >= 1


def test_sweep_in_another_process_is_measured(monkeypatch):
    """Cells that run outside this process (as in a parallel sweep) leave no
    spans here; the run is still counted from the reports they emit."""

    def sweep_in_child(argv):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run([sys.executable, "-m", "bfl.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        return done.returncode

    monkeypatch.setattr(harness.cli, "main", sweep_in_child)
    record = harness.run_workload("sweep_undefended", seed=42, seconds=0, rounds=1)
    line = bfl_bench.contract_line(record, SPEC)
    assert line["correct"], record["problems"]
    assert line["failed"] == 0 and line["attempted"] == 16 * harness.WORKLOADS["sweep_undefended"].seeds
    assert record["end_to_end"]["cells"] == line["attempted"]
    for name, metric in line["metrics"].items():
        assert metric["value"] > 0, name


def test_workloads_match_benchmark_json():
    assert sorted(harness.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "defended_iid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
