"""Smoke test: every workload at tiny sizes, so the harness cannot rot.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from gen_feeder import write_feeder
from gen_sensors import write_sensor_days
from run import ROOT, WORK, run_workload
from workloads import WORKLOADS

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_clean_and_reports_every_metric(workload, trace):
    _, run, result = run_workload(workload, seed=1, seconds=0, trace=trace, smoke=True)
    assert run["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_bundled_sweep_counts_match_the_published_feeders():
    _, run, _ = run_workload("bundled", seed=1, seconds=0, trace=1, smoke=True)
    assert run["sweeps_by_feeder"] == {"ieee13": 9, "ieee34": 13, "ieee34-stressed": 93}
    assert run["layers"]["powerflow.solve_calls"] == 8


def test_generators_give_byte_identical_files_for_a_seed():
    out = WORK / "determinism"
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
        write_feeder(out / f"{tag}.feeder", 200, seed)
        write_sensor_days(out / f"{tag}.csv", out / f"{tag}.json", 3, 8, seed)
        files[tag] = [(out / f"{tag}{ext}").read_bytes() for ext in (".feeder", ".csv", ".json")]
    shutil.rmtree(out)
    assert files["a"] == files["b"]
    assert all(x != y for x, y in zip(files["a"], files["c"]))


def test_run_fails_without_the_program_sources():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bundled", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
