"""Tests of the benchmark itself (not of eub).

    python3 -m pytest -q bench/test_bench.py

They run the benchmark as the driver does, at the smallest size: one round
of the fastest workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root, *args):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", "ensemble-sampling", "--seconds", "1"]
    return subprocess.run(cmd + list(args), cwd=root, capture_output=True, text=True, timeout=170)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_tree(dst, with_src=True):
    shutil.copytree(BENCH, dst / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    if with_src:
        shutil.copytree(ROOT / "src" / "eub", dst / "src" / "eub", ignore=shutil.ignore_patterns("__pycache__"))


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_emits_every_metric(trace, section):
    proc = run(ROOT, "--seed", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    res = result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    names = [m["name"] for m in SPEC[section]]
    assert sorted(res["metrics"]) == sorted(names)
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    for name, metric in res["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("seed", ["0", "1"])
def test_corrupted_reference_raises_error_rate(tmp_path, seed):
    # Seed 0 compares its own first round against the stored outputs; any
    # other seed re-runs round 0 of seed 0 to do so.
    copy_tree(tmp_path)
    ref_path = tmp_path / "bench" / "reference.json"
    ref = json.loads(ref_path.read_text())
    ref["outputs"]["beat_rate/n2/S2048/seed0/stream1"]["wins"] += 3
    ref_path.write_text(json.dumps(ref))
    proc = run(tmp_path, "--seed", seed, "--trace", "0")
    res = result(proc)
    assert proc.returncode != 0
    assert not res["correct"] and res["failed"] >= 1
    assert json.loads(proc.stdout.strip().splitlines()[-2])["error_rate"] > 0


def test_fails_without_package(tmp_path):
    copy_tree(tmp_path, with_src=False)
    proc = run(tmp_path, "--seed", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
