"""Smoke test of the benchmark at tiny sizes.

Each workload runs once, traced, which prints every metric BENCHMARK.json
names: the end-to-end ones on their own lines and the per-layer ones in the
result. The output checks must pass, and the benchmark must refuse to run
without the crosslex source tree.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def run_bench(workdir, workload, trace, cwd=ROOT, script=None):
    return subprocess.run(
        [sys.executable, script or os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--scale", "tiny", "--workdir", str(workdir)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_printed_with_its_unit(workload, tmp_path):
    proc = run_bench(tmp_path, workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1

    per_layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer
    printed = {}
    for line in lines:
        fields = line.split()
        if len(fields) >= 3:
            printed[fields[0]] = fields[2]
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert printed.get(metric["name"]) == metric["unit"], metric["name"]


def test_untraced_result_carries_end_to_end_metrics(tmp_path):
    proc = run_bench(tmp_path, "train-align", trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in BENCH["end_to_end"]})
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(tmp_path / "work", "evaluate", trace=0, cwd=tmp_path,
                     script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""
