"""Smoke test of the benchmark: every workload at toy size, untraced
and traced, run through the command line in a copy of the checkout,
reports every metric BENCHMARK.json names and passes its correctness
gate. Timing values are not checked."""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
BENCH = json.loads((REPO / "BENCHMARK.json").read_text())


def copy_checkout(dest: Path, with_src: bool) -> Path:
    shutil.copy(REPO / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_src:
        shutil.copytree(REPO / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def bench(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=checkout, env=env, capture_output=True,
                          text=True, timeout=300)


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    return copy_checkout(tmp_path_factory.mktemp("checkout"), with_src=True)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_reports_every_metric(checkout, workload, trace):
    proc = bench(checkout, "--workload", workload, "--seed", "11",
                 "--seconds", "0", "--trace", trace, "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    if trace == "1":
        assert result["metrics"]["trace.accounted_share"]["value"] == \
            pytest.approx(1.0, abs=0.01)


def test_refuses_to_run_without_the_library(tmp_path):
    proc = bench(copy_checkout(tmp_path, with_src=False), "--workload",
                 "tensor_deep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
