"""Smoke test of the benchmark at tiny input sizes.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# the one known-defect operation per pass (ROADMAP open item 2)
EXPECTED_FAILED = {"analyze": 1}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert [m["name"] for m in declared] == list(result["metrics"])
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_known_answers_and_end_to_end_names(workload, seed):
    result = result_of(bench("--workload", workload, "--seed", str(seed),
                             "--seconds", "0", "--trace", "0", "--tiny"))
    check_metrics(result, SPEC["end_to_end"])
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == EXPECTED_FAILED.get(workload, 0)
    for name in ("run_s", "setup_s", "peak_rss_mb"):
        assert result["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result = result_of(bench("--workload", workload, "--seed", "1",
                             "--seconds", "0", "--trace", "1", "--tiny"))
    check_metrics(result, SPEC["per_layer"])
    assert result["correct"] is True


def test_same_seed_same_inputs():
    runs = [result_of(bench("--workload", "check-sparse", "--seed", "3",
                            "--seconds", "0", "--trace", "1", "--tiny"))
            for _ in range(2)]
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] == "count" and not k.startswith("trace.")} for r in runs]
    assert counts[0] == counts[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
