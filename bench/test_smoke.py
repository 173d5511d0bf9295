"""Smoke test of the benchmark itself, at a tiny size of every workload.

    python3 -m pytest bench -q

Checks that each run prints every metric BENCHMARK.json names, with its
unit; that traced counts repeat exactly; that a wrong expected verdict
makes the gate fail; and that the benchmark refuses to run without sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TIME_SUFFIXES = (".self_s", ".s", "trace_overhead_frac")


def bench(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny",
         *extra], capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    summary = next(json.loads(l)["summary"] for l in lines if l.startswith('{"summary"'))
    return json.loads(lines[-1]), summary


def assert_metrics(res, declared):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    printed = {name: m["unit"] for name, m in res["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    for m in res["metrics"].values():
        assert isinstance(m["value"], float | int)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_and_correct(workload):
    res, summary = result(bench(workload, 0))
    assert_metrics(res, SPEC["end_to_end"])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert summary["failed_frac"] == 0.0
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_printed_and_counts_repeat(workload):
    first, _ = result(bench(workload, 1))
    second, _ = result(bench(workload, 1))
    assert_metrics(first, SPEC["per_layer"])
    assert first["correct"] and second["correct"]
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if not k.endswith(TIME_SUFFIXES)} for r in (first, second)]
    assert counts[0] == counts[1]
    assert any(v > 0 for k, v in counts[0].items() if k.endswith(".calls"))


def test_wrong_expected_verdict_raises_failed_frac():
    _, clean = result(bench("verify_cli", 0))
    res, flipped = result(bench("verify_cli", 0, "--flip-verdict", "qseries.theta.A_4"))
    assert flipped["failed_frac"] > clean["failed_frac"]
    assert not res["correct"] and res["failed"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("point_sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
