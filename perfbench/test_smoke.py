"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs once untraced and once traced; the result line must
carry exactly the metrics BENCHMARK.json lists, each with its unit, and the
report lines must name every end-to-end metric with a unit.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Printed on report lines for every workload, plus per-workload rates.
REPORTED = {"setup_s": "s", "peak_rss_mb": "MB", "op_s.p50": "s", "op_s.tail": "s",
            "op_s.tail_level": "%", "ops": "count", "ops_per_s": "1/s",
            "fail_ratio": "ratio"}
RATES = {"protocol": {"partitions_per_s": "1/s"},
         "bound-check": {"swaps_per_s": "1/s", "mc_trials_per_s": "1/s",
                         "bound_violations": "count"}}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1

    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(got["value"]), metric["name"]

    reported = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            reported[name] = unit
            assert math.isfinite(float(value)), line
    expected = {m["name"]: m["unit"] for m in spec}
    if not trace:
        expected.update(REPORTED)
        expected.update(RATES[workload])
    assert reported == expected


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero with no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
