"""Tiny-length smoke test of the benchmark.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

Each workload runs for one second with tracing off and on.  Every metric
BENCHMARK.json names must be printed with its unit, and no op may fail.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))


def run_bench(workload, trace, cwd=ROOT, seconds=1):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)
    assert "metric error_rate = 0.0 ratio" in proc.stdout
    for m in SPEC["end_to_end"]:
        assert f"metric {m['name']} = " in proc.stdout


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_inputs_depend_only_on_the_seed():
    import run

    lib = run.load_library()
    for name in WORKLOADS:
        assert run.stream_digest(lib, name, 7) == run.stream_digest(lib, name, 7)
        assert run.stream_digest(lib, name, 7) != run.stream_digest(lib, name, 8)
