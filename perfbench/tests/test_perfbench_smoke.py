"""The benchmark command end to end at smoke sizes, and its contract.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == spans.per_layer_metrics()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric_and_passes_its_checks(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], float) for m in line["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())
        # the finer stage metrics of the workload print by name
        for name in workloads.WORKLOADS[workload].units:
            assert f"  {name} " in proc.stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "event_pipeline", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_interaction_map_covers_every_layer_and_workload():
    imap = json.loads((BENCH / "interaction_map.json").read_text())
    assert list(imap["workloads"]) == list(run.WORKLOADS)
    layers = {entry["layer"] for entry in imap["layers"]}
    assert {name.split(".")[0] for name, _, _ in spans.per_layer_metrics()} == layers
    for entry in imap["layers"]:
        named = {m["workload"] for m in entry["moves"]} | set(entry["bypassed_by"])
        assert named <= set(run.WORKLOADS)
        assert not {m["workload"] for m in entry["moves"]} & set(entry["bypassed_by"])
