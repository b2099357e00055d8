"""Smoke test of the benchmark itself.

    python3 -m pytest bench/test_smoke.py

Runs every workload once untraced and once traced at the reduced sizes
of run.WORKLOADS, checks the result line against BENCHMARK.json, checks
that the correctness gate can fail, and that the benchmark refuses to
run without a source tree. Takes about a minute.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_run_py():
    assert DECLARED["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in spans.PER_LAYER.items()]
    assert set(spans.ALL) == set(run.WORKLOADS)
    for span in spans.SPANS:
        assert set(span.needs) <= set(run.WORKLOADS), span.name


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload_at_reduced_size(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", trace, "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= run.MIN_RUNS
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace == "1":
        for span in spans.SPANS:
            if workload in span.needs:
                assert f"span {span.name} " in proc.stdout


def test_gate_rejects_a_perturbed_series():
    ref = run.load_reference("spin")
    text = gzip.decompress((BENCH / "reference" / "spin" / "series.csv.gz")
                           .read_bytes()).decode()
    assert run.series_problem(text, ref) is None

    lines = text.splitlines()
    row = lines[200].split(",")
    row[2] = repr(float(row[2]) * (1.0 + 1e-8))
    lines[200] = ",".join(row)
    problem = run.series_problem("\n".join(lines) + "\n", ref)
    assert problem is not None and "row 199 column var_I" in problem


def test_refuses_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "spin", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".bench_out").exists()
