"""Smoke tests of the benchmark at tiny scale: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH_JSON = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# the program's modules, plus the benchmark's own code
LAYERS = {"bench", "core", "data", "search", "kmeans", "screening", "distill",
          "evaluate", "cli"}


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    line, record, tr = run.run_workload(workload, 42, 0, 0, "tiny", tmp_path)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    want = {m["name"]: m["unit"] for m in BENCH_JSON["end_to_end"]}
    assert _units(line["metrics"]) == want
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert tr.spans == []
    assert record["host"]["blas_threads"] is not None


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_spans_resolve_and_cover_every_layer(workload, tmp_path):
    line, _, tr = run.run_workload(workload, 42, 0, 1, "tiny", tmp_path)
    assert line["correct"]
    want = {m["name"]: m["unit"] for m in BENCH_JSON["per_layer"]}
    assert _units(line["metrics"]) == want
    ids = {s[0] for s in tr.spans}
    assert all(s[1] is None or s[1] in ids for s in tr.spans)
    assert all(s[4] >= s[3] for s in tr.spans)
    assert min(run.self_times(tr.spans).values()) >= 0
    assert {s[2].split(".")[0] for s in tr.spans} == LAYERS
    records = tr.records()
    assert {r["run_id"] for r in records} == {tr.run_id}


def test_exact_valued_metrics_repeat(tmp_path):
    first, _, _ = run.run_workload("distill-pairs", 7, 0, 0, "tiny", tmp_path)
    second, _, _ = run.run_workload("distill-pairs", 7, 0, 0, "tiny", tmp_path)
    for name in ("accuracy", "speedup_ratio", "recall_at_1"):
        assert first["metrics"][name] == second["metrics"][name]


def test_reference_mismatch_is_a_failed_operation(monkeypatch):
    ref = json.loads((run.BENCH_DIR / "reference.json").read_text())["serve-100k"]["42"]
    got = {key: {"value": value} for key, value in ref.items()}
    got["speedup_ratio"]["value"] *= 0.8
    monkeypatch.setattr(run, "end_to_end_metrics", lambda b: got)
    bench = type("Bench", (), {"chk": run.Checks()})()
    assert run.check_reference("serve-100k", 42, bench)
    assert (bench.chk.attempted, bench.chk.failed) == (len(ref), 1)
    assert not run.check_reference("serve-100k", 1, bench)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-100k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
