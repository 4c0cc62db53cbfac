"""Smoke tests of the benchmark itself, on tiny problem sizes.

    python3 -m pytest perfbench/smoke.py -q

The file name keeps these tests out of the default pytest collection;
they spawn the benchmark and take about 20 s.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import mfgflow  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(autouse=True)
def _spans_to_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "TRACE_DIR", tmp_path / "spans")


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_runs_tiny(workload):
    names, times, outcomes = harness.run_round(workload, 0, workloads.TINY)
    assert len(names) == len(times) == len(outcomes) > 0
    assert all(o.failed == 0 and not o.problems for o in outcomes)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(trace, section):
    proc = _run(["--workload", "stress-1d", "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == expected


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_across_runs(workload):
    first = harness.measure(workload, 1, 0.0, trace=True, size="tiny")
    second = harness.measure(workload, 1, 0.0, trace=True, size="tiny")
    assert first["correct"] and second["correct"]
    for name in harness.COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_wrappers_gone_after_traced_run():
    before = {(m, a): getattr(sys.modules[m], a) for m, a, _ in tracing.TARGETS}
    harness.measure("presets-1d", 0, 0.0, trace=True, size="tiny")
    after = {(m, a): getattr(sys.modules[m], a) for m, a, _ in tracing.TARGETS}
    assert after == before
    assert tracing.originals_in_place()
    assert mfgflow.flow.solve_payoff is mfgflow.elliptic.solve_payoff


def test_wrappers_gone_after_error():
    with pytest.raises(ValueError):
        with tracing.Tracer() as tracer:
            with tracer.root("boom", 0):
                mfgflow.flow.select_lowest_income([1.0], [1.0], 0.5)
    assert tracer.spans[-1][tracing.ERROR] == "ValueError"
    assert tracing.originals_in_place()


def test_seed_changes_only_stress_inputs():
    assert workloads.stress_seeds(0, workloads.FULL) != workloads.stress_seeds(1, workloads.FULL)
    assert workloads.stress_seeds(5, workloads.FULL) == workloads.stress_seeds(5, workloads.FULL)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "presets-1d", "--seed", "0", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode == 2
    assert "correct" not in proc.stdout
