"""Smoke test of the benchmark at a tiny input size.

Run with: python3 -m pytest -q bench/test_selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

_CPI = {
    "series.day_partition_s", "series.day_partition_calls", "series.detect_gaps_s",
    "series.energy_to_power_s", "series.fill_energy_s",
    "cpi.plan_s", "cpi.plan_calls", "cpi.interpolate_singles_s", "cpi.fit_weekly_pattern_s",
    "cpi.estimate_daily_energy_s", "cpi.compile_complete_days_s", "cpi.match_s",
    "cpi.match_calls", "cpi.paste_scale_s", "cpi.gaps", "cpi.gap_days",
    "cpi.distinct_assignment_ratio",
}
# Per-layer metrics that must be nonzero because the workload runs the layer.
ACTIVE_LAYERS = {
    "impute-csv": _CPI | {"series.parse_s", "series.format_s", "cli.import_s",
                          "cli.impute_self_s"},
    "evaluate-grid": _CPI | {"baselines.linear_s", "baselines.histavg_s",
                             "baselines.seasonal_s", "gapgen.insert_missing_s",
                             "gapgen.gaps_placed", "metrics.score_self_s", "metrics.mape_s",
                             "metrics.harness_self_s"},
    "tune-weights": _CPI | {"gapgen.insert_missing_s", "gapgen.gaps_placed",
                            "metrics.mape_s", "metrics.harness_self_s"},
}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "0.5",
                             "--trace", str(trace), "--size", "tiny"]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(ACTIVE_LAYERS)


@pytest.mark.parametrize("workload", list(ACTIVE_LAYERS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-2])["report"]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert report["error_rate"] == 0
    assert report["stamp"]["nproc"] >= 1 and report["stamp"]["numpy"]
    assert report["speed_reference"]["readings"] >= 2
    assert report["speed_reference"]["min_s"] > 0

    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if trace:
        for name in ACTIVE_LAYERS[workload]:
            assert metrics[name]["value"] > 0, name
    else:
        for name, m in metrics.items():
            assert m["value"] > 0, name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "evaluate-grid", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
