"""Smoke test of the benchmark: every workload at toy size, checked and traced.

    python3 -m pytest bench
"""

import json
import subprocess
import sys
from pathlib import Path

from spans import LAYER_METRICS
from workloads import NAMES, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_size_runs_every_workload_with_checks_and_a_traced_run():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--size", "smoke", "--trace", "1", "--seconds", "0"],
        capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(NAMES)
    for name, result in zip(NAMES, results):
        assert result["correct"] and result["failed"] == 0, (name, proc.stderr)
        assert result["attempted"] >= 5, name
        assert set(result["metrics"]) == set(LAYER_METRICS), name
        for metric, value in result["metrics"].items():
            assert value["unit"] == LAYER_METRICS[metric]
            if value["unit"] == "count":
                assert value["value"] == int(value["value"]), (name, metric)
    by_name = dict(zip(NAMES, results))
    assert by_name["sweep_n500"]["metrics"]["bundling.greedy_merge_calls"]["value"] == 6
    assert by_name["stages_n200"]["metrics"]["forecast.read_forecast_csv_rows"]["value"] > 0
    assert by_name["fleet_n500"]["metrics"]["forecast.ridge_fit_calls"]["value"] == 0


def test_untraced_run_prints_every_end_to_end_metric_last():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--size", "smoke", "--workload", "fleet_n500",
         "--trace", "0", "--seconds", "0", "--seed", "3"],
        capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert set(result["metrics"]) == {"run_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "fail_frac = 0 " in proc.stdout and "nmae_fleet_pct" in proc.stdout


def test_benchmark_json_matches_the_harness():
    from run import END_TO_END

    spec = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
