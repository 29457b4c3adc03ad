"""Tests of the benchmark harness itself (not of the program it measures)."""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import perfstats  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ---------------------------------------------------------------- percentile rule


def test_percentile_needs_ten_samples_beyond_it():
    assert perfstats.supported_percentile(list(range(39)), 75) is None
    assert perfstats.supported_percentile(list(range(40)), 75) == 29
    assert perfstats.tail_percentile(list(range(39))) is None
    assert perfstats.tail_percentile(list(range(100))) == (90, 89)


def test_ties_at_the_percentile_do_not_count_as_beyond():
    samples = [1.0] * 35 + [2.0] * 9
    assert perfstats.supported_percentile(samples, 75) is None


# ---------------------------------------------------------------- verdicts


def test_verdicts_follow_the_bound_and_the_spread():
    base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert perfstats.verdict(base, base, 0.1, "lower") == "unchanged"
    assert perfstats.verdict(base, [v * 1.3 for v in base], 0.1, "lower") == "worse"
    assert perfstats.verdict(base, [v * 0.8 for v in base], 0.1, "lower") == "better"
    assert perfstats.verdict(base, [v * 0.8 for v in base], 0.1, "higher") == "worse"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    assert perfstats.verdict(base, noisy, 0.1, "lower") == "unresolved"
    # A gain needs ten pairs; a regression is reported on fewer.
    assert perfstats.verdict(base[:4], [v * 0.8 for v in base[:4]], 0.1, "lower") == "unchanged"
    assert perfstats.verdict(base[:4], [v * 1.3 for v in base[:4]], 0.1, "lower") == "worse"


def test_compare_judges_the_ungated_op_times():
    def results(op_times):
        return {"runs": [{"workload": "hier-grid", "trace": 0, "extra": {"op_p50_s": t},
                          "metrics": {"setup_s": {"value": 1.0}, "peak_rss_mb": {"value": 100.0}}}
                         for t in op_times]}

    base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    lines, any_worse = compare.compare(results(base), results([t * 1.3 for t in base]), SPEC)
    row = next(line for line in lines if "op_p50_s" in line)
    assert "worse" in row and "not gated" in row and any_worse


# ---------------------------------------------------------------- output oracles


def test_a_corrupted_reference_value_fails_the_op():
    reference = copy.deepcopy(REFERENCE)
    reference["quick"]["barbera-design"]["r_eq_ohm"] *= 1.001
    result = child.run_round("barbera-design", seed=0, seconds=0.0, quick=True,
                             reference=reference)
    assert result["attempted"] == 1 and result["failed"] == 1
    assert "R_eq" in result["failures"][0]
    folded = run.aggregate("barbera-design", [result], [0.01], False, SPEC)
    assert folded["correct"] is False and folded["failed"] == 1


def test_the_true_reference_passes():
    result = child.run_round("barbera-design", seed=0, seconds=0.0, quick=True,
                             reference=REFERENCE)
    assert result["failed"] == 0, result["failures"]


# ---------------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert SPEC["command"][1] == "benchmarks/perf/run.py"
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), names
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    # Every other end-to-end metric holds 10 %; one that cannot is moved, ungated.
    assert all(m["bound"] <= 0.1 for m in SPEC["end_to_end"] if m is not setup)
    assert set(compare.UNGATED) <= {m["name"] for m in SPEC["per_layer"]}
    assert list(run.WORKLOAD_NAMES) == [w["name"] for w in SPEC["workloads"]]


def test_layer_map_names_existing_metrics_and_workloads():
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    mapped = [name for row in layers.LAYER_MAP for name in row["metrics"]]
    assert mapped == per_layer
    end_to_end = {m["name"] for m in SPEC["end_to_end"]} | set(compare.UNGATED)
    workloads = {w["name"] for w in SPEC["workloads"]}
    for row in layers.LAYER_MAP:
        for metric, workload in row["moves"]:
            assert metric in end_to_end and workload in workloads, row["layer"]


# ---------------------------------------------------------------- end to end


def test_quick_run_covers_every_workload_and_metric(monkeypatch):
    monkeypatch.setattr(run, "ROUNDS", 1)
    results = run.run_workloads(list(run.WORKLOAD_NAMES), seed=3, seconds=0.1, trace=True,
                                quick=True)
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    for name, result in results.items():
        assert result["correct"] is True, (name, result["failures"])
        assert result["attempted"] >= 2 and result["failed"] == 0
        assert set(result["metrics"]) == layer_names
        explained = result["metrics"]["trace.explained_frac"]["value"]
        assert 0.5 < explained <= 1.0, (name, explained)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    bench = tmp_path / "benchmarks" / "perf"
    bench.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    process = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "hier-grid", "--seed", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert process.returncode != 0 and process.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_aggregate_reports_exactly_the_declared_metrics(trace):
    rounds = [
        {"workload": "hier-grid", "samples": {"op": [1.0, 1.2], "op_traced": [1.1]},
         "failures": [], "attempted": 3, "failed": 0, "digest": "d", "setup_s": 0.5,
         "timed_s": 4.0, "peak_rss_mb": 100.0, "n_workers": 2,
         "layers": [{"wall": 1.1, "explained_s": 1.0}]}
    ]
    folded = run.aggregate("hier-grid", rounds, [0.01], bool(trace), SPEC)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(folded["metrics"]) == {m["name"] for m in declared}
    assert folded["correct"] is True
    # Closed-loop throughput: passed ops over the timed wall, not 1 / mean op time.
    ops_per_s = folded["metrics"]["ops_per_s"]["value"] if trace else folded["extra"]["ops_per_s"]
    assert ops_per_s == pytest.approx(2 / 4.0)
