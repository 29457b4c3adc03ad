"""Tests of the parallel-scaling experiment drivers (coarse workloads).

The simulator-driven artefacts (Fig. 6.1, Table 6.2) are exercised with the
*deterministic* analytic cost profile so they pass identically on any host —
including 1-core machines where measured coarse profiles are dominated by
scheduler jitter.  The measured-profile path keeps its own tests.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.bem.assembly import AssemblyOptions
from repro.exceptions import ExperimentError
from repro.experiments.scaling import (
    PAPER_TABLE_6_2,
    PAPER_TABLE_6_3,
    TABLE_6_2_SCHEDULES,
    deterministic_column_costs,
    figure_6_1_curves,
    measure_column_costs,
    measure_real_speedups,
    table_6_2_speedups,
    table_6_3_rows,
)


@pytest.fixture(scope="module")
def coarse_column_costs():
    costs, total = measure_column_costs("barbera/uniform", coarse=True)
    return costs, total


@pytest.fixture(scope="module")
def deterministic_costs():
    return deterministic_column_costs("barbera/uniform", coarse=True)


class TestMeasureColumnCosts:
    def test_costs_shape_and_total(self, coarse_column_costs):
        costs, total = coarse_column_costs
        assert costs.ndim == 1
        assert costs.size > 50
        assert np.all(costs >= 0.0)
        # The summed column times cannot exceed the measured wall time (the
        # min-of-repeats reduction keeps this invariant).
        assert costs.sum() <= total * 1.05

    def test_median_reduction(self):
        costs, total = measure_column_costs(
            "barbera/uniform", coarse=True, repeats=3, reduction="median"
        )
        assert costs.ndim == 1
        assert np.all(costs >= 0.0)
        assert total > 0.0

    def test_bad_repeats_rejected(self):
        with pytest.raises(ExperimentError):
            measure_column_costs("barbera/uniform", coarse=True, repeats=0)

    def test_bad_reduction_rejected(self):
        with pytest.raises(ExperimentError):
            measure_column_costs("barbera/uniform", coarse=True, reduction="mean")

    def test_unknown_case_rejected(self):
        with pytest.raises(ExperimentError):
            measure_column_costs("unknown/case")

    def test_warmup_runs_the_timed_engine(self, monkeypatch):
        # The warm-up column must pay the one-off costs of the engine the
        # timed assembly runs (the adaptive one by default), not the exact one.
        import repro.bem.influence as influence

        controls = []

        class RecordingAssembler(influence.ColumnAssembler):
            def __init__(self, *args, **kwargs):
                controls.append(kwargs.get("adaptive"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(influence, "ColumnAssembler", RecordingAssembler)
        options = AssemblyOptions()
        measure_column_costs("barbera/uniform", coarse=True, options=options, repeats=1)
        assert controls and controls[0] == options.adaptive


class TestDeterministicCosts:
    def test_profile_shape_and_scale(self, deterministic_costs):
        costs = deterministic_costs
        assert costs.ndim == 1
        assert costs.size > 50
        assert np.all(costs > 0.0)
        # Default scaling: one nominal second per column on average.
        assert costs.sum() == pytest.approx(float(costs.size))

    def test_profile_is_reproducible(self, deterministic_costs):
        again = deterministic_column_costs("barbera/uniform", coarse=True)
        assert np.array_equal(again, deterministic_costs)

    def test_uniform_soil_profile_decreases(self, deterministic_costs):
        # One layer → every column's cost is proportional to its target count,
        # which decreases linearly along the triangle.
        assert np.all(np.diff(deterministic_costs) <= 0.0)

    def test_explicit_total(self):
        costs = deterministic_column_costs(
            "barbera/uniform", coarse=True, total_seconds=42.0
        )
        assert costs.sum() == pytest.approx(42.0)


class TestFigure61:
    def test_curve_structure(self, deterministic_costs):
        curves = figure_6_1_curves(deterministic_costs, processor_counts=[1, 2, 4, 8, 16])
        assert set(curves) == {"outer", "inner"}
        assert len(curves["outer"]) == 5
        outer_speedups = [row["speedup"] for row in curves["outer"]]
        inner_speedups = [row["speedup"] for row in curves["inner"]]
        # Outer-loop parallelisation dominates the inner one at high counts.
        assert outer_speedups[-1] > inner_speedups[-1]
        # Outer speed-up close to the processor count (paper's Fig. 6.1).
        assert outer_speedups[-1] == pytest.approx(16.0, rel=0.15)

    def test_curves_are_deterministic(self, deterministic_costs):
        first = figure_6_1_curves(deterministic_costs, processor_counts=[1, 8, 16])
        second = figure_6_1_curves(deterministic_costs, processor_counts=[1, 8, 16])
        assert first == second


class TestTable62:
    def test_simulated_table_shape_and_trends(self, deterministic_costs):
        table = table_6_2_speedups(deterministic_costs, processor_counts=(1, 2, 4, 8))
        assert set(table) == set(TABLE_6_2_SCHEDULES)
        for label, row in table.items():
            assert set(row) == {1, 2, 4, 8}
            assert row[1] == pytest.approx(1.0, abs=0.05)
        # Key qualitative findings of the paper's Table 6.2:
        assert table["Dynamic,1"][8] > table["Static"][8]
        assert table["Static,1"][8] > table["Static,64"][8]
        assert table["Dynamic,1"][8] == pytest.approx(8.0, rel=0.1)
        assert table["Guided,1"][8] == pytest.approx(8.0, rel=0.15)

    def test_paper_reference_table_contents(self):
        assert PAPER_TABLE_6_2["Dynamic,1"][8] == 8.05
        assert PAPER_TABLE_6_3["C"][8] == (53.53, 8.28)


class TestTable63:
    def test_simulated_rows_from_measured_profile(self):
        rows = table_6_3_rows(processor_counts=(1, 2), models=("A",))
        assert [(row["soil_model"], row["n_processors"]) for row in rows] == [
            ("A", 1),
            ("A", 2),
        ]
        assert set(rows[0]) == {
            "soil_model",
            "n_processors",
            "cpu_seconds",
            "speedup",
            "sequential_wall_seconds",
        }
        assert rows[0]["sequential_wall_seconds"] == rows[1]["sequential_wall_seconds"] > 0.0
        assert np.isfinite(rows[1]["speedup"]) and rows[1]["speedup"] > rows[0]["speedup"]


class TestRealSpeedups:
    def test_rows_and_reference(self):
        # Counts above the host's CPU count oversubscribe instead of being
        # silently dropped, so this passes identically on a 1-core host.
        rows = measure_real_speedups(
            "barbera/uniform", processor_counts=(1, 2), coarse=True
        )
        assert rows[0]["n_processors"] == 1
        assert rows[0]["speedup"] == pytest.approx(1.0)
        assert rows[0]["oversubscribed"] is False
        assert [row["backend"] for row in rows] == ["sequential", "process"]
        assert {row["n_processors"] for row in rows} == {1, 2}
        available = os.cpu_count() or 1
        for row in rows:
            assert row["cpu_seconds"] > 0.0
            assert row["oversubscribed"] is (row["n_processors"] > available)

    def test_max_workers_bounds_pool_sizes(self):
        rows = measure_real_speedups(
            "barbera/uniform", processor_counts=(1, 2, 10_000), coarse=True, max_workers=2
        )
        assert {row["n_processors"] for row in rows} == {1, 2}
