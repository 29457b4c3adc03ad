"""Tests for the CAD project driver (the five-phase pipeline)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cad.project import PHASES, GroundingProject, PhaseReport, load_results_json
from repro.exceptions import ExperimentError
from repro.geometry.io import save_grid
from repro.parallel.options import Backend, ParallelOptions


class TestPhaseReport:
    def test_rows_in_canonical_order(self):
        report = PhaseReport(seconds={"matrix_generation": 2.0, "data_input": 0.1})
        rows = report.as_rows()
        assert [name for name, _ in rows] == list(PHASES)
        assert dict(rows)["matrix_generation"] == pytest.approx(2.0)
        assert dict(rows)["results_storage"] == 0.0

    def test_dominant_phase_and_fraction(self):
        report = PhaseReport(seconds={"matrix_generation": 3.0, "data_input": 1.0})
        assert report.dominant_phase() == "matrix_generation"
        assert report.fraction("matrix_generation") == pytest.approx(0.75)
        assert report.total == pytest.approx(4.0)

    def test_dominant_phase_empty_raises(self):
        with pytest.raises(ExperimentError):
            PhaseReport().dominant_phase()


class TestGroundingProject:
    def test_run_produces_results_and_phase_table(self, small_grid, uniform_soil):
        project = GroundingProject(small_grid, uniform_soil, gpr=1000.0)
        results = project.run()
        assert results.equivalent_resistance > 0.0
        table = project.phase_table()
        assert [name for name, _ in table] == list(PHASES)
        assert all(seconds >= 0.0 for _, seconds in table)
        assert project.phase_report.dominant_phase() == "matrix_generation"

    def test_matches_direct_analysis(self, small_grid, uniform_soil, small_results):
        project = GroundingProject(small_grid, uniform_soil, gpr=1000.0)
        results = project.run()
        assert results.equivalent_resistance == pytest.approx(
            small_results.equivalent_resistance, rel=1e-10
        )

    def test_phase_table_before_run_raises(self, small_grid, uniform_soil):
        project = GroundingProject(small_grid, uniform_soil)
        with pytest.raises(ExperimentError):
            project.phase_table()
        with pytest.raises(ExperimentError):
            project.summary()

    def test_loads_grid_from_file(self, tmp_path, small_grid, uniform_soil):
        path = save_grid(small_grid, tmp_path / "grid.json")
        project = GroundingProject(path, uniform_soil, gpr=1000.0)
        results = project.run()
        assert results.mesh.grid.n_conductors == small_grid.n_conductors
        assert project.name == "grid"

    def test_stores_results_to_workdir(self, tmp_path, small_grid, uniform_soil):
        project = GroundingProject(
            small_grid, uniform_soil, gpr=1000.0, workdir=tmp_path / "out", name="case"
        )
        results = project.run()
        results_file = tmp_path / "out" / "case_results.json"
        grid_file = tmp_path / "out" / "case_grid.json"
        assert results_file.exists()
        assert grid_file.exists()
        payload = load_results_json(results_file)
        assert payload["project"] == "case"
        assert payload["equivalent_resistance_ohm"] == pytest.approx(
            results.equivalent_resistance
        )
        assert len(payload["dof_values"]) == results.dof_manager.n_dofs

    def test_load_results_missing_file(self, tmp_path):
        with pytest.raises(ExperimentError):
            load_results_json(tmp_path / "nope.json")

    def test_summary_includes_phases(self, small_grid, uniform_soil):
        project = GroundingProject(small_grid, uniform_soil, gpr=1000.0)
        project.run()
        summary = project.summary()
        assert summary["dominant_phase"] == "matrix_generation"
        assert set(summary["phase_seconds"]) == set(PHASES)

    def test_parallel_matrix_generation(self, small_grid, uniform_soil, small_results):
        project = GroundingProject(
            small_grid,
            uniform_soil,
            gpr=1000.0,
            parallel=ParallelOptions(n_workers=2, backend=Backend.PROCESS),
        )
        results = project.run()
        assert results.equivalent_resistance == pytest.approx(
            small_results.equivalent_resistance, rel=1e-10
        )
        assert results.metadata["n_workers"] == 2

    def test_solver_and_element_type_options(self, small_grid, uniform_soil):
        project = GroundingProject(
            small_grid, uniform_soil, gpr=1000.0, element_type="constant", solver="cholesky"
        )
        results = project.run()
        assert results.dof_manager.element_type.value == "constant"
        assert results.solver.method.startswith("cholesky")
