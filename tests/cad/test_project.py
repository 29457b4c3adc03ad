"""Tests for the results storage of the CAD workflow."""

from __future__ import annotations

import pytest

from repro.cad.project import load_results_json, save_results
from repro.exceptions import ExperimentError
from repro.geometry.io import load_grid


class TestSaveResults:
    def test_round_trip(self, tmp_path, small_grid, small_results):
        results_file = save_results(small_results, tmp_path / "out", name="case")
        grid_file = tmp_path / "out" / "case_grid.json"
        assert results_file == tmp_path / "out" / "case_results.json"
        assert grid_file.exists()
        assert load_grid(grid_file).n_conductors == small_grid.n_conductors
        payload = load_results_json(results_file)
        assert payload["project"] == "case"
        assert payload["gpr_v"] == small_results.gpr
        assert payload["soil"] == small_results.soil.to_dict()
        assert payload["equivalent_resistance_ohm"] == pytest.approx(
            small_results.equivalent_resistance
        )
        assert payload["timings_s"] == small_results.timings
        assert payload["dof_values"] == small_results.dof_values.tolist()
        assert len(payload["dof_values"]) == small_results.dof_manager.n_dofs

    def test_load_results_missing_file(self, tmp_path):
        with pytest.raises(ExperimentError):
            load_results_json(tmp_path / "nope.json")
