"""End-to-end integration tests across the whole pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bem.formulation import GroundingAnalysis
from repro.bem.safety import SafetyAssessment
from repro.cad.project import GroundingProject, load_results_json
from repro.cad.report import design_report
from repro.geometry.builder import GridBuilder
from repro.geometry.io import save_grid
from repro.parallel.options import Backend, ParallelOptions
from repro.soil.two_layer import TwoLayerSoil
from repro.soil.uniform import UniformSoil
from repro.soil.inversion import fit_two_layer_model
from repro.soil.wenner import WennerSurvey


class TestFileToReportWorkflow:
    def test_full_workflow_from_grid_file(self, tmp_path, small_grid, two_layer_soil):
        """Grid file -> project -> results file -> safety report."""
        grid_path = save_grid(small_grid, tmp_path / "substation.json")
        project = GroundingProject(
            grid_path,
            two_layer_soil,
            gpr=10_000.0,
            workdir=tmp_path / "out",
            name="substation",
            parallel=ParallelOptions(n_workers=2, backend=Backend.PROCESS),
        )
        results = project.run()

        stored = load_results_json(tmp_path / "out" / "substation_results.json")
        assert stored["equivalent_resistance_ohm"] == pytest.approx(
            results.equivalent_resistance
        )

        surface = results.evaluator().surface_potential_over_grid(margin=10.0, n_x=15, n_y=15)
        safety = SafetyAssessment.from_surface(
            surface,
            gpr=results.gpr,
            equivalent_resistance=results.equivalent_resistance,
            total_current=results.total_current,
            soil_resistivity=1.0 / two_layer_soil.upper_conductivity,
        )
        report = design_report(results, safety=safety)
        assert "Equivalent resistance" in report
        assert "Safety assessment" in report

    def test_survey_to_analysis_workflow(self, small_grid):
        """Wenner sounding -> inversion -> layered analysis."""
        true_soil = TwoLayerSoil.from_resistivities(300.0, 100.0, 1.2)
        survey = WennerSurvey.synthetic(
            true_soil, [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0], noise_fraction=0.0
        )
        fitted = fit_two_layer_model(survey).soil
        reference = GroundingAnalysis(small_grid, true_soil, gpr=10_000.0).run()
        fitted_run = GroundingAnalysis(small_grid, fitted, gpr=10_000.0).run()
        assert fitted_run.equivalent_resistance == pytest.approx(
            reference.equivalent_resistance, rel=0.02
        )


class TestGlobalEnergyAndFieldConsistency:
    def test_energy_identity(self, small_system, small_results):
        """q·(R q) = GPR · I_Γ — the Galerkin identity linking matrix and current."""
        q = small_results.dof_values
        lhs = float(q @ (small_system.matrix @ q))
        rhs = small_results.gpr * small_results.total_current
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_two_layer_far_field_controlled_by_lower_layer(self, rodded_grid):
        """Far from the grid the surface potential behaves as I/(2π γ₂ r)."""
        soil = TwoLayerSoil(0.0025, 0.01, 1.0)
        results = GroundingAnalysis(rodded_grid, soil, gpr=1000.0).run()
        evaluator = results.evaluator()
        r = 3000.0
        value = float(evaluator.potential_at(np.array([r, 0.0, 0.0])))
        expected = results.total_current / (2.0 * np.pi * soil.lower_conductivity * r)
        assert value == pytest.approx(expected, rel=0.05)

    def test_uniform_far_field(self, small_results, uniform_soil):
        evaluator = small_results.evaluator()
        r = 1500.0
        value = float(evaluator.potential_at(np.array([0.0, r, 0.0])))
        expected = small_results.total_current / (2.0 * np.pi * uniform_soil.conductivity * r)
        assert value == pytest.approx(expected, rel=0.03)

    def test_dirichlet_condition_on_two_layer_solution(self, rodded_grid, two_layer_soil):
        """V ≈ GPR on the electrode surface for a refined layered solution.

        The pointwise recovery of the essential boundary condition improves
        with mesh refinement (the coarse one-element-per-conductor mesh shows
        ~25 % deviations at element midpoints near junctions); with 0.5 m
        elements the mean deviation is below a few percent.
        """
        results = GroundingAnalysis(
            rodded_grid, two_layer_soil, gpr=1000.0, max_element_length=0.5
        ).run()
        evaluator = results.evaluator()
        points = []
        for element in results.mesh.elements:
            mid = element.midpoint.copy()
            direction = element.direction
            # Offset radially (perpendicular to the element axis).
            perpendicular = np.array([-direction[1], direction[0], 0.0])
            if np.linalg.norm(perpendicular) < 1e-9:
                perpendicular = np.array([1.0, 0.0, 0.0])
            perpendicular /= np.linalg.norm(perpendicular)
            points.append(mid + element.radius * perpendicular)
        values = evaluator.potential_at(np.array(points))
        errors = np.abs(values - results.gpr) / results.gpr
        assert errors.mean() < 0.03
        assert errors.max() < 0.15

    def test_symmetric_grid_produces_symmetric_leakage(self, uniform_soil):
        """A square grid must leak symmetrically under a 90° rotation."""
        builder = GridBuilder(depth=0.7, conductor_radius=5e-3, name="sym")
        grid = builder.rectangular_mesh(20.0, 20.0, 2, 2)
        results = GroundingAnalysis(grid, uniform_soil, gpr=1000.0).run()
        mesh = results.mesh
        leakage = results.leakage_per_element()
        centre = np.array([10.0, 10.0, 0.7])

        def rotate(point):
            relative = point - centre
            return centre + np.array([-relative[1], relative[0], relative[2]])

        midpoints = np.array([e.midpoint for e in mesh.elements])
        for index, element in enumerate(mesh.elements):
            rotated = rotate(element.midpoint)
            distances = np.linalg.norm(midpoints - rotated, axis=1)
            partner = int(np.argmin(distances))
            assert distances[partner] < 1e-6
            # Exact symmetry is broken only at quadrature-error level: the
            # Galerkin blocks are integrated with Gauss points on the target
            # element and analytically on the source, so rotated pairs agree
            # to ~1e-4 rather than machine precision.
            assert leakage[index] == pytest.approx(leakage[partner], rel=1e-3)


class TestParallelSerialEquivalence:
    def test_full_analysis_identical_with_parallel_backend(self, rodded_grid, two_layer_soil):
        serial = GroundingAnalysis(rodded_grid, two_layer_soil, gpr=10_000.0).run()
        parallel = GroundingAnalysis(
            rodded_grid,
            two_layer_soil,
            gpr=10_000.0,
            parallel=ParallelOptions(n_workers=4, backend=Backend.PROCESS),
        ).run()
        # Re-baselined with the adaptive assembly default: the engine's
        # decisions are grouping-independent, but the BLAS term reductions
        # block differently for different batch shapes, so backends agree to
        # ~1e-10 instead of bit-for-bit.
        assert parallel.equivalent_resistance == pytest.approx(
            serial.equivalent_resistance, rel=1e-10
        )
        assert np.allclose(parallel.dof_values, serial.dof_values, rtol=1e-9)
