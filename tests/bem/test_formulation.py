"""Tests for the GroundingAnalysis facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bem.elements import ElementType
from repro.bem.formulation import GroundingAnalysis
from repro.exceptions import ReproError, ValidationError
from repro.experiments.barbera import barbera_case
from repro.geometry.conductors import Conductor
from repro.geometry.grid import GroundingGrid
from repro.kernels.series import SeriesControl
from repro.observe import Tracer, canonical_trace_lines
from repro.parallel.options import ParallelOptions
from repro.soil.two_layer import TwoLayerSoil
from repro.soil.uniform import UniformSoil


class TestConfiguration:
    def test_rejects_bad_gpr(self, small_grid, uniform_soil):
        with pytest.raises(ReproError):
            GroundingAnalysis(small_grid, uniform_soil, gpr=-1.0)

    def test_element_type_from_string(self, small_grid, uniform_soil):
        analysis = GroundingAnalysis(small_grid, uniform_soil, element_type="constant")
        assert analysis.element_type is ElementType.CONSTANT

    def test_dof_count_linear_vs_constant(self, small_grid, uniform_soil, small_mesh):
        linear = GroundingAnalysis(small_grid, uniform_soil)
        constant = GroundingAnalysis(small_grid, uniform_soil, element_type="constant")
        assert linear.dof_count() == small_mesh.n_nodes
        assert constant.dof_count() == small_mesh.n_elements

    def test_validation_failure_propagates(self, uniform_soil):
        grid = GroundingGrid()
        grid.add(Conductor(np.array([0, 0, 0.0]), np.array([5, 0, 0.5]), 5e-3))
        with pytest.raises(ValidationError):
            GroundingAnalysis(grid, uniform_soil).run()

    def test_validation_can_be_disabled(self, uniform_soil):
        grid = GroundingGrid()
        grid.add(Conductor(np.array([0, 0, 0.001]), np.array([5, 0, 0.5]), 5e-3))
        results = GroundingAnalysis(grid, uniform_soil, validate=False).run()
        assert results.equivalent_resistance > 0.0


class TestRunResults:
    def test_timings_present(self, small_results):
        assert set(small_results.timings) == {
            "data_input",
            "data_preprocessing",
            "matrix_generation",
            "linear_system_solving",
            "results_storage",
        }

    def test_solver_choice_respected(self, small_grid, uniform_soil):
        direct = GroundingAnalysis(small_grid, uniform_soil, gpr=1000.0, solver="cholesky").run()
        iterative = GroundingAnalysis(small_grid, uniform_soil, gpr=1000.0, solver="pcg").run()
        assert direct.solver.method.startswith("cholesky")
        assert iterative.solver.method == "pcg"
        assert direct.equivalent_resistance == pytest.approx(
            iterative.equivalent_resistance, rel=1e-8
        )

    def test_gpr_linearity(self, small_grid, uniform_soil, small_results):
        doubled = GroundingAnalysis(small_grid, uniform_soil, gpr=2000.0).run()
        assert doubled.total_current == pytest.approx(2.0 * small_results.total_current, rel=1e-9)
        assert doubled.equivalent_resistance == pytest.approx(
            small_results.equivalent_resistance, rel=1e-9
        )

    def test_element_type_changes_dofs_not_physics(self, small_grid, uniform_soil, small_results):
        constant = GroundingAnalysis(
            small_grid, uniform_soil, gpr=1000.0, element_type="constant"
        ).run()
        assert constant.dof_manager.n_dofs == constant.mesh.n_elements
        # Constant and linear discretisations agree on Req to a few percent.
        assert constant.equivalent_resistance == pytest.approx(
            small_results.equivalent_resistance, rel=0.05
        )

    def test_collect_column_times(self, small_grid, uniform_soil):
        results = GroundingAnalysis(
            small_grid, uniform_soil, gpr=1000.0, collect_column_times=True
        ).run()
        assert "column_seconds" in results.metadata
        assert len(results.metadata["column_seconds"]) == results.mesh.n_elements

    def test_series_control_propagated(self, small_grid, two_layer_soil):
        loose = GroundingAnalysis(
            small_grid, two_layer_soil, gpr=1000.0, series_control=SeriesControl(tolerance=1e-2)
        ).run()
        tight = GroundingAnalysis(
            small_grid, two_layer_soil, gpr=1000.0, series_control=SeriesControl(tolerance=1e-8)
        ).run()
        # Both give similar physics but the loose series is a (slightly)
        # different approximation.
        assert loose.equivalent_resistance == pytest.approx(
            tight.equivalent_resistance, rel=0.02
        )
        assert loose.kernel.series_length(1, 1) < tight.kernel.series_length(1, 1)


class TestTracedAssembly:
    def test_every_worker_count_records_its_assembly(self):
        """One matrix-generation call: a traced dense analysis records its
        ``assemble.columns`` span under ``phase.matrix_generation`` for every
        worker count, and the canonical traces are byte-identical."""
        grid, soil, gpr = barbera_case("two_layer", coarse=True)
        canonical = []
        for parallel in (None, ParallelOptions(n_workers=1), ParallelOptions(n_workers=2)):
            tracer = Tracer()
            GroundingAnalysis(grid, soil, gpr=gpr, parallel=parallel, tracer=tracer).run()
            roots = tracer.finalize()
            (phase,) = [span for span in roots[0].children if span.name == "phase.matrix_generation"]
            assert [span.name for span in phase.children if span.kind == "span"] == [
                "assemble.columns"
            ]
            canonical.append(canonical_trace_lines(roots))
        assert canonical[1] == canonical[0]
        assert canonical[2] == canonical[0]


class TestPhysicalTrends:
    def test_two_layer_with_equal_layers_matches_uniform(self, small_grid):
        uniform = GroundingAnalysis(small_grid, UniformSoil(0.01), gpr=1000.0).run()
        degenerate = GroundingAnalysis(
            small_grid, TwoLayerSoil(0.01, 0.01, 1.0), gpr=1000.0
        ).run()
        assert degenerate.equivalent_resistance == pytest.approx(
            uniform.equivalent_resistance, rel=1e-9
        )

    def test_resistive_upper_layer_increases_resistance(self, small_grid):
        # Grid buried at 0.6 m inside a resistive 1 m top layer: Req must rise
        # relative to a uniform soil made of the conductive lower material.
        uniform = GroundingAnalysis(small_grid, UniformSoil(0.01), gpr=1000.0).run()
        layered = GroundingAnalysis(
            small_grid, TwoLayerSoil(0.0025, 0.01, 1.0), gpr=1000.0
        ).run()
        assert layered.equivalent_resistance > uniform.equivalent_resistance

    def test_conductive_lower_layer_decreases_resistance(self, small_grid):
        reference = GroundingAnalysis(small_grid, UniformSoil(0.01), gpr=1000.0).run()
        layered = GroundingAnalysis(small_grid, TwoLayerSoil(0.01, 0.1, 1.0), gpr=1000.0).run()
        assert layered.equivalent_resistance < reference.equivalent_resistance

    def test_more_conductive_soil_lower_resistance(self, small_grid):
        low = GroundingAnalysis(small_grid, UniformSoil(0.005), gpr=1000.0).run()
        high = GroundingAnalysis(small_grid, UniformSoil(0.02), gpr=1000.0).run()
        assert high.equivalent_resistance < low.equivalent_resistance

    def test_resistance_scales_with_resistivity_in_uniform_soil(self, small_grid):
        base = GroundingAnalysis(small_grid, UniformSoil(0.01), gpr=1000.0).run()
        doubled_resistivity = GroundingAnalysis(small_grid, UniformSoil(0.005), gpr=1000.0).run()
        assert doubled_resistivity.equivalent_resistance == pytest.approx(
            2.0 * base.equivalent_resistance, rel=1e-9
        )

    def test_rods_reduce_resistance(self, small_grid, uniform_soil):
        from repro.geometry.builder import GridBuilder

        with_rods = small_grid.copy()
        builder = GridBuilder(depth=0.6, conductor_radius=5e-3, rod_radius=7e-3, rod_length=3.0)
        builder.add_rods(with_rods, [(0.0, 0.0), (18.0, 0.0), (0.0, 18.0), (18.0, 18.0)])
        base = GroundingAnalysis(small_grid, uniform_soil, gpr=1000.0).run()
        improved = GroundingAnalysis(with_rods, uniform_soil, gpr=1000.0).run()
        assert improved.equivalent_resistance < base.equivalent_resistance

    def test_single_rod_matches_dwight_formula(self, single_rod_grid):
        """R = ρ/(2πL) (ln(4L/a) − 1) for a vertical rod near the surface."""
        rho = 100.0
        results = GroundingAnalysis(
            single_rod_grid, UniformSoil(1.0 / rho), gpr=1000.0, max_element_length=0.25
        ).run()
        length = 3.0
        radius = 7e-3
        dwight = rho / (2 * np.pi * length) * (np.log(4 * length / radius) - 1.0)
        assert results.equivalent_resistance == pytest.approx(dwight, rel=0.10)
