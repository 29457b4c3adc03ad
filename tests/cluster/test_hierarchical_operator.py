"""Tests of the matrix-free hierarchical operator and its assembly routing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bem.assembly import AssemblyOptions, assemble_system
from repro.bem.elements import DofManager, ElementType
from repro.bem.formulation import GroundingAnalysis
from repro.bem.influence import ColumnAssembler, element_pair_influence
from repro.cluster import HierarchicalControl, HierarchicalOperator
from repro.exceptions import AssemblyError, ClusterError, ReproError, SolverError
from repro.kernels.base import kernel_for_soil
from repro.solvers import solve_system


@pytest.fixture(scope="module")
def hier_small(small_mesh, uniform_soil):
    """Hierarchical system of the small uniform-soil mesh (tiny leaves so the
    partition actually produces far-field blocks)."""
    options = AssemblyOptions(hierarchical=HierarchicalControl(leaf_size=4))
    return assemble_system(small_mesh, uniform_soil, gpr=1000.0, options=options)


@pytest.fixture(scope="module")
def hier_rodded(rodded_mesh, two_layer_soil):
    options = AssemblyOptions(hierarchical=HierarchicalControl(leaf_size=4))
    return assemble_system(rodded_mesh, two_layer_soil, gpr=500.0, options=options)


class TestHierarchicalControl:
    def test_defaults_valid(self):
        control = HierarchicalControl()
        assert control.leaf_size >= 1
        assert 0.0 < control.tolerance < 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"leaf_size": 0},
            {"eta": 0.0},
            {"tolerance": 0.0},
            {"tolerance": 2.0},
            {"safety": 0.5},
            {"max_rank": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ClusterError):
            HierarchicalControl(**kwargs)


class TestOperatorMatchesDense:
    def test_entrywise_against_dense(self, small_mesh, uniform_soil, hier_small):
        dense = assemble_system(small_mesh, uniform_soil, gpr=1000.0)
        operator = hier_small.matrix
        scale = float(np.abs(dense.matrix).max())
        error = float(np.abs(operator.todense() - dense.matrix).max())
        # Contract: entrywise within a small factor of tol * ||A||_max
        # (near field identical, far field ACA-truncated).
        assert error <= 4.0 * operator.stats["tolerance"] * scale

    def test_entrywise_against_dense_rodded(self, rodded_mesh, two_layer_soil, hier_rodded):
        dense = assemble_system(rodded_mesh, two_layer_soil, gpr=500.0)
        operator = hier_rodded.matrix
        scale = float(np.abs(dense.matrix).max())
        error = float(np.abs(operator.todense() - dense.matrix).max())
        assert error <= 4.0 * operator.stats["tolerance"] * scale

    def test_operator_is_exactly_symmetric(self, hier_small):
        operator = hier_small.matrix
        dense = operator.todense()
        assert np.abs(dense - dense.T).max() <= 1e-12 * np.abs(dense).max()
        x = np.sin(np.arange(operator.shape[0]))
        y = np.cos(np.arange(operator.shape[0]))
        assert float(x @ operator.matvec(y)) == pytest.approx(
            float(y @ operator.matvec(x)), rel=1e-12
        )

    def test_matvec_matches_todense(self, hier_small, rng):
        operator = hier_small.matrix
        x = rng.normal(size=operator.shape[0])
        assert np.allclose(operator.matvec(x), operator.todense() @ x, rtol=1e-12)
        assert np.allclose(operator @ x, operator.matvec(x))

    def test_diagonal_matches_dense(self, small_mesh, uniform_soil, hier_small):
        dense = assemble_system(small_mesh, uniform_soil, gpr=1000.0)
        diag = hier_small.matrix.diagonal()
        scale = float(np.abs(dense.matrix).max())
        assert np.abs(diag - np.diag(dense.matrix)).max() <= 1e-8 * scale

    def test_matvec_rejects_bad_shape(self, hier_small):
        with pytest.raises(ClusterError):
            hier_small.matrix.matvec(np.ones(3))

    def test_memory_accounting_positive(self, hier_small):
        operator = hier_small.matrix
        assert operator.memory_bytes() > 0
        assert operator.stats["memory_bytes"] == operator.memory_bytes()
        assert operator.stats["dense_bytes"] == 8 * operator.shape[0] ** 2


class TestSystemRouting:
    def test_linear_system_carries_operator(self, hier_small, small_mesh):
        assert not hier_small.is_dense
        assert isinstance(hier_small.matrix, HierarchicalOperator)
        assert hier_small.metadata["backend"] == "hierarchical"
        assert hier_small.metadata["hierarchical"]["n_blocks"] > 0
        assert hier_small.symmetry_error() == 0.0
        with pytest.raises(AssemblyError):
            hier_small.diagonal_dominance_ratio()

    def test_stats_carry_no_timings(self, hier_small):
        # Durations live on the blocks.* / assemble.hierarchical spans.
        stats = hier_small.metadata["hierarchical"]
        assert not [key for key in stats if key.endswith("_seconds")]

    def test_rhs_matches_dense_assembly(self, small_mesh, uniform_soil, hier_small):
        dense = assemble_system(small_mesh, uniform_soil, gpr=1000.0)
        assert np.allclose(hier_small.rhs, dense.rhs)

    def test_hierarchical_true_uses_defaults(self, small_mesh, uniform_soil):
        options = AssemblyOptions(hierarchical=True)
        assert isinstance(options.hierarchical, HierarchicalControl)
        system = assemble_system(small_mesh, uniform_soil, gpr=1000.0, options=options)
        assert not system.is_dense

    def test_rejects_column_times_collection(self, small_mesh, uniform_soil):
        with pytest.raises(AssemblyError):
            assemble_system(
                small_mesh,
                uniform_soil,
                gpr=1000.0,
                options=AssemblyOptions(hierarchical=True),
                collect_column_times=True,
            )

    def test_exact_assembler_supported(self, small_mesh, uniform_soil):
        """hierarchical + adaptive=None routes the near field through the
        exact engine (slower, used by reference comparisons)."""
        options = AssemblyOptions(
            adaptive=None, hierarchical=HierarchicalControl(leaf_size=4)
        )
        system = assemble_system(small_mesh, uniform_soil, gpr=1000.0, options=options)
        dense = assemble_system(
            small_mesh, uniform_soil, gpr=1000.0, options=AssemblyOptions(adaptive=None)
        )
        scale = float(np.abs(dense.matrix).max())
        assert np.abs(system.matrix.todense() - dense.matrix).max() <= 4.0e-8 * scale


class TestSolveIntegration:
    def test_pcg_solution_matches_dense_direct(self, small_mesh, uniform_soil, hier_small):
        dense = assemble_system(small_mesh, uniform_soil, gpr=1000.0)
        reference = solve_system(dense.matrix, dense.rhs, method="cholesky")
        result = solve_system(hier_small.matrix, hier_small.rhs, method="pcg")
        assert result.converged
        assert np.allclose(result.solution, reference.solution, rtol=1e-5)

    def test_direct_solvers_rejected(self, hier_small):
        with pytest.raises(SolverError):
            solve_system(hier_small.matrix, hier_small.rhs, method="cholesky")

    def test_grounding_analysis_end_to_end(self, small_grid, uniform_soil):
        dense = GroundingAnalysis(small_grid, uniform_soil, gpr=1000.0).run()
        hier = GroundingAnalysis(
            small_grid,
            uniform_soil,
            gpr=1000.0,
            hierarchical=HierarchicalControl(leaf_size=4),
        ).run()
        assert hier.equivalent_resistance == pytest.approx(
            dense.equivalent_resistance, rel=1e-6
        )
        assert hier.metadata["backend"] == "hierarchical"

    def test_grounding_analysis_rejects_bad_combinations(self, small_grid, uniform_soil):
        from repro.parallel.options import ParallelOptions

        with pytest.raises(ReproError):
            GroundingAnalysis(
                small_grid, uniform_soil, hierarchical=True, solver="cholesky"
            )
        with pytest.raises(ReproError):
            GroundingAnalysis(
                small_grid,
                uniform_soil,
                hierarchical=True,
                parallel=ParallelOptions(n_workers=2),
            )


class TestAssemblerHelpers:
    def test_pair_block_row_matches_reference_pairs(self, small_mesh, uniform_soil):
        kernel = kernel_for_soil(uniform_soil)
        dofs = DofManager(small_mesh, ElementType.LINEAR)
        assembler = ColumnAssembler(small_mesh, kernel, dofs)
        element = 7
        others = np.array([2, 4, 11, 15])
        row = assembler.pair_block_row(element, others)
        for position, other in enumerate(others):
            if other < element:
                reference = element_pair_influence(
                    small_mesh.elements[element], small_mesh.elements[other], kernel, dofs
                )
                assert np.allclose(row[:, position, :], reference, rtol=1e-12)
            else:
                reference = element_pair_influence(
                    small_mesh.elements[other], small_mesh.elements[element], kernel, dofs
                )
                assert np.allclose(row[:, position, :], reference.T, rtol=1e-12)

    def test_pair_block_row_rejects_self(self, small_mesh, uniform_soil):
        kernel = kernel_for_soil(uniform_soil)
        dofs = DofManager(small_mesh, ElementType.LINEAR)
        assembler = ColumnAssembler(small_mesh, kernel, dofs)
        with pytest.raises(AssemblyError):
            assembler.pair_block_row(3, np.array([1, 3]))


class TestLongRodMeshes:
    def test_deep_rod_mesh_keeps_entrywise_contract(self):
        """Regression: clusters separated mostly vertically (40 m rods).

        The far-field samplers must key their truncation decisions on the
        *in-plane* separation (not the 3D cluster distance), and the ACA
        stop must be probe-verified — magnitude-stratified rod blocks used
        to trigger premature convergence two orders above the threshold.
        """
        from repro.geometry.builder import GridBuilder
        from repro.geometry.discretize import discretize_grid
        from repro.soil.two_layer import TwoLayerSoil

        builder = GridBuilder(
            depth=0.5, conductor_radius=6.0e-3, rod_radius=7.0e-3, rod_length=40.0
        )
        grid = builder.rectangular_mesh(25.0, 25.0, 6, 6)
        builder.add_rods(grid, [(0.0, 0.0), (25.0, 0.0), (0.0, 25.0), (25.0, 25.0)])
        soil = TwoLayerSoil(0.0025, 0.01, 1.0)
        mesh = discretize_grid(grid, soil=soil, max_element_length=2.0)
        dense = assemble_system(mesh, soil, gpr=10000.0)
        scale = float(np.abs(dense.matrix).max())
        for leaf_size in (16, 64):
            hier = assemble_system(
                mesh,
                soil,
                gpr=10000.0,
                options=AssemblyOptions(hierarchical=HierarchicalControl(leaf_size=leaf_size)),
            )
            error = float(np.abs(hier.matrix.todense() - dense.matrix).max())
            assert error <= 4.0e-8 * scale


class TestConstantElements:
    def test_constant_element_operator_matches_dense(self, small_mesh, uniform_soil):
        options_dense = AssemblyOptions(element_type=ElementType.CONSTANT)
        dense = assemble_system(small_mesh, uniform_soil, gpr=1000.0, options=options_dense)
        options_hier = AssemblyOptions(
            element_type=ElementType.CONSTANT,
            hierarchical=HierarchicalControl(leaf_size=4),
        )
        hier = assemble_system(small_mesh, uniform_soil, gpr=1000.0, options=options_hier)
        scale = float(np.abs(dense.matrix).max())
        assert np.abs(hier.matrix.todense() - dense.matrix).max() <= 4.0e-8 * scale
