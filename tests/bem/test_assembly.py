"""Tests for the sequential assembly of the Galerkin system."""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.bem.assembly import (
    AssemblyOptions,
    ColumnResult,
    assemble_from_columns,
    assemble_rhs,
    assemble_system,
)
from repro.bem.elements import DofManager, ElementType
from repro.bem.influence import ColumnAssembler
from repro.exceptions import AssemblyError
from repro.kernels.base import kernel_for_soil
from repro.kernels.series import SeriesControl


def _column(assembler, index):
    [(targets, blocks)] = assembler.column_batch([index])
    return ColumnResult(index, targets, blocks)


class TestAssemblyOptions:
    def test_defaults(self):
        from repro.kernels.truncation import AdaptiveControl

        options = AssemblyOptions()
        assert options.element_type is ElementType.LINEAR
        assert options.n_gauss >= 1
        # The adaptive engine is the assembly default since the hierarchical
        # PR (matrices match the exact engine to 1e-8 * ||A||max).
        assert isinstance(options.adaptive, AdaptiveControl)
        assert options.hierarchical is None

    def test_string_element_type(self):
        options = AssemblyOptions(element_type="constant")
        assert options.element_type is ElementType.CONSTANT

    def test_rejects_bad_gauss(self):
        with pytest.raises(AssemblyError):
            AssemblyOptions(n_gauss=0)


class TestRhs:
    def test_rhs_scales_with_gpr(self, small_dofs):
        rhs_1 = assemble_rhs(small_dofs, gpr=1.0)
        rhs_2 = assemble_rhs(small_dofs, gpr=2000.0)
        assert np.allclose(rhs_2, 2000.0 * rhs_1)

    def test_rhs_sum_is_gpr_times_length(self, small_dofs, small_mesh):
        rhs = assemble_rhs(small_dofs, gpr=500.0)
        assert rhs.sum() == pytest.approx(500.0 * small_mesh.total_length)

    def test_rejects_bad_gpr(self, small_dofs):
        with pytest.raises(AssemblyError):
            assemble_rhs(small_dofs, gpr=0.0)


class TestAssembledSystem:
    def test_shapes_and_metadata(self, small_system, small_mesh):
        assert small_system.matrix.shape == (small_mesh.n_nodes, small_mesh.n_nodes)
        assert small_system.rhs.shape == (small_mesh.n_nodes,)
        assert small_system.metadata["n_elements"] == small_mesh.n_elements
        assert small_system.metadata["backend"] == "sequential"
        assert "column_seconds" in small_system.metadata

    def test_matrix_symmetric(self, small_system):
        assert small_system.symmetry_error() < 1e-13

    def test_matrix_positive_definite(self, small_system):
        eigenvalues = np.linalg.eigvalsh(small_system.matrix)
        assert eigenvalues.min() > 0.0

    def test_matrix_entries_positive(self, small_system):
        # The grounding kernel is positive, hence so are all Galerkin entries.
        assert np.all(small_system.matrix > 0.0)

    def test_column_times_recorded(self, small_system, small_mesh):
        times = small_system.metadata["column_seconds"]
        assert len(times) == small_mesh.n_elements
        assert np.all(np.asarray(times) >= 0.0)

    def test_constant_elements_system(self, small_mesh, uniform_soil):
        system = assemble_system(
            small_mesh,
            uniform_soil,
            gpr=100.0,
            options=AssemblyOptions(element_type=ElementType.CONSTANT),
        )
        assert system.matrix.shape == (small_mesh.n_elements, small_mesh.n_elements)
        assert np.linalg.eigvalsh(system.matrix).min() > 0.0

    def test_two_layer_system_spd(self, rodded_mesh, two_layer_soil):
        system = assemble_system(
            rodded_mesh,
            two_layer_soil,
            gpr=100.0,
            options=AssemblyOptions(series_control=SeriesControl(tolerance=1e-6)),
        )
        assert system.symmetry_error() < 1e-13
        assert np.linalg.eigvalsh(system.matrix).min() > 0.0
        assert system.metadata["soil_layers"] == 2
        assert system.metadata["kernel_terms"]["k11"] > 2


class TestAssembleFromColumns:
    @pytest.fixture
    def assembler(self, small_mesh, uniform_soil):
        kernel = kernel_for_soil(uniform_soil)
        dofs = DofManager(small_mesh, ElementType.LINEAR)
        return ColumnAssembler(small_mesh, kernel, dofs, n_gauss=4)

    @staticmethod
    def _fold(columns, assembler):
        return assemble_from_columns(columns, assembler, gpr=1000.0)

    def test_matches_direct_assembly(self, small_mesh, assembler, small_system):
        columns = [_column(assembler, i) for i in range(small_mesh.n_elements)]
        system = self._fold(columns, assembler)
        assert np.allclose(system.matrix, small_system.matrix, rtol=1e-14)
        assert np.allclose(system.rhs, small_system.rhs)

    def test_shuffled_columns_fold_bitwise(self, coarse_barbera):
        """The fold's result does not depend on the order the columns arrive in,
        and equals the sequential driver's (same groups, same order)."""
        mesh, soil, gpr = coarse_barbera
        dofs = DofManager(mesh, ElementType.LINEAR)
        assembler = ColumnAssembler(mesh, kernel_for_soil(soil), dofs, n_gauss=4)
        assert assembler.max_batch_size() < mesh.n_elements  # several groups
        columns = [_column(assembler, i) for i in range(mesh.n_elements)]
        shuffled = list(columns)
        np.random.default_rng(7).shuffle(shuffled)
        forward = self._fold(columns, assembler)
        assert np.array_equal(self._fold(shuffled, assembler).matrix, forward.matrix)
        assert np.array_equal(self._fold(columns[::-1], assembler).matrix, forward.matrix)
        exact = AssemblyOptions(adaptive=None)
        serial = assemble_system(mesh, soil, gpr=gpr, options=exact, collect_column_times=True)
        assert np.array_equal(forward.matrix, serial.matrix)

    def test_rejects_duplicate_columns(self, small_mesh, assembler):
        columns = [_column(assembler, i) for i in range(small_mesh.n_elements)]
        with pytest.raises(AssemblyError, match="twice"):
            self._fold([columns[0], *columns], assembler)

    def test_rejects_missing_columns(self, assembler):
        columns = [_column(assembler, 0)]
        with pytest.raises(AssemblyError, match="missing"):
            self._fold(columns, assembler)

    @pytest.mark.parametrize("bad_index", ["negative", "past_end"])
    def test_rejects_out_of_range_column(self, small_mesh, assembler, bad_index):
        """An out-of-range index standing in for the last column is rejected.

        ``-1`` would otherwise pass the count check and scatter into the last
        element's dofs without halving its diagonal pair; ``M`` would raise a
        bare ``IndexError``.
        """
        m = small_mesh.n_elements
        columns = [_column(assembler, i) for i in range(m)]
        last = columns[-1]
        last.source_index = {"negative": -1, "past_end": m}[bad_index]
        with pytest.raises(AssemblyError, match="out of range"):
            self._fold(columns, assembler)

    def test_column_result_records_time(self, small_mesh, uniform_soil):
        kernel = kernel_for_soil(uniform_soil)
        dofs = DofManager(small_mesh, ElementType.LINEAR)
        assembler = ColumnAssembler(small_mesh, kernel, dofs, n_gauss=4)
        column = _column(assembler, 0)
        assert isinstance(column, ColumnResult)
        assert column.elapsed_seconds >= 0.0
        assert column.targets.size == small_mesh.n_elements


class TestColumnOrder:
    """Columns arriving in an order that is not a permutation of 0..M-1 are rejected."""

    @pytest.fixture
    def columns(self, small_mesh, uniform_soil):
        dofs = DofManager(small_mesh, ElementType.LINEAR)
        assembler = ColumnAssembler(small_mesh, kernel_for_soil(uniform_soil), dofs, n_gauss=4)
        return assembler, [_column(assembler, i) for i in range(small_mesh.n_elements)]

    def test_duplicate_column_rejected(self, columns):
        assembler, cols = columns
        reversed_with_repeat = [*cols[::-1], cols[-1]]
        with pytest.raises(AssemblyError, match="twice"):
            assemble_from_columns(reversed_with_repeat, assembler)

    def test_missing_column_rejected(self, columns):
        assembler, cols = columns
        middle = len(cols) // 2
        reversed_without_middle = [c for c in cols[::-1] if c.source_index != middle]
        with pytest.raises(AssemblyError, match=rf"missing columns in assembly: \[{middle}\]"):
            assemble_from_columns(reversed_without_middle, assembler)


class TestBatchedAssembly:
    def test_batched_matches_per_column_system(self, small_mesh, uniform_soil):
        # Timed runs evaluate one column per call, default runs one fold group.
        per_column = assemble_system(
            small_mesh, uniform_soil, gpr=1000.0, collect_column_times=True
        )
        batched = assemble_system(small_mesh, uniform_soil, gpr=1000.0)
        assert per_column.metadata["n_chunks"] == small_mesh.n_elements
        assert batched.metadata["n_chunks"] < small_mesh.n_elements
        assert np.allclose(batched.matrix, per_column.matrix, rtol=0.0, atol=1e-10)
        assert np.allclose(batched.rhs, per_column.rhs)

    def test_two_layer_batched_matches_per_column_system(self, rodded_mesh, two_layer_soil):
        per_column = assemble_system(
            rodded_mesh, two_layer_soil, gpr=500.0, collect_column_times=True
        )
        batched = assemble_system(rodded_mesh, two_layer_soil, gpr=500.0)
        # One 20-column batch against 20 single columns: the adaptive engine's
        # float32 tail sums differ at round-off (9.3e-13 max|A| measured).
        scale = np.abs(batched.matrix).max()
        assert np.allclose(batched.matrix, per_column.matrix, rtol=0.0, atol=1e-12 * scale)

    def test_batched_matches_pairwise_reference(self, small_mesh, uniform_soil):
        """Full batched system equals a matrix built purely from the reference
        element-pair implementation (the seed ground truth).

        Re-baselined when the adaptive engine became the default: the exact
        engine must still match the pairwise reference at the old 1e-10
        level, the default (adaptive) one at its 1e-8 * ||A||max contract.
        """
        from repro.bem.influence import element_pair_influence

        kernel = kernel_for_soil(uniform_soil)
        dofs = DofManager(small_mesh, ElementType.LINEAR)
        dof_matrix = dofs.element_dof_matrix()
        n = dofs.n_dofs
        reference = np.zeros((n, n))
        for alpha in range(small_mesh.n_elements):
            cols = dof_matrix[alpha]
            for beta in range(alpha, small_mesh.n_elements):
                block = element_pair_influence(
                    small_mesh.elements[beta], small_mesh.elements[alpha], kernel, dofs
                )
                rows = dof_matrix[beta]
                if beta == alpha:
                    reference[np.ix_(rows, cols)] += 0.5 * (block + block.T)
                else:
                    reference[np.ix_(rows, cols)] += block
                    reference[np.ix_(cols, rows)] += block.T
        scale = np.abs(reference).max()
        exact = assemble_system(
            small_mesh, uniform_soil, gpr=1000.0, options=AssemblyOptions(adaptive=None)
        )
        assert np.allclose(exact.matrix, reference, rtol=0.0, atol=1e-10 * max(scale, 1.0))
        default = assemble_system(small_mesh, uniform_soil, gpr=1000.0)
        assert np.allclose(default.matrix, reference, rtol=0.0, atol=2e-8 * max(scale, 1.0))

    def test_collect_column_times_defaults_to_single_columns(self, small_mesh, uniform_soil):
        system = assemble_system(
            small_mesh, uniform_soil, gpr=1000.0, collect_column_times=True
        )
        assert system.metadata["n_chunks"] == small_mesh.n_elements

    def test_scatter_columns_matches_scatter_column(self, small_mesh, uniform_soil):
        """Scattering a batch equals scattering its columns one at a time."""
        from repro.bem.assembly import scatter_columns

        kernel = kernel_for_soil(uniform_soil)
        dofs = DofManager(small_mesh, ElementType.LINEAR)
        assembler = ColumnAssembler(small_mesh, kernel, dofs, n_gauss=4)
        columns = [_column(assembler, i) for i in range(4)]
        dof_matrix = dofs.element_dof_matrix()
        n = dofs.n_dofs
        one_by_one = np.zeros((n, n))
        for column in columns:
            scatter_columns(one_by_one, dof_matrix, [column])
        all_at_once = np.zeros((n, n))
        scatter_columns(all_at_once, dof_matrix, columns)
        assert np.allclose(all_at_once, one_by_one, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("batch_size", [1, 7, 24, 50])
    def test_exact_batch_size_does_not_change_bits(self, coarse_barbera, batch_size):
        """Exact engine: the dense driver's chunk function, fed chunks of any
        length, folds to the driver's bits."""
        from repro.parallel.parallel_assembly import _ColumnChunk

        mesh, soil, gpr = coarse_barbera
        exact = AssemblyOptions(adaptive=None)
        reference = assemble_system(mesh, soil, gpr=gpr, options=exact)
        assert 1 < reference.metadata["n_chunks"] < mesh.n_elements  # several groups
        assembler = ColumnAssembler(
            mesh,
            kernel_for_soil(soil, exact.series_control),
            DofManager(mesh, exact.element_type),
            exact.n_gauss,
            adaptive=None,
        )
        chunk_fn = _ColumnChunk(assembler)
        m = mesh.n_elements
        columns = []
        for first in range(0, m, batch_size):
            chunk = list(range(first, min(first + batch_size, m)))
            columns += [ColumnResult(i, *pair) for i, pair in zip(chunk, chunk_fn(chunk))]
        other = assemble_from_columns(columns, assembler, gpr=gpr)
        assert np.array_equal(other.matrix, reference.matrix)
        assert np.array_equal(other.rhs, reference.rhs)

    def test_exact_column_times_do_not_change_bits(self, coarse_barbera):
        mesh, soil, gpr = coarse_barbera
        exact = AssemblyOptions(adaptive=None)
        timed = assemble_system(mesh, soil, gpr=gpr, options=exact, collect_column_times=True)
        batched = assemble_system(mesh, soil, gpr=gpr, options=exact)
        assert timed.metadata["n_chunks"] == mesh.n_elements
        assert np.array_equal(timed.matrix, batched.matrix)

    def test_collect_column_times_matches_batched_matrix(self, rodded_mesh, two_layer_soil):
        timed = assemble_system(
            rodded_mesh, two_layer_soil, gpr=500.0, collect_column_times=True
        )
        batched = assemble_system(rodded_mesh, two_layer_soil, gpr=500.0)
        times = np.asarray(timed.metadata["column_seconds"])
        assert times.shape == (rodded_mesh.n_elements,)
        assert np.all(times > 0.0)
        scale = np.abs(batched.matrix).max()
        assert np.allclose(timed.matrix, batched.matrix, rtol=0.0, atol=1e-12 * scale)


class TestFoldMemory:
    def test_fold_transient_is_bounded_by_one_group(self, full_barbera):
        """The fold's traced peak above its input stays under half the stored columns.

        The paper's scheme stores every column (its "twice the memory"); the
        fold adds the matrix and one column group's transient on top, not a
        pass over the whole mesh (3.5 times the stored bytes on this mesh).
        """
        mesh, soil, gpr = full_barbera
        dofs = DofManager(mesh, ElementType.LINEAR)
        assembler = ColumnAssembler(mesh, kernel_for_soil(soil), dofs, n_gauss=4)
        group_size = assembler.max_batch_size()
        m = mesh.n_elements
        columns = [
            ColumnResult(index, *pair)
            for start in range(0, m, group_size)
            for index, pair in zip(
                range(start, min(start + group_size, m)),
                assembler.column_batch(list(range(start, min(start + group_size, m)))),
            )
        ]
        stored = sum(c.blocks.nbytes + c.targets.nbytes for c in columns)
        gc.collect()
        tracemalloc.start()
        try:
            assemble_from_columns(columns, assembler, gpr=gpr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * stored, (peak / 1e6, stored / 1e6)

    def test_ascending_stream_frees_each_group_before_the_next(self, coarse_barbera):
        """Fed an ascending stream, the fold holds one column group at a time:
        group g's blocks are gone by the time group g+1's first column is made."""
        mesh, soil, gpr = coarse_barbera
        dofs = DofManager(mesh, ElementType.LINEAR)
        assembler = ColumnAssembler(mesh, kernel_for_soil(soil), dofs, n_gauss=4)
        group_size = assembler.max_batch_size()
        m = mesh.n_elements
        alive_at_next_group: list[int] = []

        def ascending():
            previous: list[weakref.ref] = []
            for start in range(0, m, group_size):
                chunk = list(range(start, min(start + group_size, m)))
                pairs = assembler.column_batch(chunk)
                alive_at_next_group.append(sum(ref() is not None for ref in previous))
                previous = [weakref.ref(blocks) for _, blocks in pairs]
                for index in chunk:
                    yield ColumnResult(index, *pairs.pop(0))

        system = assemble_from_columns(ascending(), assembler, gpr=gpr)
        assert len(alive_at_next_group) == -(-m // group_size) > 2
        assert alive_at_next_group == [0] * len(alive_at_next_group)
        reference = assemble_from_columns(
            [_column(assembler, i) for i in range(m)], assembler, gpr=gpr
        )
        assert np.array_equal(system.matrix, reference.matrix)


class TestRefinementConvergence:
    def test_resistance_converges_under_refinement(self, small_grid, uniform_soil):
        """Mesh refinement changes Req by less than a few percent."""
        from repro.bem.formulation import GroundingAnalysis

        coarse = GroundingAnalysis(small_grid, uniform_soil, gpr=1000.0).run()
        fine = GroundingAnalysis(
            small_grid, uniform_soil, gpr=1000.0, max_element_length=3.0
        ).run()
        assert fine.equivalent_resistance == pytest.approx(
            coarse.equivalent_resistance, rel=0.05
        )
