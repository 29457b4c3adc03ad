"""Tests for the element-pair and column influence coefficients."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bem.elements import DofManager, ElementType
from repro.bem.influence import ColumnAssembler, element_pair_influence
from repro.exceptions import AssemblyError
from repro.kernels.base import kernel_for_soil


@pytest.fixture(scope="module")
def uniform_assembler(small_mesh, uniform_soil):
    kernel = kernel_for_soil(uniform_soil)
    dofs = DofManager(small_mesh, ElementType.LINEAR)
    return ColumnAssembler(small_mesh, kernel, dofs, n_gauss=4)


@pytest.fixture(scope="module")
def two_layer_assembler(rodded_mesh, two_layer_soil):
    kernel = kernel_for_soil(two_layer_soil)
    dofs = DofManager(rodded_mesh, ElementType.LINEAR)
    return ColumnAssembler(rodded_mesh, kernel, dofs, n_gauss=4)


class TestElementPairInfluence:
    def test_block_shape_linear(self, small_mesh, uniform_soil):
        kernel = kernel_for_soil(uniform_soil)
        dofs = DofManager(small_mesh, ElementType.LINEAR)
        block = element_pair_influence(
            small_mesh.elements[0], small_mesh.elements[1], kernel, dofs
        )
        assert block.shape == (2, 2)
        assert np.all(block > 0.0)

    def test_block_shape_constant(self, small_mesh, uniform_soil):
        kernel = kernel_for_soil(uniform_soil)
        dofs = DofManager(small_mesh, ElementType.CONSTANT)
        block = element_pair_influence(
            small_mesh.elements[0], small_mesh.elements[1], kernel, dofs
        )
        assert block.shape == (1, 1)

    def test_self_block_dominates_far_block(self, small_mesh, uniform_soil):
        kernel = kernel_for_soil(uniform_soil)
        dofs = DofManager(small_mesh, ElementType.LINEAR)
        self_block = element_pair_influence(
            small_mesh.elements[0], small_mesh.elements[0], kernel, dofs
        )
        # Find a far-away element (different corner of the grid).
        far_index = max(
            range(small_mesh.n_elements),
            key=lambda i: np.linalg.norm(
                small_mesh.elements[i].midpoint - small_mesh.elements[0].midpoint
            ),
        )
        far_block = element_pair_influence(
            small_mesh.elements[0], small_mesh.elements[far_index], kernel, dofs
        )
        assert self_block.max() > 5.0 * far_block.max()

    def test_far_pair_approaches_point_approximation(self, small_mesh, uniform_soil):
        kernel = kernel_for_soil(uniform_soil)
        dofs = DofManager(small_mesh, ElementType.CONSTANT)
        target = small_mesh.elements[0]
        source_index = max(
            range(small_mesh.n_elements),
            key=lambda i: np.linalg.norm(small_mesh.elements[i].midpoint - target.midpoint),
        )
        source = small_mesh.elements[source_index]
        block = element_pair_influence(target, source, kernel, dofs)
        point_value = (
            kernel.potential_coefficient(target.midpoint, source.midpoint)
            * target.length
            * source.length
        )
        assert block[0, 0] == pytest.approx(point_value, rel=0.05)

    def test_decays_with_distance(self, small_mesh, uniform_soil):
        kernel = kernel_for_soil(uniform_soil)
        dofs = DofManager(small_mesh, ElementType.LINEAR)
        target = small_mesh.elements[0]
        distances, maxima = [], []
        for source in small_mesh.elements[1:]:
            block = element_pair_influence(target, source, kernel, dofs)
            distances.append(np.linalg.norm(source.midpoint - target.midpoint))
            maxima.append(block.max() / source.length)
        order = np.argsort(distances)
        assert maxima[order[0]] > maxima[order[-1]]


class TestColumnAssembler:
    def test_column_matches_pair_computation(self, uniform_assembler, small_mesh, uniform_soil):
        kernel = kernel_for_soil(uniform_soil)
        dofs = DofManager(small_mesh, ElementType.LINEAR)
        source_index = 2
        [(targets, blocks)] = uniform_assembler.column_batch([source_index])
        assert targets.tolist() == list(range(source_index, small_mesh.n_elements))
        for target, block in zip(targets, blocks):
            reference = element_pair_influence(
                small_mesh.elements[int(target)],
                small_mesh.elements[source_index],
                kernel,
                dofs,
            )
            assert np.allclose(block, reference, rtol=1e-12)

    def test_two_layer_column_matches_pair_computation(
        self, two_layer_assembler, rodded_mesh, two_layer_soil
    ):
        kernel = kernel_for_soil(two_layer_soil)
        dofs = DofManager(rodded_mesh, ElementType.LINEAR)
        # Pick a source element in layer 2 (a rod bottom) so cross-layer
        # kernels are exercised.
        layers = rodded_mesh.element_layers()
        source_index = int(np.flatnonzero(layers == 2)[0])
        [(targets, blocks)] = two_layer_assembler.column_batch([source_index])
        for target, block in zip(targets, blocks):
            reference = element_pair_influence(
                rodded_mesh.elements[int(target)],
                rodded_mesh.elements[source_index],
                kernel,
                dofs,
            )
            assert np.allclose(block, reference, rtol=1e-12)

    def test_explicit_target_list(self, uniform_assembler):
        [(targets, blocks)] = uniform_assembler.column_batch([0], [[5, 7]])
        assert targets.tolist() == [5, 7]
        assert blocks.shape[0] == 2

    def test_empty_target_list(self, uniform_assembler):
        [(targets, blocks)] = uniform_assembler.column_batch([0], [[]])
        assert targets.size == 0
        assert blocks.shape == (0, 2, 2)

    def test_out_of_range_source(self, uniform_assembler):
        with pytest.raises(AssemblyError):
            uniform_assembler.column_batch([10_000])

    def test_out_of_range_target(self, uniform_assembler):
        with pytest.raises(AssemblyError):
            uniform_assembler.column_batch([0], [[99_999]])

    def test_column_sizes_decreasing(self, uniform_assembler, small_mesh):
        sizes = uniform_assembler.column_sizes()
        assert sizes.tolist() == list(range(small_mesh.n_elements, 0, -1))

    def test_cost_estimate_decreasing_for_uniform_soil(self, uniform_assembler):
        costs = uniform_assembler.column_cost_estimate()
        assert np.all(np.diff(costs) <= 0.0)
        assert costs[0] > 0.0

    def test_cost_estimate_higher_for_two_layer(self, uniform_assembler, two_layer_assembler):
        # Per-column cost (per target element) must be far larger for the
        # two-layer kernel because of the image series.
        uniform_first = uniform_assembler.column_cost_estimate()[0]
        two_layer_first = two_layer_assembler.column_cost_estimate()[0]
        uniform_per_target = uniform_first / uniform_assembler.n_elements
        two_layer_per_target = two_layer_first / two_layer_assembler.n_elements
        assert two_layer_per_target > 10.0 * uniform_per_target

    def test_rejects_bad_gauss_count(self, small_mesh, uniform_soil):
        kernel = kernel_for_soil(uniform_soil)
        dofs = DofManager(small_mesh, ElementType.LINEAR)
        with pytest.raises(AssemblyError):
            ColumnAssembler(small_mesh, kernel, dofs, n_gauss=0)


class TestColumnBatch:
    def test_batch_matches_pair_computation(self, uniform_assembler, small_mesh, uniform_soil):
        kernel = kernel_for_soil(uniform_soil)
        dofs = DofManager(small_mesh, ElementType.LINEAR)
        sources = list(range(small_mesh.n_elements))
        batch = uniform_assembler.column_batch(sources)
        assert len(batch) == len(sources)
        for source, (targets, blocks) in zip(sources, batch):
            assert targets.tolist() == list(range(source, small_mesh.n_elements))
            for target, block in zip(targets, blocks):
                reference = element_pair_influence(
                    small_mesh.elements[int(target)],
                    small_mesh.elements[source],
                    kernel,
                    dofs,
                )
                assert np.allclose(block, reference, rtol=0.0, atol=1e-12)

    def test_two_layer_batch_matches_pair_computation(
        self, two_layer_assembler, rodded_mesh, two_layer_soil
    ):
        kernel = kernel_for_soil(two_layer_soil)
        dofs = DofManager(rodded_mesh, ElementType.LINEAR)
        sources = list(range(rodded_mesh.n_elements))
        batch = two_layer_assembler.column_batch(sources)
        for source, (targets, blocks) in zip(sources, batch):
            for target, block in zip(targets, blocks):
                reference = element_pair_influence(
                    rodded_mesh.elements[int(target)],
                    rodded_mesh.elements[source],
                    kernel,
                    dofs,
                )
                assert np.allclose(block, reference, rtol=1e-12, atol=1e-12)

    def test_batch_matches_column_blocks(self, two_layer_assembler, rodded_mesh):
        """A whole-mesh batch equals the one-source column calls."""
        sources = list(range(rodded_mesh.n_elements))
        batch = two_layer_assembler.column_batch(sources)
        for source, (targets, blocks) in zip(sources, batch):
            [(single_targets, single_blocks)] = two_layer_assembler.column_batch([source])
            assert np.array_equal(targets, single_targets)
            assert np.allclose(blocks, single_blocks, rtol=0.0, atol=1e-12)

    def test_non_contiguous_and_unordered_sources(self, uniform_assembler):
        batch = uniform_assembler.column_batch([7, 0, 3, 8])
        assert [targets[0] for targets, _ in batch] == [7, 0, 3, 8]
        for source, (targets, blocks) in zip([7, 0, 3, 8], batch):
            [(single_targets, single_blocks)] = uniform_assembler.column_batch([source])
            assert np.array_equal(targets, single_targets)
            assert np.allclose(blocks, single_blocks, rtol=0.0, atol=1e-12)

    def test_shared_explicit_targets(self, uniform_assembler):
        batch = uniform_assembler.column_batch([1, 4], [[5, 7], [5, 7]])
        assert len(batch) == 2
        for source, (targets, blocks) in zip([1, 4], batch):
            assert targets.tolist() == [5, 7]
            [(_, single_blocks)] = uniform_assembler.column_batch([source], [[5, 7]])
            assert np.allclose(blocks, single_blocks, rtol=0.0, atol=1e-12)

    def test_empty_batch(self, uniform_assembler):
        assert uniform_assembler.column_batch([]) == []

    def test_empty_shared_targets(self, uniform_assembler):
        batch = uniform_assembler.column_batch([0, 1], [[], []])
        assert len(batch) == 2
        for targets, blocks in batch:
            assert targets.size == 0
            assert blocks.shape == (0, 2, 2)

    def test_out_of_range_sources(self, uniform_assembler):
        with pytest.raises(AssemblyError):
            uniform_assembler.column_batch([0, 10_000])

    def test_out_of_range_targets(self, uniform_assembler):
        with pytest.raises(AssemblyError):
            uniform_assembler.column_batch([0], [[99_999]])

    def test_target_lists_length_mismatch(self, uniform_assembler):
        with pytest.raises(AssemblyError):
            uniform_assembler.column_batch([0, 1], [np.array([0])])

    def test_exact_target_lists_equal_single_source_calls_bitwise(
        self, two_layer_assembler, rodded_mesh
    ):
        """The exact engine evaluates target lists one source at a time, so
        the hierarchical near field does not depend on how sources batch."""
        m = rodded_mesh.n_elements
        sources = [0, 3, 5, m - 1]
        lists = [
            np.array([0, 2, 9]),
            np.array([4, 6, 1]),
            np.array([], dtype=int),
            np.arange(m),
        ]
        batch = two_layer_assembler.column_batch(sources, lists)
        for source, targets, (got_targets, blocks) in zip(sources, lists, batch):
            [(_, single)] = two_layer_assembler.column_batch([source], [targets])
            assert np.array_equal(got_targets, targets)
            assert np.array_equal(blocks, single)

    def test_small_memory_budget_still_exact(self, small_mesh, uniform_soil):
        # A tiny budget forces many sub-batches; results must not change.
        kernel = kernel_for_soil(uniform_soil)
        dofs = DofManager(small_mesh, ElementType.LINEAR)
        tight = ColumnAssembler(
            small_mesh, kernel, dofs, n_gauss=4, batch_element_budget=64
        )
        roomy = ColumnAssembler(small_mesh, kernel, dofs, n_gauss=4)
        for (t1, b1), (t2, b2) in zip(
            tight.column_batch(range(small_mesh.n_elements)),
            roomy.column_batch(range(small_mesh.n_elements)),
        ):
            assert np.array_equal(t1, t2)
            assert np.allclose(b1, b2, rtol=0.0, atol=1e-12)

    def test_max_batch_size_positive(self, uniform_assembler, two_layer_assembler):
        assert 1 <= uniform_assembler.max_batch_size() <= 64
        assert 1 <= two_layer_assembler.max_batch_size() <= 64
