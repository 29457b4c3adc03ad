"""Tests for the deterministic analytic column cost model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ScheduleError
from repro.kernels.base import kernel_for_soil
from repro.parallel.costs import analytic_column_costs, scale_costs


class _StubKernel:
    """Minimal series_length provider for layer-mix tests."""

    def __init__(self, lengths):
        self._lengths = lengths

    def series_length(self, source_layer: int, field_layer: int) -> int:
        return self._lengths[(source_layer, field_layer)]


class TestAnalyticColumnCosts:
    def test_uniform_layer_triangle(self):
        kernel = _StubKernel({(1, 1): 3})
        costs = analytic_column_costs(np.ones(5, dtype=int), kernel, n_gauss=2)
        # Column α has 5 − α targets, each worth 3 image terms × 2 Gauss points.
        assert costs.tolist() == [30.0, 24.0, 18.0, 12.0, 6.0]

    def test_two_layer_mix(self):
        kernel = _StubKernel({(1, 1): 10, (1, 2): 4, (2, 1): 4, (2, 2): 2})
        layers = np.array([1, 1, 2])
        costs = analytic_column_costs(layers, kernel, n_gauss=1)
        # Column 0: two layer-1 targets (self incl.) + one layer-2 target.
        assert costs[0] == pytest.approx(2 * 10 + 1 * 4)
        assert costs[1] == pytest.approx(1 * 10 + 1 * 4)
        assert costs[2] == pytest.approx(1 * 2)

    def test_matches_column_assembler_estimate(self, small_mesh, uniform_soil, small_dofs):
        from repro.bem.influence import ColumnAssembler

        kernel = kernel_for_soil(uniform_soil)
        assembler = ColumnAssembler(small_mesh, kernel, small_dofs, n_gauss=4)
        direct = analytic_column_costs(small_mesh.element_layers(), kernel, n_gauss=4)
        assert np.allclose(assembler.column_cost_estimate(), direct)

    def test_rejects_empty_layers(self):
        with pytest.raises(ScheduleError):
            analytic_column_costs(np.array([], dtype=int), _StubKernel({}), n_gauss=1)

    def test_rejects_bad_gauss(self):
        with pytest.raises(ScheduleError):
            analytic_column_costs(np.ones(3, dtype=int), _StubKernel({(1, 1): 1}), n_gauss=0)


class TestScaleCosts:
    def test_scales_to_requested_total(self):
        scaled = scale_costs([3.0, 2.0, 1.0], total_seconds=12.0)
        assert scaled.sum() == pytest.approx(12.0)
        assert scaled.tolist() == [6.0, 4.0, 2.0]

    def test_rejects_non_positive_total(self):
        with pytest.raises(ScheduleError):
            scale_costs([1.0, 2.0], total_seconds=0.0)

    def test_rejects_zero_profile(self):
        with pytest.raises(ScheduleError):
            scale_costs([0.0, 0.0], total_seconds=1.0)


class TestHierarchicalBlockCosts:
    def test_near_and_far_block_formulas(self):
        from repro.parallel.costs import hierarchical_block_costs

        costs = hierarchical_block_costs(
            row_sizes=[10, 100],
            col_sizes=[20, 100],
            admissible=[False, True],
            series_length=5,
            n_gauss=4,
            rank_estimate=8,
            basis_per_element=2,
        )
        # Near block: rows * cols * L * G.
        assert costs[0] == pytest.approx(10 * 20 * 5 * 4)
        # Far block: sampled rows/cols only.
        assert costs[1] == pytest.approx(min(8 * 2, 100 * 2) * (100 + 100) * 5 * 4)

    def test_far_sampling_capped_by_block_side(self):
        from repro.parallel.costs import hierarchical_block_costs

        costs = hierarchical_block_costs(
            row_sizes=[3],
            col_sizes=[50],
            admissible=[True],
            series_length=2,
            n_gauss=1,
            rank_estimate=100,
            basis_per_element=2,
        )
        assert costs[0] == pytest.approx(3 * 2 * (3 + 50) * 2 * 1)

    def test_empty_profile(self):
        from repro.parallel.costs import hierarchical_block_costs

        assert hierarchical_block_costs([], [], [], series_length=3).size == 0

    def test_rejects_invalid_inputs(self):
        from repro.parallel.costs import hierarchical_block_costs

        with pytest.raises(ScheduleError):
            hierarchical_block_costs([1], [1, 2], [True], series_length=3)
        with pytest.raises(ScheduleError):
            hierarchical_block_costs([0], [1], [True], series_length=3)
        with pytest.raises(ScheduleError):
            hierarchical_block_costs([1], [1], [True], series_length=0)

    def test_matches_operator_partition(self, small_mesh):
        """The profile lines up with a real block cluster partition."""
        from repro.cluster.blocks import BlockClusterTree
        from repro.cluster.tree import ClusterTree
        from repro.parallel.costs import hierarchical_block_costs

        p0, p1 = small_mesh.element_endpoints()
        tree = ClusterTree.build(p0, p1, leaf_size=4)
        partition = BlockClusterTree.build(tree, eta=1.5)
        shapes = partition.block_shapes()
        admissible = np.array([b.admissible for b in partition.blocks])
        costs = hierarchical_block_costs(
            shapes[:, 0], shapes[:, 1], admissible, series_length=2
        )
        assert costs.shape == (len(partition.blocks),)
        assert np.all(costs > 0.0)


class TestPartitionBlockWork:
    def test_balanced_partition(self):
        from repro.parallel.costs import partition_block_work

        costs = np.array([5.0, 4.0, 3.0, 3.0, 2.0, 1.0])
        assignment = partition_block_work(costs, n_workers=3)
        covered = sorted(index for chunk in assignment for index in chunk)
        assert covered == list(range(6))
        loads = [sum(costs[i] for i in chunk) for chunk in assignment]
        # Greedy LPT keeps the spread tight for this profile.
        assert max(loads) - min(loads) <= 1.0

    def test_deterministic(self):
        from repro.parallel.costs import partition_block_work

        costs = np.linspace(1.0, 10.0, 17)
        assert partition_block_work(costs, 4) == partition_block_work(costs, 4)

    def test_single_worker_gets_everything(self):
        from repro.parallel.costs import partition_block_work

        assignment = partition_block_work([1.0, 2.0], n_workers=1)
        assert sorted(assignment[0]) == [0, 1]

    def test_rejects_invalid(self):
        from repro.parallel.costs import partition_block_work

        with pytest.raises(ScheduleError):
            partition_block_work([1.0], n_workers=0)
        with pytest.raises(ScheduleError):
            partition_block_work([np.nan], n_workers=2)
