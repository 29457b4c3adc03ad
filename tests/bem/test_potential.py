"""Tests of the potential evaluator and surface grids."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.bem.potential as potential_module
from repro.bem.potential import PotentialEvaluator, SurfaceGrid
from repro.exceptions import AssemblyError


@pytest.fixture(scope="module")
def evaluator(small_results):
    return small_results.evaluator()


def _exact(results):
    return PotentialEvaluator(
        results.mesh,
        results.soil,
        results.kernel,
        results.dof_manager,
        results.dof_values,
        gpr=results.gpr,
        adaptive=None,
    )


def _at_block_sizes(monkeypatch, evaluator, points, blocks=(7, 10**9)):
    """Potentials at ``points`` with the pair block patched to each size."""
    values = []
    for block in blocks:
        monkeypatch.setattr(potential_module, "_PAIR_BLOCK", block)
        values.append(evaluator.potential_at(points))
    return values


class TestPotentialAt:
    def test_potential_on_electrode_surface_close_to_gpr(self, small_results, small_mesh):
        """The Dirichlet condition V = GPR must be recovered on the conductors."""
        evaluator = small_results.evaluator()
        points = []
        for element in small_mesh.elements[::5]:
            mid = element.midpoint.copy()
            mid[2] += element.radius  # a point on the conductor surface
            points.append(mid)
        values = evaluator.potential_at(np.array(points))
        assert np.allclose(values, small_results.gpr, rtol=0.05)

    def test_potential_positive_and_below_gpr_on_surface(self, evaluator, small_results):
        points = np.array([[x, 9.0, 0.0] for x in np.linspace(-20.0, 40.0, 25)])
        values = evaluator.potential_at(points)
        assert np.all(values > 0.0)
        assert np.all(values <= small_results.gpr * 1.0001)

    def test_potential_decays_far_away(self, evaluator):
        near = evaluator.potential_at(np.array([9.0, 9.0, 0.0]))
        far = evaluator.potential_at(np.array([500.0, 500.0, 0.0]))
        assert far < 0.1 * near

    def test_far_field_matches_point_source(self, evaluator, small_results, uniform_soil):
        """Far from the grid the potential tends to I / (2 π γ r)."""
        distance = 2000.0
        value = evaluator.potential_at(np.array([distance, 0.0, 0.0]))
        expected = small_results.total_current / (
            2.0 * np.pi * uniform_soil.conductivity * distance
        )
        assert value == pytest.approx(expected, rel=0.02)

    def test_single_point_returns_scalar(self, evaluator):
        value = evaluator.potential_at(np.array([1.0, 1.0, 0.0]))
        assert np.ndim(value) == 0

    def test_rejects_points_above_surface(self, evaluator):
        with pytest.raises(AssemblyError):
            evaluator.potential_at(np.array([0.0, 0.0, -1.0]))

    def test_rejects_bad_shape(self, evaluator):
        with pytest.raises(AssemblyError):
            evaluator.potential_at(np.zeros((3, 2)))

    @pytest.mark.parametrize(
        "points",
        [
            [[np.nan, 0.0, 0.0], [0.0, 0.0, np.nan]],
            [[np.inf, 0.0, 0.0]],
            [[0.0, -np.inf, 0.5]],
        ],
        ids=["nan", "inf", "negative-inf"],
    )
    def test_rejects_non_finite_points(self, evaluator, points):
        with pytest.raises(AssemblyError, match="finite"):
            evaluator.potential_at(np.array(points))

    def test_exact_path_pair_block_invariance(self, monkeypatch, small_results):
        points = np.column_stack(
            (np.linspace(-5, 25, 10), np.linspace(-5, 25, 10), np.linspace(0.0, 2.0, 10))
        )
        tiny, huge = _at_block_sizes(monkeypatch, _exact(small_results), points)
        assert np.allclose(tiny, huge, rtol=1e-12, atol=0.0)

    def test_potential_scales_linearly_with_solution(self, small_results):
        doubled = PotentialEvaluator(
            mesh=small_results.mesh,
            soil=small_results.soil,
            kernel=small_results.kernel,
            dof_manager=small_results.dof_manager,
            dof_values=2.0 * small_results.dof_values,
            gpr=small_results.gpr,
        )
        point = np.array([3.0, 3.0, 0.0])
        assert doubled.potential_at(point) == pytest.approx(
            2.0 * small_results.evaluator().potential_at(point)
        )


class TestSurfaceGrids:
    def test_surface_potential_shape(self, evaluator):
        grid = evaluator.surface_potential(np.linspace(-5, 25, 7), np.linspace(-5, 25, 5))
        assert grid.values.shape == (5, 7)
        assert grid.max_value <= 1000.0 * 1.0001
        assert grid.min_value > 0.0

    def test_surface_potential_over_grid_margin(self, evaluator, small_grid):
        surface = evaluator.surface_potential_over_grid(margin=10.0, n_x=9, n_y=9)
        lower, upper = small_grid.bounding_box()
        assert surface.x[0] == pytest.approx(lower[0] - 10.0)
        assert surface.x[-1] == pytest.approx(upper[0] + 10.0)
        assert surface.gpr == pytest.approx(1000.0)

    def test_maximum_over_grid_centre(self, evaluator):
        surface = evaluator.surface_potential(np.linspace(-20, 38, 30), np.linspace(-20, 38, 30))
        j, i = np.unravel_index(np.argmax(surface.values), surface.values.shape)
        # The hottest surface point must be above the grid footprint (0..18 m).
        assert -1.0 <= surface.x[i] <= 19.0
        assert -1.0 <= surface.y[j] <= 19.0

    def test_profiles(self, evaluator):
        surface = evaluator.surface_potential(np.linspace(0, 18, 10), np.linspace(0, 18, 11))
        x, values_x = surface.profile_along_x(9.0)
        assert x.shape == values_x.shape == (10,)
        y, values_y = surface.profile_along_y(9.0)
        assert y.shape == values_y.shape == (11,)

    def test_normalised_values(self, evaluator):
        surface = evaluator.surface_potential(np.linspace(0, 18, 5), np.linspace(0, 18, 5))
        assert np.allclose(surface.normalized, surface.values / surface.gpr)

    def test_to_dict_round_trip_shapes(self, evaluator):
        surface = evaluator.surface_potential(np.linspace(0, 18, 4), np.linspace(0, 18, 3))
        payload = surface.to_dict()
        assert len(payload["x"]) == 4
        assert len(payload["values"]) == 3

    def test_shape_validation(self):
        with pytest.raises(AssemblyError):
            SurfaceGrid(x=np.arange(3), y=np.arange(4), values=np.zeros((3, 3)))

    @pytest.mark.parametrize("margin", [np.nan, np.inf, -1.0])
    def test_rejects_bad_margin(self, evaluator, margin):
        with pytest.raises(AssemblyError, match="margin"):
            evaluator.surface_potential_over_grid(margin=margin, n_x=5, n_y=5)

    @pytest.mark.parametrize("n_x, n_y", [(0, 61), (1, 61), (61, 1)])
    def test_rejects_fewer_than_two_samples(self, evaluator, n_x, n_y):
        with pytest.raises(AssemblyError, match="2 samples"):
            evaluator.surface_potential_over_grid(n_x=n_x, n_y=n_y)

    def test_safety_metrics_reject_a_one_sample_raster(self, evaluator):
        from repro.campaign.runner import surface_safety_metrics

        with pytest.raises(AssemblyError):
            surface_safety_metrics(evaluator, 10.0, 1)


class TestAdaptivePotentialPath:
    """The batched adaptive evaluator vs the exact per-element loop."""

    @pytest.fixture(scope="class")
    def exact_evaluator(self, small_results):
        return _exact(small_results)

    def test_matches_exact_loop(self, evaluator, exact_evaluator, small_results):
        rng = np.random.default_rng(11)
        points = np.column_stack(
            (
                rng.uniform(-25.0, 45.0, 200),
                rng.uniform(-25.0, 45.0, 200),
                rng.uniform(0.0, 3.0, 200),
            )
        )
        fast = evaluator.potential_at(points)
        slow = exact_evaluator.potential_at(points)
        assert np.allclose(fast, slow, rtol=0.0, atol=1e-7 * small_results.gpr)

    def test_pair_block_invariance(self, monkeypatch, evaluator):
        points = np.column_stack(
            (
                np.linspace(-10.0, 30.0, 120),
                np.linspace(-5.0, 25.0, 120),
                np.zeros(120),
            )
        )
        tiny, huge = _at_block_sizes(monkeypatch, evaluator, points)
        assert np.allclose(tiny, huge, rtol=1e-12)

    def test_pair_block_invariance_at_depth_in_two_layers(self, monkeypatch, two_layer_results):
        """Float32 image terms may round differently per block: ≤ 1e-9 · GPR."""
        rng = np.random.default_rng(7)
        points = np.column_stack(
            (
                rng.uniform(-4.0, 16.0, 150),
                rng.uniform(-4.0, 16.0, 150),
                rng.uniform(0.0, 2.5, 150),
            )
        )
        tiny, huge = _at_block_sizes(monkeypatch, two_layer_results.evaluator(), points)
        assert np.allclose(tiny, huge, rtol=0.0, atol=1e-9 * two_layer_results.gpr)

    def test_surface_grid_through_adaptive_path(self, evaluator, exact_evaluator, small_results):
        x = np.linspace(-10.0, 28.0, 9)
        y = np.linspace(-10.0, 28.0, 7)
        fast = evaluator.surface_potential(x, y)
        slow = exact_evaluator.surface_potential(x, y)
        assert np.allclose(
            fast.values, slow.values, rtol=0.0, atol=1e-7 * small_results.gpr
        )

    def test_two_layer_points_across_layers(self, two_layer_results):
        """Field points in both layers of a rodded mesh (distinct kernels)."""
        results = two_layer_results
        exact = _exact(results)
        points = np.array(
            [[3.0, 4.0, 0.0], [5.0, 5.0, 0.5], [6.0, 1.0, 1.5], [2.0, 2.0, 2.5]]
        )
        fast = results.evaluator().potential_at(points)
        slow = exact.potential_at(points)
        assert np.allclose(fast, slow, rtol=0.0, atol=1e-7 * results.gpr)

    def test_empty_points_returns_empty(self, evaluator):
        """Regression: the adaptive path must accept a zero-point query."""
        values = evaluator.potential_at(np.zeros((0, 3)))
        assert values.shape == (0,)

    def test_different_bin_edges_agree(self, small_results):
        """Evaluators with different adaptive bin edges agree to the contract."""
        from repro.kernels.truncation import AdaptiveControl

        points = np.column_stack(
            (np.linspace(-5.0, 25.0, 40), np.linspace(-5.0, 25.0, 40), np.zeros(40))
        )

        def build(control):
            return PotentialEvaluator(
                small_results.mesh,
                small_results.soil,
                small_results.kernel,
                small_results.dof_manager,
                small_results.dof_values,
                gpr=small_results.gpr,
                adaptive=control,
            )

        default_bins = build(AdaptiveControl()).potential_at(points)
        coarse_bins = build(AdaptiveControl(bin_edges=(1.0, 4.0))).potential_at(points)
        assert np.allclose(default_bins, coarse_bins, rtol=0.0, atol=1e-7 * small_results.gpr)

    def test_rejects_bad_adaptive_argument(self, small_results):
        with pytest.raises(AssemblyError):
            PotentialEvaluator(
                small_results.mesh,
                small_results.soil,
                small_results.kernel,
                small_results.dof_manager,
                small_results.dof_values,
                adaptive="Default",
            )


class TestMapWorkingSet:
    """A map's traced memory peak must not grow with its raster."""

    @pytest.fixture(scope="class")
    def barbera_evaluator(self):
        from repro.experiments.barbera import run_barbera

        return run_barbera("two_layer").evaluator()

    def test_61_by_61_map_peaks_like_a_21_by_21_map(self, barbera_evaluator):
        barbera_evaluator.surface_potential_over_grid(n_x=21, n_y=21)  # warm the workspaces
        peaks = {}
        for n in (21, 61):
            tracemalloc.start()
            try:
                barbera_evaluator.surface_potential_over_grid(n_x=n, n_y=n)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[61] <= 1.5 * peaks[21], peaks
