"""Tests of the adaptive truncation plans (`repro.kernels.truncation`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import KernelError
from repro.kernels.base import kernel_for_soil
from repro.kernels.images import ImageSeries, ImageTerm
from repro.kernels.truncation import (
    AdaptiveControl,
    TruncationPlan,
    i0_upper_bound,
    merge_degenerate_terms,
    midpoint_error_bound,
)
from repro.soil.two_layer import TwoLayerSoil


@pytest.fixture(scope="module")
def two_layer_series():
    kernel = kernel_for_soil(TwoLayerSoil(0.005, 0.016, 1.0))
    return kernel.image_series(1, 1)


class TestAdaptiveControl:
    def test_defaults_are_valid(self):
        control = AdaptiveControl()
        assert 0.0 < control.tolerance < 1.0
        assert control.safety >= 1.0
        assert control.cutoff_fraction == control.tolerance / control.safety

    def test_rejects_bad_tolerance(self):
        with pytest.raises(KernelError):
            AdaptiveControl(tolerance=0.0)
        with pytest.raises(KernelError):
            AdaptiveControl(tolerance=1.5)

    def test_rejects_bad_bins(self):
        with pytest.raises(KernelError):
            AdaptiveControl(bin_edges=(4.0, 2.0))
        with pytest.raises(KernelError):
            AdaptiveControl(bin_edges=(0.0, 2.0))
        with pytest.raises(KernelError):
            AdaptiveControl(safety=0.5)

    @pytest.mark.parametrize("safety", [float("nan"), float("inf")])
    def test_rejects_non_finite_safety(self, safety):
        with pytest.raises(KernelError):
            AdaptiveControl(safety=safety)


class TestBounds:
    def test_i0_upper_bound_is_an_upper_bound(self):
        """`2 asinh(L/(2r))` dominates the analytic integral at distance >= r."""
        from repro.bem.segment_integrals import line_integrals

        rng = np.random.default_rng(5)
        length = 2.0
        q0 = np.zeros(3)
        q1 = np.array([length, 0.0, 0.0])
        for _ in range(200):
            r = rng.uniform(0.05, 30.0)
            angle = rng.uniform(0.0, np.pi)
            along = rng.uniform(-1.0, 2.0) * length
            point = np.array([along, r * np.sin(angle) + 1e-12, r * np.cos(angle)])
            distance = np.linalg.norm(
                point - np.clip(point[0], 0.0, length) * np.array([1.0, 0, 0])
            )
            i0, _ = line_integrals(point, q0, q1, min_distance=0.0)
            assert float(np.ravel(i0)[0]) <= float(i0_upper_bound(length, np.array([distance]))[0]) + 1e-12

    def test_midpoint_error_bound_covers_measured_error(self):
        """The (L/r)^5 bound dominates the midpoint expansion error."""
        from repro.bem.segment_integrals import line_integrals

        rng = np.random.default_rng(7)
        length = 1.0
        q0 = np.zeros(3)
        q1 = np.array([length, 0.0, 0.0])
        for _ in range(200):
            r = rng.uniform(1.6, 60.0) * length
            angle = rng.uniform(0.0, 2 * np.pi)
            point = np.array(
                [length / 2 + r * np.cos(angle), r * np.sin(angle), 0.0]
            )
            i0, i1 = line_integrals(point, q0, q1, min_distance=0.0)
            sc = length / 2 - point[0]
            rc = np.hypot(sc, point[1])
            i0_mid = length / rc + (length**3 / 24.0) * (3 * sc**2 - rc**2) / rc**5
            i1_mid = i0_mid / 2 - (length**2 / 12.0) * sc / rc**3
            bound = float(midpoint_error_bound(length, np.array([rc]))[0])
            assert abs(i0_mid - float(np.ravel(i0)[0])) <= bound
            assert abs(i1_mid - float(np.ravel(i1)[0])) <= bound


class TestMergeDegenerateTerms:
    def test_flat_pair_class_merges_images(self, two_layer_series):
        merged = merge_degenerate_terms(two_layer_series, source_z=0.8, target_z=0.8)
        assert len(merged) < len(two_layer_series)
        assert merged.weights.sum() == pytest.approx(two_layer_series.weights.sum())

    def test_merged_series_evaluates_identically(self, two_layer_series):
        """Merged terms give the same kernel value for the flat pair class."""
        z = 0.8
        merged = merge_degenerate_terms(two_layer_series, source_z=z, target_z=z)
        rng = np.random.default_rng(3)
        for _ in range(20):
            rho = rng.uniform(0.1, 50.0)
            full = sum(
                w / np.hypot(rho, z - (s * z + c))
                for w, s, c in zip(
                    two_layer_series.weights, two_layer_series.signs, two_layer_series.offsets
                )
            )
            compact = sum(
                w / np.hypot(rho, z - (s * z + c))
                for w, s, c in zip(merged.weights, merged.signs, merged.offsets)
            )
            assert compact == pytest.approx(full, rel=1e-12)

    def test_non_flat_class_does_not_lose_weight(self, two_layer_series):
        merged = merge_degenerate_terms(two_layer_series, source_z=0.8, target_z=1.7)
        assert merged.weights.sum() == pytest.approx(two_layer_series.weights.sum())


class TestTruncationPlan:
    def _build(self, series, control=None, **overrides):
        kwargs = dict(
            source_length=1.0,
            source_z_interval=(0.8, 0.8),
            target_z_interval=(0.8, 0.8),
            target_length_max=1.0,
            normalization=10.0,
            scale=100.0,
            merge_z=(0.8, 0.8),
            r_max=200.0,
        )
        kwargs.update(overrides)
        return TruncationPlan.build(series, control or AdaptiveControl(), **kwargs)

    def test_partitions_are_disjoint_and_complete(self, two_layer_series):
        plan = self._build(two_layer_series)
        for bin_plan in plan.bins:
            together = np.concatenate(
                (bin_plan.exact_idx, bin_plan.exact32_idx, bin_plan.midpoint_idx)
            )
            assert np.unique(together).size == together.size
            assert together.size + bin_plan.n_dropped == plan.n_terms

    def test_far_bins_do_not_gain_exact_terms(self, two_layer_series):
        """Monotonicity: moving away can only cheapen the evaluation."""
        plan = self._build(two_layer_series)
        costs = [bin_plan.cost_units for bin_plan in plan.bins]
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))

    def test_loose_tolerance_drops_terms(self, two_layer_series):
        tight = self._build(two_layer_series, AdaptiveControl(tolerance=1e-12))
        loose = self._build(two_layer_series, AdaptiveControl(tolerance=1e-4))
        assert loose.bins[-1].n_dropped > tight.bins[-1].n_dropped

    def test_error_bound_property_over_pair_distance(self, two_layer_series):
        """Property test: for any pair separation, the neglected/approximated
        terms stay below the advertised budget (sweeping distance)."""
        control = AdaptiveControl(tolerance=1e-8)
        normalization, target_length, scale = 10.0, 2.0, 500.0
        plan = self._build(
            two_layer_series,
            control,
            normalization=normalization,
            target_length_max=target_length,
            scale=scale,
        )
        budget = control.tolerance * scale / control.safety
        for separation in (0.0, 0.5, 3.0, 10.0, 45.0, 200.0, 1000.0):
            bin_plan = plan.bins[int(plan.bin_of(np.array([separation]))[0])]
            kept = np.concatenate(
                (bin_plan.exact_idx, bin_plan.exact32_idx, bin_plan.midpoint_idx)
            )
            dropped = np.setdiff1d(np.arange(plan.n_terms), kept)
            # Every dropped term's worst-case contribution at the *actual*
            # separation respects the budget (the plan uses the bin's lower
            # edge, which is more conservative).
            z0 = 0.8
            image_z = plan.signs[dropped] * z0 + plan.offsets[dropped]
            r = np.sqrt(separation**2 + (image_z - z0) ** 2)
            r = np.maximum(r, 1e-12)
            bound = (
                normalization
                * target_length
                * np.abs(plan.weights[dropped])
                * i0_upper_bound(1.0, r)
            )
            assert np.all(bound <= budget + 1e-16)

    def test_cost_units_vectorised(self, two_layer_series):
        plan = self._build(two_layer_series)
        separations = np.array([0.0, 1.0, 5.0, 100.0, 1e4])
        units = plan.cost_units(separations)
        assert units.shape == separations.shape
        assert np.all(units > 0.0)
        assert units[-1] <= units[0]

    def test_summary_structure(self, two_layer_series):
        summary = self._build(two_layer_series).summary()
        assert summary["merged"] is True
        assert len(summary["bins"]) == len(AdaptiveControl().bin_edges) + 1

    def test_rejects_bad_scale(self, two_layer_series):
        with pytest.raises(KernelError):
            self._build(two_layer_series, scale=0.0)

    def test_zero_weight_bin_keeps_dominant_term(self):
        series = ImageSeries(
            [ImageTerm(1e-30, 1.0, 0.0), ImageTerm(2e-30, -1.0, 5.0)]
        )
        plan = self._build(series, AdaptiveControl(tolerance=1e-2))
        for bin_plan in plan.bins:
            assert (
                bin_plan.exact_idx.size
                + bin_plan.exact32_idx.size
                + bin_plan.midpoint_idx.size
                >= 1
            )
