"""Unit and property tests for the analytic segment integrals of 1/r."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bem.segment_integrals import line_integrals, potential_integrals
from repro.exceptions import AssemblyError

coord = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False, allow_infinity=False)


def numerical_reference(x, q0, q1, n=20000):
    """Brute-force trapezoidal integration of 1/r and (l/L)/r along a segment."""
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    x = np.asarray(x, dtype=float)
    length = np.linalg.norm(q1 - q0)
    t = np.linspace(0.0, 1.0, n)
    points = q0[None, :] + t[:, None] * (q1 - q0)[None, :]
    r = np.linalg.norm(points - x[None, :], axis=1)
    i0 = np.trapezoid(1.0 / r, t * length)
    i1 = np.trapezoid(t / r, t * length)
    return i0, i1


class TestAgainstNumericalQuadrature:
    CASES = [
        # (field point, q0, q1) — off-axis, oblique, near-endpoint
        ([2.0, 1.0, 0.0], [0.0, 0.0, 0.8], [5.0, 0.0, 0.8]),
        ([0.0, 3.0, 2.0], [0.0, 0.0, 0.8], [0.0, 0.0, 2.3]),
        ([-1.0, -1.0, 0.5], [0.0, 0.0, 0.8], [4.0, 3.0, 1.5]),
        ([10.0, 0.0, 0.0], [0.0, 0.0, 0.8], [5.0, 0.0, 0.8]),
        ([5.5, 0.3, 0.8], [0.0, 0.0, 0.8], [5.0, 0.0, 0.8]),
    ]

    @pytest.mark.parametrize("field,q0,q1", CASES)
    def test_matches_reference(self, field, q0, q1):
        i0, i1 = line_integrals(np.array(field), np.array(q0), np.array(q1))
        ref0, ref1 = numerical_reference(field, q0, q1)
        assert i0 == pytest.approx(ref0, rel=1e-6)
        assert i1 == pytest.approx(ref1, rel=1e-6)

    @given(
        fx=coord, fy=coord, fz=st.floats(min_value=0.0, max_value=10.0),
        length=st.floats(min_value=0.5, max_value=30.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_against_reference(self, fx, fy, fz, length):
        q0 = np.array([0.0, 0.0, 1.0])
        q1 = np.array([length, 0.0, 1.0])
        field = np.array([fx, fy, fz])
        # Keep the field point at least 10 cm from the source axis so the
        # brute-force reference converges.
        distance_to_axis = np.hypot(fy, fz - 1.0)
        if distance_to_axis < 0.1:
            field[1] += 0.5
        i0, i1 = line_integrals(field, q0, q1)
        ref0, ref1 = numerical_reference(field, q0, q1)
        assert i0 == pytest.approx(ref0, rel=1e-4)
        assert i1 == pytest.approx(ref1, rel=1e-4)


class TestThinWireRegularisation:
    def test_point_on_axis_uses_min_distance(self):
        q0 = np.array([0.0, 0.0, 0.8])
        q1 = np.array([5.0, 0.0, 0.8])
        on_axis = np.array([2.5, 0.0, 0.8])
        radius = 6e-3
        i0_clamped, _ = line_integrals(on_axis, q0, q1, min_distance=radius)
        # Reference: the field point displaced radially by exactly one radius.
        on_surface = np.array([2.5, radius, 0.8])
        i0_surface, _ = line_integrals(on_surface, q0, q1)
        assert i0_clamped == pytest.approx(i0_surface, rel=1e-12)

    def test_min_distance_irrelevant_far_away(self):
        q0 = np.array([0.0, 0.0, 0.8])
        q1 = np.array([5.0, 0.0, 0.8])
        far = np.array([2.5, 3.0, 0.8])
        i0_a, _ = line_integrals(far, q0, q1, min_distance=0.0)
        i0_b, _ = line_integrals(far, q0, q1, min_distance=6e-3)
        assert i0_a == pytest.approx(i0_b, rel=1e-12)

    def test_self_integral_scales_logarithmically_with_radius(self):
        q0 = np.array([0.0, 0.0, 0.8])
        q1 = np.array([1.0, 0.0, 0.8])
        mid = np.array([0.5, 0.0, 0.8])
        i0_small, _ = line_integrals(mid, q0, q1, min_distance=1e-3)
        i0_large, _ = line_integrals(mid, q0, q1, min_distance=1e-2)
        assert i0_small > i0_large
        # Doubling the length under the log: I0(a) ~ 2 ln(L/a) near the middle.
        assert i0_small - i0_large == pytest.approx(2.0 * np.log(10.0), rel=0.05)


class TestShapes:
    def test_broadcasting_images_and_points(self):
        gauss_points = np.random.default_rng(0).uniform(0, 5, size=(7, 4, 3))
        q0 = np.zeros((3, 1, 1, 3))
        q1 = np.zeros((3, 1, 1, 3))
        q1[..., 0] = 5.0
        q0[..., 2] = [[[0.8]], [[-0.8]], [[2.8]]]
        q1[..., 2] = q0[..., 2]
        i0, i1 = line_integrals(gauss_points[None, ...], q0, q1)
        assert i0.shape == (3, 7, 4)
        assert i1.shape == (3, 7, 4)

    def test_potential_integrals_stack(self):
        field = np.array([1.0, 1.0, 0.0])
        q0 = np.array([0.0, 0.0, 0.8])
        q1 = np.array([3.0, 0.0, 0.8])
        stacked = potential_integrals(field, q0, q1)
        i0, i1 = line_integrals(field, q0, q1)
        assert stacked.shape == (2,)
        assert stacked[0] == pytest.approx(i0 - i1)
        assert stacked[1] == pytest.approx(i1)

    def test_shape_function_integrals_sum_to_i0(self):
        field = np.array([2.0, -1.0, 0.3])
        q0 = np.array([0.0, 0.0, 0.8])
        q1 = np.array([4.0, 1.0, 1.2])
        stacked = potential_integrals(field, q0, q1)
        i0, _ = line_integrals(field, q0, q1)
        assert stacked.sum() == pytest.approx(i0)


class TestValidation:
    def test_zero_length_segment_rejected(self):
        with pytest.raises(AssemblyError):
            line_integrals(np.array([1.0, 0.0, 0.0]), np.zeros(3), np.zeros(3))

    def test_bad_trailing_dimension(self):
        with pytest.raises(AssemblyError):
            line_integrals(np.zeros(2), np.zeros(3), np.ones(3))

    def test_symmetry_under_segment_reversal(self):
        # I0 is invariant; I1 maps to I0 - I1 when the segment is reversed.
        field = np.array([2.0, 1.5, 0.0])
        q0 = np.array([0.0, 0.0, 0.8])
        q1 = np.array([5.0, 0.0, 0.8])
        i0, i1 = line_integrals(field, q0, q1)
        i0_rev, i1_rev = line_integrals(field, q1, q0)
        assert i0_rev == pytest.approx(i0, rel=1e-12)
        assert i1_rev == pytest.approx(i0 - i1, rel=1e-10)


class TestWorkspaceBound:
    def test_every_slot_stays_within_one_chunk(self, full_barbera, coarse_barbera):
        """The adaptive kernels' scratch workspace is bounded, not leaking.

        After assembling full and coarse Barberá in two-layer and uniform
        soil and mapping each one's surface potential, no slot holds more
        than one pass of ``_ADAPTIVE_CHUNK_ELEMENTS`` elements (the full
        meshes reach it), and the workspace stays within its 17 slots.
        Measured: 14 slots, 3.0 MB.
        """
        from repro.bem.assembly import assemble_system
        from repro.bem.elements import DofManager, ElementType
        from repro.bem.potential import PotentialEvaluator
        from repro.bem.segment_integrals import _ADAPTIVE_CHUNK_ELEMENTS, _WORKSPACE
        from repro.experiments.barbera import barbera_case
        from repro.geometry.discretize import discretize_grid
        from repro.kernels.base import kernel_for_soil

        cases = [full_barbera, coarse_barbera]
        for coarse in (False, True):
            grid, soil, gpr = barbera_case("uniform", coarse=coarse)
            cases.append((discretize_grid(grid, soil=soil), soil, gpr))
        for mesh, soil, gpr in cases:
            assemble_system(mesh, soil, gpr=gpr)
            dofs = DofManager(mesh, ElementType.LINEAR)
            PotentialEvaluator(
                mesh, soil, kernel_for_soil(soil), dofs, np.ones(dofs.n_dofs), gpr=gpr
            ).surface_potential_over_grid(n_x=21, n_y=21)
        buffers = list(_WORKSPACE._buffers.values())
        assert max(buffer.size for buffer in buffers) == _ADAPTIVE_CHUNK_ELEMENTS
        assert len(buffers) <= 17
        assert sum(buffer.nbytes for buffer in buffers) <= 3.7e6
