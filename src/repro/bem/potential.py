"""Evaluation of the potential created by the solved leakage current.

Once the linear system has been solved, the paper's equation (4.2) gives the
potential at any point of the ground (and in particular on the earth surface,
where the step and touch voltages are defined) as a sum of element
contributions:

    ``V_c(x) = Σ_i σ_i V_{c,i}(x)``,
    ``V_{c,i}(x) = 1/(4 π γ_b) Σ_α Σ_l ∫_Γα k^l(x, ξ) N_i(ξ) dΓ``.

The element integrals are the same analytic ``1/r`` line integrals used for the
matrix assembly, so the evaluator reuses :mod:`repro.bem.segment_integrals`.
The cost is ``O(M · n_points · n_images)`` — negligible for a handful of points
but, as the paper notes, "if it is necessary to compute potentials at a large
number of points (i.e. to draw contours), computing time may be important";
the evaluation is therefore vectorised over field points.  It walks the
(field point, source element) pairs in blocks of at most :data:`_PAIR_BLOCK`
pairs, so the memory of a contour map stays bounded whatever its raster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.bem.elements import DofManager, ElementType
from repro.bem.segment_integrals import adaptive_segment_sums, line_integrals
from repro.exceptions import AssemblyError
from repro.geometry.discretize import Mesh
from repro.kernels.base import LayeredKernel
from repro.kernels.truncation import (
    AdaptiveControl,
    TruncationPlan,
    i0_upper_bound,
    max_pair_distance,
)
from repro.soil.base import SoilModel

__all__ = ["PotentialEvaluator", "SurfaceGrid"]

#: Most (field point, source element) pairs, or (image, field point) pairs on
#: the exact path, evaluated in one vectorised block.  It caps the working set
#: of a map: on the Barberá mesh a 61 x 61 map peaks at ~3.7 MB traced, and
#: 8k-64k pairs map equally fast.
_PAIR_BLOCK: int = 16_384


@dataclass
class SurfaceGrid:
    """Earth-surface potential sampled on a rectangular grid.

    Attributes
    ----------
    x, y:
        1D arrays of the grid coordinates [m].
    values:
        Potential values, shape ``(len(y), len(x))`` [V].
    gpr:
        Ground Potential Rise of the analysis [V]; useful to express values as
        a fraction of the GPR as the paper's figures do (``×10 kV``).
    """

    x: np.ndarray
    y: np.ndarray
    values: np.ndarray
    gpr: float = 1.0
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.y.size, self.x.size):
            raise AssemblyError(
                f"surface grid values shape {self.values.shape} does not match "
                f"({self.y.size}, {self.x.size})"
            )

    @property
    def normalized(self) -> np.ndarray:
        """Values divided by the GPR (the per-unit representation of Fig. 5.2/5.4)."""
        return self.values / self.gpr

    @property
    def max_value(self) -> float:
        """Maximum surface potential [V]."""
        return float(self.values.max())

    @property
    def min_value(self) -> float:
        """Minimum surface potential [V]."""
        return float(self.values.min())

    def profile_along_x(self, y_value: float) -> tuple[np.ndarray, np.ndarray]:
        """Potential profile along the row closest to ``y = y_value``."""
        row = int(np.argmin(np.abs(self.y - y_value)))
        return self.x.copy(), self.values[row, :].copy()

    def profile_along_y(self, x_value: float) -> tuple[np.ndarray, np.ndarray]:
        """Potential profile along the column closest to ``x = x_value``."""
        col = int(np.argmin(np.abs(self.x - x_value)))
        return self.y.copy(), self.values[:, col].copy()

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation (lists, not arrays)."""
        return {
            "x": self.x.tolist(),
            "y": self.y.tolist(),
            "values": self.values.tolist(),
            "gpr": self.gpr,
            "metadata": dict(self.metadata),
        }


class PotentialEvaluator:
    """Evaluates ground potentials from the solved leakage-current densities.

    By default the evaluation runs through the *adaptive batched kernel*:
    blocks of (field point, source element) pairs are binned by separation
    and evaluated through the same truncated / merged / mixed-precision image
    sums as the matrix assembly (``adaptive=None`` falls back to the exact
    per-element loop).  Point values match the exact path to roughly
    ``tolerance`` relative to the near-conductor potential scale (the GPR).
    """

    def __init__(
        self,
        mesh: Mesh,
        soil: SoilModel,
        kernel: LayeredKernel,
        dof_manager: DofManager,
        dof_values: np.ndarray,
        gpr: float = 1.0,
        adaptive: AdaptiveControl | None | str = "default",
    ) -> None:
        dof_values = np.asarray(dof_values, dtype=float)
        if dof_values.shape != (dof_manager.n_dofs,):
            raise AssemblyError(
                f"dof vector has shape {dof_values.shape}, expected ({dof_manager.n_dofs},)"
            )
        self.mesh = mesh
        self.soil = soil
        self.kernel = kernel
        self.dof_manager = dof_manager
        self.dof_values = dof_values
        self.gpr = float(gpr)
        if isinstance(adaptive, str):
            if adaptive != "default":
                raise AssemblyError(
                    f"adaptive must be an AdaptiveControl, None or 'default', got {adaptive!r}"
                )
            adaptive = AdaptiveControl()
        elif adaptive is not None and not isinstance(adaptive, AdaptiveControl):
            raise AssemblyError(
                f"adaptive must be an AdaptiveControl, None or 'default', got {adaptive!r}"
            )
        self.adaptive = adaptive

        self._p0, self._p1 = mesh.element_endpoints()
        self._radii = mesh.element_radii()
        self._layers = mesh.element_layers()
        self._dof_matrix = dof_manager.element_dof_matrix()
        if self.adaptive is not None:
            self._init_adaptive()

    def _init_adaptive(self) -> None:
        """Pure per-solution data driving the adaptive evaluation."""
        mesh = self.mesh
        p0, p1 = self._p0, self._p1
        self._lengths = mesh.element_lengths()
        self._mid_xy = 0.5 * (p0 + p1)[:, :2]
        self._half_lengths = 0.5 * self._lengths
        self._u_xy = (p1[:, :2] - p0[:, :2]) / self._lengths[:, None]
        self._densities = self.dof_values[self._dof_matrix]  # (M, nb)
        active = np.flatnonzero(np.abs(self._densities).sum(axis=1) > 0.0)
        self._active = active

        # Group active source elements sharing every evaluation scalar; each
        # group is evaluated under one truncation plan per field layer.
        groups: dict[tuple, list[int]] = {}
        for element in active:
            key = (
                int(self._layers[element]),
                round(float(self._lengths[element]), 12),
                round(float(p0[element, 2]), 12),
                round(float(p1[element, 2]), 12),
                round(float(self._radii[element]), 12),
            )
            groups.setdefault(key, []).append(int(element))
        self._plan_groups = [
            (key, np.asarray(members, dtype=int)) for key, members in groups.items()
        ]

        # Reference potential magnitude (the near-conductor potential, ~GPR)
        # and the largest density of any group, both entering the plan bounds.
        if active.size:
            dens_abs = np.abs(self._densities[active]).max(axis=1)
            norms = np.array(
                [self.kernel.normalization(int(self._layers[e])) for e in active]
            )
            w_max = np.array(
                [
                    float(
                        np.abs(
                            self.kernel.image_series(
                                int(self._layers[e]), int(self._layers[e])
                            ).weights
                        ).max()
                    )
                    for e in active
                ]
            )
            bounds = (
                norms
                * dens_abs
                * w_max
                * i0_upper_bound(self._lengths[active], self._radii[active])
            )
            self._adaptive_scale = float(bounds.max())
            self._dens_scale = {
                key: float(np.abs(self._densities[members]).max())
                for key, members in self._plan_groups
            }
        else:
            self._adaptive_scale = 1.0
            self._dens_scale = {}
        offset_max = 0.0
        for b in np.unique(self._layers):
            for c in range(1, self.soil.n_layers + 1):
                offset_max = max(
                    offset_max,
                    float(np.abs(self.kernel.image_series(int(b), int(c)).offsets).max()),
                )
        self._r_max = max_pair_distance(p0, p1, offset_max)

    # ------------------------------------------------------------------ evaluation

    def potential_at(self, points: np.ndarray) -> np.ndarray:
        """Potential at arbitrary points of the ground (or on its surface).

        Parameters
        ----------
        points:
            Array of shape ``(n, 3)`` (or a single point of shape ``(3,)``);
            coordinates must be finite and depths non-negative.

        Returns
        -------
        numpy.ndarray
            Potentials in volts, shape ``(n,)`` (or a scalar for a single point).
        """
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise AssemblyError("field points must have three coordinates")
        if not np.isfinite(pts).all():
            raise AssemblyError("field point coordinates must be finite")
        if np.any(pts[:, 2] < -1e-12):
            raise AssemblyError("field points must lie on or below the earth surface")

        if pts.shape[0] == 0:
            return np.empty(0)
        if self.adaptive is not None:
            result = self._potential_batch_adaptive(pts, self._adaptive_context(pts))
        else:
            result = self._potential_batch(pts)
        return result[0] if single else result

    def _field_layers(self, points: np.ndarray) -> np.ndarray:
        return np.array(
            [self.soil.layer_index(max(float(z), 0.0)) for z in points[:, 2]], dtype=int
        )

    # ------------------------------------------------------------- adaptive path

    def _adaptive_context(self, points: np.ndarray) -> dict:
        """Per-call evaluation context (pure in the full ``points`` array).

        The truncation plans depend on the depth interval of *all* requested
        points, so they are built once per call and shared by every pair
        block.  The block size then moves results only through the
        float32-rounded image terms, by at most ``1e-9 · GPR``: 7-pair
        against unbounded blocks differ by 5.7e-10 · GPR on a rodded
        two-layer mesh with field points down to 2.5 m, and not at all on a
        flat grid in uniform soil.
        """
        z_values = points[:, 2]
        flat_z = float(z_values[0]) if np.ptp(z_values) <= 1.0e-12 else None
        return {
            "z_interval": (float(z_values.min()), float(z_values.max())),
            "flat_z": flat_z,
            "plans": {},
        }

    def _plan_for_group(self, key: tuple, field_layer: int, context: dict) -> TruncationPlan:
        source_layer, length, z0, z1, _radius = key
        cache_key = (key, field_layer)
        plan = context["plans"].get(cache_key)
        if plan is None:
            series = self.kernel.image_series(source_layer, field_layer)
            merge_z = None
            if context["flat_z"] is not None and abs(z1 - z0) <= 1.0e-12:
                merge_z = (z0, context["flat_z"])
            plan = TruncationPlan.build(
                series,
                self.adaptive,
                source_length=length,
                source_z_interval=(min(z0, z1), max(z0, z1)),
                target_z_interval=context["z_interval"],
                target_length_max=1.0,
                normalization=self.kernel.normalization(source_layer)
                * max(self._dens_scale.get(key, 1.0), 1.0e-300),
                scale=self._adaptive_scale,
                merge_z=merge_z,
                r_max=self._r_max,
            )
            context["plans"][cache_key] = plan
        return plan

    def _potential_batch_adaptive(self, points: np.ndarray, context: dict) -> np.ndarray:
        """Adaptive evaluation, one block of field points at a time.

        Each (field layer, plan group) walks its field points in blocks of at
        most :data:`_PAIR_BLOCK` (point, member element) pairs, so the pair
        arrays never grow with the raster.  A block's pairs are binned by
        in-plane separation and stably sorted by bin; each bin's pairs then go
        through one :func:`~repro.bem.segment_integrals.adaptive_segment_sums`
        call.
        """
        values = np.zeros(points.shape[0])
        if self._active.size == 0:
            return values
        field_layers = self._field_layers(points)
        for field_layer in np.unique(field_layers):
            layer_points = np.flatnonzero(field_layers == field_layer)
            for key, members in self._plan_groups:
                source_layer, length, z0, z1, radius = key
                plan = self._plan_for_group(key, int(field_layer), context)
                normalization = self.kernel.normalization(source_layer)
                step = max(1, _PAIR_BLOCK // members.size)
                for start in range(0, layer_points.size, step):
                    point_idx = layer_points[start : start + step]
                    pts_xy = points[point_idx, :2]
                    delta = pts_xy[:, None, :] - self._mid_xy[None, members, :]
                    separation = np.sqrt(np.einsum("psk,psk->ps", delta, delta))
                    separation -= self._half_lengths[members][None, :]
                    np.maximum(separation, 0.0, out=separation)
                    bins = plan.bin_of(separation).ravel()
                    order = np.argsort(bins, kind="stable")
                    bins = bins[order]
                    disp = pts_xy[:, None, :] - self._p0[None, members, :2]
                    p_axis = np.einsum("psk,sk->ps", disp, self._u_xy[members]).ravel()[order]
                    q_norm = np.einsum("psk,psk->ps", disp, disp).ravel()[order]
                    pair_point = order // members.size
                    x_z = points[point_idx, 2][pair_point]
                    densities = self._densities[members[order % members.size]]  # (P, nb)

                    bounds = np.flatnonzero(np.diff(bins)) + 1
                    for lo, hi in zip([0, *bounds.tolist()], [*bounds.tolist(), bins.size]):
                        bin_plan = plan.bins[int(bins[lo])]
                        w0, w1 = adaptive_segment_sums(
                            p_axis[lo:hi],
                            q_norm[lo:hi],
                            x_z[lo:hi],
                            z0,
                            (z1 - z0) / length,
                            length,
                            radius,
                            plan.weights,
                            plan.signs,
                            plan.offsets,
                            bin_plan.exact_idx,
                            bin_plan.exact32_idx,
                            bin_plan.midpoint_idx,
                        )
                        if densities.shape[1] == 1:
                            contribution = densities[lo:hi, 0] * w0
                        else:
                            contribution = (
                                densities[lo:hi, 0] * (w0 - w1) + densities[lo:hi, 1] * w1
                            )
                        contribution *= normalization
                        values[point_idx] += np.bincount(
                            pair_point[lo:hi], weights=contribution, minlength=point_idx.size
                        )
        return values

    def _potential_batch(self, points: np.ndarray) -> np.ndarray:
        """Exact per-element evaluation, in point chunks of at most
        :data:`_PAIR_BLOCK` (image, point) pairs."""
        field_layers = self._field_layers(points)
        values = np.zeros(points.shape[0])
        nb = self.dof_manager.element_type.basis_per_element

        for element_index in range(self.mesh.n_elements):
            element_dofs = self._dof_matrix[element_index]
            densities = self.dof_values[element_dofs]
            if not np.any(densities):
                continue
            source_layer = int(self._layers[element_index])
            normalization = self.kernel.normalization(source_layer)
            p0 = self._p0[element_index]
            p1 = self._p1[element_index]
            radius = float(self._radii[element_index])

            for field_layer in np.unique(field_layers):
                layer_points = np.flatnonzero(field_layers == field_layer)
                series = self.kernel.image_series(source_layer, int(field_layer))
                q0 = np.broadcast_to(p0, (len(series), 3)).copy()
                q1 = np.broadcast_to(p1, (len(series), 3)).copy()
                q0[:, 2] = series.signs * p0[2] + series.offsets
                q1[:, 2] = series.signs * p1[2] + series.offsets

                step = max(1, _PAIR_BLOCK // len(series))
                for start in range(0, layer_points.size, step):
                    idx = layer_points[start : start + step]
                    i0, i1 = line_integrals(
                        points[idx][None, :, :], q0[:, None, :], q1[:, None, :], min_distance=radius
                    )
                    w0 = np.einsum("l,ln->n", series.weights, i0)
                    w1 = np.einsum("l,ln->n", series.weights, i1)
                    if nb == 1:
                        contribution = densities[0] * w0
                    else:
                        contribution = densities[0] * (w0 - w1) + densities[1] * w1
                    values[idx] += normalization * contribution
        return values

    # ------------------------------------------------------------------ surface maps

    def surface_potential(
        self,
        x: Sequence[float] | np.ndarray,
        y: Sequence[float] | np.ndarray,
    ) -> SurfaceGrid:
        """Earth-surface potential on the tensor grid ``x × y`` (at ``z = 0``)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        xx, yy = np.meshgrid(x, y)
        points = np.column_stack((xx.ravel(), yy.ravel(), np.zeros(xx.size)))
        values = self.potential_at(points)
        return SurfaceGrid(x=x, y=y, values=values.reshape(y.size, x.size), gpr=self.gpr)

    def surface_potential_over_grid(
        self, margin: float = 20.0, n_x: int = 61, n_y: int = 61
    ) -> SurfaceGrid:
        """Surface potential over the grid's bounding box extended by ``margin`` [m]."""
        margin = float(margin)
        if not np.isfinite(margin) or margin < 0.0:
            raise AssemblyError(f"margin must be finite and non-negative, got {margin!r}")
        if int(n_x) < 2 or int(n_y) < 2:
            raise AssemblyError(
                f"a surface map needs at least 2 samples per axis, got {n_x!r} x {n_y!r}"
            )
        lower, upper = self.mesh.grid.bounding_box()
        x = np.linspace(lower[0] - margin, upper[0] + margin, int(n_x))
        y = np.linspace(lower[1] - margin, upper[1] + margin, int(n_y))
        return self.surface_potential(x, y)
