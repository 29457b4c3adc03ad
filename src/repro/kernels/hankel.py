"""Numerically integrated Hankel-transform kernel for arbitrary layered soils.

The image series of :mod:`repro.kernels.two_layer` are closed-form expansions
of the Hankel-transform solution of the layered Neumann problem.  This module
evaluates that solution *directly* by numerical quadrature:

1.  In the transform domain the potential in layer ``j`` is

        ``V̂_j(λ, z) = A_j(λ) e^{−λ z} + B_j(λ) e^{+λ z} + δ_{jb} e^{−λ |z−ζ|}``

    with ``B_C = 0`` in the bottom half-space.  The ``2C−1`` coefficients are
    obtained from the surface condition (``∂V/∂z = 0`` at ``z = 0``) and the
    continuity of potential and of normal current density at every interface —
    a small dense linear system solved for a whole batch of ``λ`` values at
    once.
2.  The spatial kernel is recovered through the inverse Hankel transform
    ``∫₀^∞ f(λ) J₀(λ ρ) dλ`` evaluated by composite Gauss–Legendre panels whose
    width follows the oscillation of ``J₀``.

The class serves two purposes:

* an *independent cross-check* of the analytic image series (they must agree to
  quadrature accuracy), used extensively in the test-suite;
* a point-wise kernel for soils with **three or more layers**, for which the
  paper notes that explicit image expansions become double/triple series — an
  extension beyond the paper's two-layer evaluation.

It evaluates the Green's function at individual points and is therefore far too
slow for full matrix assembly; it is not used in the BEM hot path.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import KernelError
from repro.soil.base import SoilModel

__all__ = ["HankelKernel"]


class HankelKernel:
    """Layered-soil Green's function evaluated by Hankel quadrature.

    Parameters
    ----------
    soil:
        Any horizontally stratified soil model (one or more layers).
    lambda_max_scale:
        The transform variable is integrated up to
        ``lambda_max_scale / min_decay_length`` where the decay length is the
        smallest vertical distance controlling the exponential decay of the
        secondary kernel; larger values reduce the truncation error.
    points_per_panel:
        Gauss–Legendre points per quadrature panel.
    """

    def __init__(
        self,
        soil: SoilModel,
        lambda_max_scale: float = 40.0,
        points_per_panel: int = 16,
    ) -> None:
        if lambda_max_scale <= 0.0:
            raise KernelError("lambda_max_scale must be positive")
        if points_per_panel < 2:
            raise KernelError("points_per_panel must be at least 2")
        self.soil = soil
        self.lambda_max_scale = float(lambda_max_scale)
        self.points_per_panel = int(points_per_panel)

    # ------------------------------------------------------------------ public API

    def potential_coefficient(
        self,
        field_point: np.ndarray,
        source_point: np.ndarray,
    ) -> float:
        """Potential at ``field_point`` per unit current injected at ``source_point``.

        Both points must be strictly below the surface or on it; the source
        must be strictly buried (``z > 0``) so that the secondary kernel decays
        in the transform domain.
        """
        x = np.asarray(field_point, dtype=float).reshape(3)
        xi = np.asarray(source_point, dtype=float).reshape(3)
        z = float(x[2])
        zeta = float(xi[2])
        if zeta <= 0.0:
            raise KernelError("the source point must be strictly below the surface")
        if z < 0.0:
            raise KernelError("the field point must not be above the surface")

        rho = float(np.hypot(x[0] - xi[0], x[1] - xi[1]))
        source_layer = self.soil.layer_index(zeta)
        field_layer = self.soil.layer_index(z)
        gamma_b = self.soil.conductivity_of_layer(source_layer)

        # Primary (free-space) contribution, only when both points share a layer.
        primary = 0.0
        if field_layer == source_layer:
            r = float(np.sqrt(rho**2 + (z - zeta) ** 2))
            if r <= 0.0:
                raise KernelError("field point coincides with the source point")
            primary = 1.0 / r

        secondary = self._secondary_integral(rho, z, zeta, source_layer, field_layer)
        return (primary + secondary) / (4.0 * np.pi * gamma_b)

    def kernel_value(self, field_point: np.ndarray, source_point: np.ndarray) -> float:
        """The paper's kernel ``k_bc = 4 π γ_b G`` at a single point pair."""
        xi = np.asarray(source_point, dtype=float).reshape(3)
        gamma_b = self.soil.conductivity_of_layer(self.soil.layer_index(float(xi[2])))
        return 4.0 * np.pi * gamma_b * self.potential_coefficient(field_point, source_point)

    # ------------------------------------------------------------------ internals

    def _secondary_integral(
        self, rho: float, z: float, zeta: float, source_layer: int, field_layer: int
    ) -> float:
        """``∫₀^∞ g_c(λ, z) J₀(λρ) dλ`` with ``g_c`` the secondary λ-kernel."""
        from scipy import special

        decay = self._decay_length(z, zeta, source_layer, field_layer)
        lambda_max = self.lambda_max_scale / decay

        # Panel width: follow the J0 oscillation (period 2π/ρ) but never use
        # fewer than 48 panels over the full range.
        if rho > 0.0:
            panel = min(np.pi / rho, lambda_max / 48.0)
        else:
            panel = lambda_max / 48.0
        edges = np.arange(0.0, lambda_max + panel, panel)
        gauss_x, gauss_w = np.polynomial.legendre.leggauss(self.points_per_panel)

        # All quadrature nodes at once.
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        nodes = (mid[:, None] + half[:, None] * gauss_x[None, :]).ravel()
        weights = (half[:, None] * gauss_w[None, :]).ravel()

        g = self._secondary_lambda_kernel(nodes, z, zeta, source_layer, field_layer)
        return float(np.sum(weights * g * special.j0(nodes * rho)))

    def _decay_length(
        self, z: float, zeta: float, source_layer: int, field_layer: int
    ) -> float:
        """Smallest vertical distance governing the decay of the secondary kernel."""
        candidates = [z + zeta]  # surface image distance
        for interface in self.soil.interface_depths():
            candidates.append(abs(2.0 * interface - z - zeta))
            candidates.append(2.0 * interface - min(z, zeta) + abs(z - zeta))
        if field_layer != source_layer:
            candidates.append(abs(z - zeta))
        decay = max(min(c for c in candidates if c > 0.0), 1.0e-3)
        return decay

    def _secondary_lambda_kernel(
        self,
        lambdas: np.ndarray,
        z: float,
        zeta: float,
        source_layer: int,
        field_layer: int,
    ) -> np.ndarray:
        """Secondary part of the λ-domain kernel, ``A_c e^{−λz} + B_c e^{+λz}``."""
        lambdas = np.asarray(lambdas, dtype=float)
        positive = lambdas > 0.0
        coefficients = self._solve_coefficients(lambdas[positive], zeta, source_layer)
        n_layers = self.soil.n_layers
        a_index = field_layer - 1
        b_index = n_layers + field_layer - 1  # B of the field layer (absent for bottom layer)

        result = np.zeros_like(lambdas)
        lam = lambdas[positive]
        a_coeff = coefficients[:, a_index]
        value = a_coeff * np.exp(-lam * z)
        if field_layer < n_layers:
            b_coeff = coefficients[:, b_index]
            value = value + b_coeff * np.exp(lam * z)
        result[positive] = value
        # λ = 0 contributes zero measure in the integral; the secondary kernel
        # is finite there, so leaving 0 is harmless.
        return result

    def _solve_coefficients(
        self, lambdas: np.ndarray, zeta: float, source_layer: int
    ) -> np.ndarray:
        """Solve for ``(A_1..A_C, B_1..B_{C-1})`` for a batch of λ values.

        The unknown vector is ordered ``[A_1, ..., A_C, B_1, ..., B_{C-1}]``;
        the returned array has shape ``(n_lambda, 2C-1)``.
        """
        n_layers = self.soil.n_layers
        interfaces = self.soil.interface_depths()
        gammas = self.soil.conductivities
        n_unknowns = 2 * n_layers - 1
        n_lambda = lambdas.size

        matrix = np.zeros((n_lambda, n_unknowns, n_unknowns))
        rhs = np.zeros((n_lambda, n_unknowns))

        def a_col(layer: int) -> int:
            return layer - 1

        def b_col(layer: int) -> int:
            if layer >= n_layers:
                raise KernelError("the bottom layer has no growing exponential")
            return n_layers + layer - 1

        lam = lambdas

        # Primary term present only in the source layer:  e^{-λ|z-ζ|}.
        def primary_value(z: float) -> np.ndarray:
            return np.exp(-lam * abs(z - zeta))

        def primary_derivative(z: float) -> np.ndarray:
            # d/dz e^{-λ|z-ζ|} = -λ sign(z-ζ) e^{-λ|z-ζ|}
            return -lam * np.sign(z - zeta) * np.exp(-lam * abs(z - zeta))

        row = 0
        # Surface condition: dV_1/dz = 0 at z = 0.
        matrix[:, row, a_col(1)] = -lam
        if n_layers > 1:
            matrix[:, row, b_col(1)] = lam
        if source_layer == 1:
            rhs[:, row] = -primary_derivative(0.0)
        row += 1

        # Interface conditions.
        for interface_index, depth in enumerate(interfaces, start=1):
            upper = interface_index
            lower = interface_index + 1
            exp_minus = np.exp(-lam * depth)
            exp_plus = np.exp(lam * depth)

            # Potential continuity: V_upper(depth) = V_lower(depth).
            matrix[:, row, a_col(upper)] += exp_minus
            if upper < n_layers:
                matrix[:, row, b_col(upper)] += exp_plus
            matrix[:, row, a_col(lower)] -= exp_minus
            if lower < n_layers:
                matrix[:, row, b_col(lower)] -= exp_plus
            if source_layer == upper:
                rhs[:, row] -= primary_value(depth)
            if source_layer == lower:
                rhs[:, row] += primary_value(depth)
            row += 1

            # Current continuity: γ_up dV_up/dz = γ_low dV_low/dz.
            g_up = gammas[upper - 1]
            g_low = gammas[lower - 1]
            matrix[:, row, a_col(upper)] += -g_up * lam * exp_minus
            if upper < n_layers:
                matrix[:, row, b_col(upper)] += g_up * lam * exp_plus
            matrix[:, row, a_col(lower)] -= -g_low * lam * exp_minus
            if lower < n_layers:
                matrix[:, row, b_col(lower)] -= g_low * lam * exp_plus
            if source_layer == upper:
                rhs[:, row] -= g_up * primary_derivative(depth)
            if source_layer == lower:
                rhs[:, row] += g_low * primary_derivative(depth)
            row += 1

        if row != n_unknowns:  # pragma: no cover - defensive
            raise KernelError("internal error assembling the layered-kernel system")

        return np.linalg.solve(matrix, rhs[..., None])[..., 0]
