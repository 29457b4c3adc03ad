"""Least-squares interpretation of Wenner soundings as a two-layer soil.

Given a measured apparent-resistivity curve ``ρ_a(a)``, find the two-layer
model (ρ₁, ρ₂, h) whose forward response (:func:`repro.soil.wenner
.wenner_apparent_resistivity`) best matches it.  The optimisation works on the
logarithms of the three parameters (they are positive and span orders of
magnitude) and is restarted from several initial guesses to avoid the local
minima typical of resistivity inversion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import SoilModelError
from repro.soil.two_layer import TwoLayerSoil
from repro.soil.wenner import WennerSurvey, wenner_apparent_resistivity

__all__ = ["TwoLayerFit", "fit_two_layer_model"]


@dataclass(frozen=True)
class TwoLayerFit:
    """Result of a two-layer inversion."""

    #: The fitted soil model.
    soil: TwoLayerSoil
    #: Root-mean-square relative misfit between model and measurements.
    rms_relative_error: float
    #: Number of forward evaluations spent by the optimiser.
    n_evaluations: int
    #: Whether the optimiser reported convergence.
    converged: bool

    @property
    def upper_resistivity(self) -> float:
        """Fitted resistivity of the top layer [Ω·m]."""
        return 1.0 / self.soil.upper_conductivity

    @property
    def lower_resistivity(self) -> float:
        """Fitted resistivity of the bottom half-space [Ω·m]."""
        return 1.0 / self.soil.lower_conductivity

    @property
    def thickness(self) -> float:
        """Fitted thickness of the top layer [m]."""
        return self.soil.upper_thickness


def _residuals(log_params: np.ndarray, survey: WennerSurvey) -> np.ndarray:
    rho1, rho2, h = np.exp(log_params)
    soil = TwoLayerSoil.from_resistivities(rho1, rho2, h)
    model = wenner_apparent_resistivity(soil, survey.spacings)
    # Relative residuals in log space behave well for resistivities spanning
    # orders of magnitude.
    return np.log(model) - np.log(survey.apparent_resistivities)


def fit_two_layer_model(
    survey: WennerSurvey,
    n_starts: int = 6,
    max_nfev: int = 400,
    seed: int = 0,
) -> TwoLayerFit:
    """Fit a two-layer soil model to a Wenner survey.

    Parameters
    ----------
    survey:
        The measured (spacing, apparent resistivity) pairs; at least three
        measurements are required to constrain the three parameters.
    n_starts:
        Number of random multi-start initial guesses (in addition to the
        deterministic guess derived from the short- and long-spacing
        asymptotes).
    max_nfev:
        Maximum forward evaluations per start.
    seed:
        Seed of the random-start generator.

    Returns
    -------
    TwoLayerFit
        Best fit across all starts.
    """
    from scipy import optimize

    if survey.n_measurements < 3:
        raise SoilModelError(
            "at least three Wenner measurements are needed to fit (ρ1, ρ2, h)"
        )

    spacings = survey.spacings
    rho_measured = survey.apparent_resistivities

    # Asymptotic initial guess: shortest spacing ~ rho1, longest ~ rho2,
    # thickness ~ geometric mean of the spacings.
    order = np.argsort(spacings)
    rho1_guess = float(rho_measured[order[0]])
    rho2_guess = float(rho_measured[order[-1]])
    h_guess = float(np.exp(np.mean(np.log(spacings))))

    rng = np.random.default_rng(seed)
    starts = [np.log([rho1_guess, rho2_guess, h_guess])]
    for _ in range(max(0, n_starts)):
        factors = rng.uniform(-1.0, 1.0, size=3)  # up to one decade of perturbation
        starts.append(np.log([rho1_guess, rho2_guess, h_guess]) + factors * np.log(10.0))

    lower_bounds = np.log([1e-3, 1e-3, 1e-3])
    upper_bounds = np.log([1e7, 1e7, 1e4])

    best: TwoLayerFit | None = None
    total_evaluations = 0
    for start in starts:
        start_clipped = np.clip(start, lower_bounds + 1e-9, upper_bounds - 1e-9)
        result = optimize.least_squares(
            _residuals,
            start_clipped,
            args=(survey,),
            bounds=(lower_bounds, upper_bounds),
            max_nfev=max_nfev,
            xtol=1e-12,
            ftol=1e-12,
        )
        total_evaluations += int(result.nfev)
        rho1, rho2, h = np.exp(result.x)
        soil = TwoLayerSoil.from_resistivities(float(rho1), float(rho2), float(h))
        model = wenner_apparent_resistivity(soil, spacings)
        rms = float(np.sqrt(np.mean(((model - rho_measured) / rho_measured) ** 2)))
        candidate = TwoLayerFit(
            soil=soil,
            rms_relative_error=rms,
            n_evaluations=total_evaluations,
            converged=bool(result.success),
        )
        if best is None or candidate.rms_relative_error < best.rms_relative_error:
            best = candidate

    assert best is not None  # guaranteed: at least one start
    return TwoLayerFit(
        soil=best.soil,
        rms_relative_error=best.rms_relative_error,
        n_evaluations=total_evaluations,
        converged=best.converged,
    )
