"""Declarative description of a batch grounding study.

A campaign is a list of :class:`ScenarioSpec` entries over shared analysis
settings.  Every spec is a plain frozen value object — geometry variant, soil
model, soil scale factor, injection GPR, accuracy tolerance — so the planner
can group scenarios by *structural equality* (hashable keys) instead of
heuristics, and so campaigns can be built programmatically (design sweeps,
CLI, benchmarks) without touching solver objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.bem.elements import ElementType
from repro.constants import DEFAULT_GAUSS_POINTS, DEFAULT_GPR
from repro.exceptions import ReproError
from repro.geometry.builder import GridBuilder
from repro.geometry.grid import GroundingGrid
from repro.kernels.series import SeriesControl
from repro.soil.base import SoilModel
from repro.soil.multilayer import MultiLayerSoil
from repro.soil.two_layer import TwoLayerSoil
from repro.soil.uniform import UniformSoil

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.operator import HierarchicalControl
    from repro.kernels.truncation import AdaptiveControl

__all__ = ["Campaign", "GeometryVariant", "ScenarioSpec", "scaled_soil"]

#: Rod placements a geometry variant understands.
_ROD_PLACEMENTS = ("none", "corners", "perimeter")


def scaled_soil(soil: SoilModel, factor: float) -> SoilModel:
    """The soil with every layer conductivity multiplied by ``factor``.

    Scaling all conductivities by a common factor leaves the layer contrasts
    (and therefore the image-series structure) unchanged while the kernel —
    and with it the whole influence matrix — scales by ``1 / factor``.  This
    is the algebraic fact the campaign planner exploits to reuse an assembled
    operator across soil-scale variants.
    """
    if not np.isfinite(factor) or factor <= 0.0:
        raise ReproError(f"the soil scale factor must be positive, got {factor!r}")
    if factor == 1.0:  # contracts: disable=API001 -- exact scale sentinel declared by the user, never a computed ratio
        return soil
    conductivities = tuple(g * float(factor) for g in soil.conductivities)
    if soil.n_layers == 1:
        return UniformSoil(conductivities[0])
    if soil.n_layers == 2:
        return TwoLayerSoil(conductivities[0], conductivities[1], soil.thicknesses[0])
    return MultiLayerSoil(conductivities, soil.thicknesses)


@dataclass(frozen=True)
class GeometryVariant:
    """One grid-geometry candidate of a campaign (a reticulated mesh + rods).

    The variant is declarative — :meth:`build_grid` materialises the
    :class:`~repro.geometry.grid.GroundingGrid` on demand — and hashable, so
    scenarios sharing a geometry are grouped exactly (same mesh, same cluster
    tree).

    Parameters
    ----------
    name:
        Label used in reports.
    width, height:
        Plan dimensions [m].
    nx, ny:
        Number of meshes along x and y.
    depth, conductor_radius, rod_radius, rod_length:
        Construction parameters [m]; ``rod_radius=None`` uses
        ``1.2 * conductor_radius`` (the design-optimiser convention).
    rods:
        ``"none"``, ``"corners"`` (the four plan corners) or ``"perimeter"``
        (every perimeter node).
    """

    name: str
    width: float
    height: float
    nx: int
    ny: int
    depth: float = 0.8
    conductor_radius: float = 6.0e-3
    rod_radius: float | None = None
    rod_length: float = 2.4
    rods: str = "none"

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("a geometry variant needs a non-empty name")
        if self.width <= 0.0 or self.height <= 0.0:
            raise ReproError("the plan dimensions must be positive")
        if self.nx < 1 or self.ny < 1:
            raise ReproError("the mesh counts nx/ny must be at least 1")
        if self.rods not in _ROD_PLACEMENTS:
            raise ReproError(
                f"rods must be one of {_ROD_PLACEMENTS}, got {self.rods!r}"
            )

    def build_grid(self) -> GroundingGrid:
        """Materialise the grounding grid of this variant."""
        builder = GridBuilder(
            depth=self.depth,
            conductor_radius=self.conductor_radius,
            rod_radius=self.rod_radius
            if self.rod_radius is not None
            else self.conductor_radius * 1.2,
            rod_length=self.rod_length,
            name=self.name,
        )
        grid = builder.rectangular_mesh(self.width, self.height, self.nx, self.ny)
        if self.rods == "corners":
            builder.add_rods(
                grid,
                [
                    (0.0, 0.0),
                    (self.width, 0.0),
                    (0.0, self.height),
                    (self.width, self.height),
                ],
            )
        elif self.rods == "perimeter":
            builder.add_rods(grid, GridBuilder.perimeter_node_positions(grid)[:, :2])
        return grid

    def estimated_elements(self) -> int:
        """Deterministic element-count estimate (the planner's cost unit).

        Counts the conductor segments of the reticulated mesh plus the rods
        of the chosen placement — cheap (no grid is built) and exact enough
        for LPT ordering; only relative values matter.
        """
        segments = self.nx * (self.ny + 1) + self.ny * (self.nx + 1)
        if self.rods == "corners":
            segments += 4
        elif self.rods == "perimeter":
            segments += 2 * (self.nx + self.ny)
        return int(segments)


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario of a campaign.

    Parameters
    ----------
    name:
        Unique label inside the campaign.
    geometry:
        The grid-geometry variant.
    soil:
        Base soil model of the scenario's soil family.
    soil_scale:
        Common factor applied to every layer conductivity (see
        :func:`scaled_soil`).  Declared *explicitly* — rather than detected by
        comparing resistivity ratios — so the planner's operator reuse rests
        on exact algebra, never on floating-point key matching.
    gpr:
        Injection case: the Ground Potential Rise applied to the electrode
        [V].  Solutions are exactly linear in it.
    tolerance:
        Target relative matrix accuracy (drives both the adaptive evaluation
        layer and the hierarchical ACA compression).
    """

    name: str
    geometry: GeometryVariant
    soil: SoilModel
    soil_scale: float = 1.0
    gpr: float = DEFAULT_GPR
    tolerance: float = 1.0e-8

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("a scenario needs a non-empty name")
        if not isinstance(self.geometry, GeometryVariant):
            raise ReproError(
                f"geometry must be a GeometryVariant, got {self.geometry!r}"
            )
        if not isinstance(self.soil, SoilModel):
            raise ReproError(f"soil must be a SoilModel, got {self.soil!r}")
        if not np.isfinite(self.soil_scale) or self.soil_scale <= 0.0:
            raise ReproError(f"soil_scale must be positive, got {self.soil_scale!r}")
        if not np.isfinite(self.gpr) or self.gpr <= 0.0:
            raise ReproError(f"the GPR must be positive, got {self.gpr!r}")
        if not 0.0 < self.tolerance < 1.0:
            raise ReproError(
                f"tolerance must lie strictly between 0 and 1, got {self.tolerance!r}"
            )

    def effective_soil(self) -> SoilModel:
        """The soil actually analysed: ``soil`` scaled by ``soil_scale``."""
        return scaled_soil(self.soil, self.soil_scale)

    def structure_key(self) -> tuple:
        """Grouping key: scenarios sharing it differ only in scale/injection."""
        return (self.geometry, self.soil, float(self.tolerance))


@dataclass(frozen=True)
class Campaign:
    """A batch study: scenarios plus the shared analysis settings.

    Parameters
    ----------
    name:
        Campaign label.
    scenarios:
        The scenario specs (unique names, at least one).
    element_type, n_gauss, series_control, solver, solver_tolerance:
        Shared discretisation/solver settings of every scenario.  Derived
        scenarios inherit the base scenario's solve, so a comparison against
        independent runs at level ``L`` should solve a couple of orders
        tighter than ``L`` (two near-identical systems can differ by one PCG
        iteration's correction, ~ the solver tolerance, when their final
        residuals straddle the stopping threshold).
    hierarchical:
        ``None`` assembles every scenario densely (small grids, the design
        optimiser's default); a
        :class:`~repro.cluster.operator.HierarchicalControl` switches the
        campaign to the matrix-free hierarchical engine — the configuration a
        persistent :class:`~repro.parallel.pool.WorkerPool` accelerates.
        Scenario tolerances override the control's tolerance per scenario.
    adaptive:
        Image-series evaluation engine: the default ``"tolerance"`` derives
        an :class:`~repro.kernels.truncation.AdaptiveControl` from each
        scenario's tolerance; an explicit ``AdaptiveControl`` is used as-is
        for every scenario; ``None`` forces the exact full-series engine
        (reference studies, the design optimiser's historical default).
    assess_safety:
        Compute the touch/step voltage raster and IEEE Std 80 verdicts per
        scenario (skipped entirely when ``False`` — e.g. pure scaling
        benchmarks).
    safety_raster, safety_margin:
        Resolution and margin [m] of the surface-potential raster of the
        safety assessment.
    fault_duration_s, body_weight_kg, surface_resistivity, surface_thickness:
        IEEE Std 80 tolerable-voltage parameters of the verdicts.
    group_concurrency:
        Number of structure groups the runner keeps in flight concurrently
        on the shared :class:`~repro.parallel.pool.WorkerPool` (default 1:
        sequential groups).  Results are bit-identical for any value — the
        runner commits groups in the plan's canonical order regardless of
        completion timing — so this is purely a throughput knob.  Values
        above 1 require the hierarchical engine with a worker pool.
    """

    name: str
    scenarios: tuple[ScenarioSpec, ...]
    element_type: ElementType = ElementType.LINEAR
    n_gauss: int = DEFAULT_GAUSS_POINTS
    series_control: SeriesControl = field(default_factory=SeriesControl)
    solver: str = "pcg"
    solver_tolerance: float = 1.0e-10
    hierarchical: "HierarchicalControl | bool | None" = None
    adaptive: "AdaptiveControl | str | None" = "tolerance"
    assess_safety: bool = True
    safety_raster: int = 15
    safety_margin: float = 10.0
    fault_duration_s: float = 0.5
    body_weight_kg: float = 70.0
    surface_resistivity: float | None = None
    surface_thickness: float = 0.1
    group_concurrency: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("a campaign needs a non-empty name")
        scenarios = tuple(self.scenarios)
        object.__setattr__(self, "scenarios", scenarios)
        if not scenarios:
            raise ReproError("a campaign needs at least one scenario")
        names = [spec.name for spec in scenarios]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ReproError(f"scenario names must be unique; duplicated: {duplicates}")
        if not isinstance(self.element_type, ElementType):
            object.__setattr__(self, "element_type", ElementType(self.element_type))
        if self.n_gauss < 1:
            raise ReproError("n_gauss must be at least 1")
        if not 0.0 < self.solver_tolerance < 1.0:
            raise ReproError(
                f"solver_tolerance must lie strictly between 0 and 1, "
                f"got {self.solver_tolerance!r}"
            )
        if self.hierarchical is not None:
            from repro.cluster.operator import HierarchicalControl

            if self.hierarchical is True:
                object.__setattr__(self, "hierarchical", HierarchicalControl())
            elif not isinstance(self.hierarchical, HierarchicalControl):
                raise ReproError(
                    "hierarchical must be a HierarchicalControl instance, True or "
                    f"None, got {self.hierarchical!r}"
                )
            if self.solver not in ("pcg", "cg"):
                raise ReproError(
                    "the hierarchical engine is matrix-free; choose the 'pcg' or "
                    f"'cg' solver instead of {self.solver!r}"
                )
        if self.adaptive is not None and not isinstance(self.adaptive, str):
            from repro.kernels.truncation import AdaptiveControl

            if not isinstance(self.adaptive, AdaptiveControl):
                raise ReproError(
                    "adaptive must be 'tolerance', an AdaptiveControl or None, "
                    f"got {self.adaptive!r}"
                )
        elif isinstance(self.adaptive, str) and self.adaptive != "tolerance":
            raise ReproError(
                f"adaptive must be 'tolerance', an AdaptiveControl or None, "
                f"got {self.adaptive!r}"
            )
        if self.assess_safety and self.safety_raster < 3:
            raise ReproError("safety_raster must be at least 3 samples per axis")
        if self.assess_safety and not (np.isfinite(self.safety_margin) and self.safety_margin >= 0):
            raise ReproError(
                f"safety_margin must be finite and non-negative, got {self.safety_margin!r}"
            )
        if int(self.group_concurrency) != self.group_concurrency or self.group_concurrency < 1:
            raise ReproError(
                f"group_concurrency must be a positive integer, "
                f"got {self.group_concurrency!r}"
            )
        object.__setattr__(self, "group_concurrency", int(self.group_concurrency))

    @property
    def n_scenarios(self) -> int:
        """Number of scenarios."""
        return len(self.scenarios)
