"""Grid design optimisation: find the cheapest compliant reticulated design.

A simple but realistic design-space search on top of the BEM solver: candidate
designs are rectangular grids of increasing mesh density, optionally reinforced
with perimeter ground rods.  For every candidate the solver computes the
equivalent resistance, the GPR produced by the fault scenario and the worst
touch and step voltages over the protected area; the search returns all
evaluated candidates plus the cheapest one (smallest buried conductor length)
that meets the IEEE Std 80 limits.

The search is deliberately exhaustive over a small, explicit candidate list —
grounding designs are reviewed by humans and the full table of candidates is
part of the deliverable, exactly like the soil-model comparison tables of the
paper.

The sweep itself runs as a :mod:`repro.campaign` campaign: every candidate is
one :class:`~repro.campaign.spec.ScenarioSpec` at a unit GPR (the solution is
linear in the GPR, so the fault scenario's GPR is applied afterwards through
``ground_potential_rise``), and the campaign runner provides the shared
geometry/cluster caches — and, optionally, a persistent worker pool plus the
hierarchical engine for large candidate grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.campaign.runner import run_campaign
from repro.campaign.spec import Campaign, GeometryVariant, ScenarioSpec
from repro.design.fault import FaultScenario, ground_potential_rise
from repro.exceptions import ReproError
from repro.kernels.truncation import AdaptiveControl
from repro.soil.base import SoilModel

__all__ = ["DesignCandidate", "DesignStudy", "optimize_grid_design"]


@dataclass
class DesignCandidate:
    """One evaluated grid design."""

    #: Number of meshes along x and y.
    nx: int
    ny: int
    #: Number of perimeter rods.
    n_rods: int
    #: Total buried conductor length (the cost proxy) [m].
    total_length: float
    #: Equivalent resistance [Ω].
    equivalent_resistance: float
    #: Ground Potential Rise produced by the fault scenario [V].
    gpr: float
    #: Worst touch voltage over the assessed area [V].
    max_touch_voltage: float
    #: Worst step voltage over the assessed area [V].
    max_step_voltage: float
    #: Tolerable limits used for the verdict [V].
    tolerable_touch_voltage: float
    tolerable_step_voltage: float
    #: Extra data (timings, grid summary ...).
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def compliant(self) -> bool:
        """Whether both IEEE Std 80 criteria are met."""
        return (
            self.max_touch_voltage <= self.tolerable_touch_voltage
            and self.max_step_voltage <= self.tolerable_step_voltage
        )

    def summary(self) -> dict[str, Any]:
        """Row used by reports."""
        return {
            "nx": self.nx,
            "ny": self.ny,
            "n_rods": self.n_rods,
            "total_length_m": round(self.total_length, 1),
            "Req_ohm": round(self.equivalent_resistance, 4),
            "gpr_v": round(self.gpr, 1),
            "max_touch_v": round(self.max_touch_voltage, 1),
            "max_step_v": round(self.max_step_voltage, 1),
            "compliant": self.compliant,
        }


@dataclass
class DesignStudy:
    """All evaluated candidates plus the selected design."""

    candidates: list[DesignCandidate]
    best: DesignCandidate | None

    @property
    def n_candidates(self) -> int:
        """Number of evaluated designs."""
        return len(self.candidates)

    @property
    def n_compliant(self) -> int:
        """Number of designs meeting both limits."""
        return sum(1 for c in self.candidates if c.compliant)

    def table(self) -> list[dict[str, Any]]:
        """Summary rows of every candidate (cheapest first)."""
        ordered = sorted(self.candidates, key=lambda c: c.total_length)
        return [c.summary() for c in ordered]


def optimize_grid_design(
    width: float,
    height: float,
    soil: SoilModel,
    fault: FaultScenario,
    mesh_densities: Sequence[int] = (2, 3, 4, 6, 8),
    try_rods: bool = True,
    depth: float = 0.8,
    conductor_radius: float = 6.0e-3,
    rod_length: float = 2.4,
    surface_resistivity: float | None = None,
    surface_thickness: float = 0.1,
    body_weight_kg: float = 70.0,
    raster: int = 25,
    adaptive: "AdaptiveControl | None" = None,
    hierarchical=None,
    pool=None,
) -> DesignStudy:
    """Search rectangular designs until the IEEE Std 80 limits are met.

    Parameters
    ----------
    width, height:
        Plan dimensions of the area to protect [m].
    soil:
        Soil model (uniform or two-layer).
    fault:
        Fault scenario producing the grid current.
    mesh_densities:
        Candidate numbers of meshes along the longer side; the shorter side is
        meshed proportionally (at least one mesh).
    try_rods:
        Also evaluate each density with perimeter rods.
    depth, conductor_radius, rod_length:
        Construction parameters.
    surface_resistivity, surface_thickness, body_weight_kg:
        IEEE Std 80 tolerable-voltage parameters.
    raster:
        Resolution of the surface-potential raster used for the touch/step
        assessment.
    adaptive:
        Optional :class:`repro.kernels.truncation.AdaptiveControl` enabling
        the adaptive assembly engine for every candidate analysis (the
        surface-potential rasters always use the adaptive evaluator).
    hierarchical:
        Optional :class:`repro.cluster.operator.HierarchicalControl`
        switching every candidate analysis to the matrix-free hierarchical
        engine (worthwhile for very dense candidate grids).
    pool:
        Optional persistent :class:`repro.parallel.pool.WorkerPool` shared
        with other campaigns (requires ``hierarchical``).

    Returns
    -------
    DesignStudy
        Every evaluated candidate and the cheapest compliant one (``best`` is
        ``None`` when no candidate meets the limits).
    """
    if width <= 0 or height <= 0:
        raise ReproError("the protected area dimensions must be positive")
    if not mesh_densities:
        raise ReproError("at least one mesh density must be proposed")

    long_side, short_side = max(width, height), min(width, height)
    variants: list[GeometryVariant] = []
    for density in sorted(set(int(d) for d in mesh_densities)):
        if density < 1:
            raise ReproError("mesh densities must be >= 1")
        n_long = density
        n_short = max(1, int(round(density * short_side / long_side)))
        nx, ny = (n_long, n_short) if width >= height else (n_short, n_long)
        rod_options = (False, True) if try_rods else (False,)
        for with_rods in rod_options:
            variants.append(
                GeometryVariant(
                    name=f"design-{nx}x{ny}{'-rods' if with_rods else ''}",
                    width=width,
                    height=height,
                    nx=nx,
                    ny=ny,
                    depth=depth,
                    conductor_radius=conductor_radius,
                    rod_radius=conductor_radius * 1.2,
                    rod_length=rod_length,
                    rods="perimeter" if with_rods else "none",
                )
            )

    # The sweep runs as a campaign at a unit GPR: the solution scales
    # linearly with the GPR, so the fault scenario's GPR — which depends on
    # each candidate's resistance — is applied to the results afterwards.
    campaign = Campaign(
        name="design-sweep",
        scenarios=tuple(
            ScenarioSpec(name=variant.name, geometry=variant, soil=soil, gpr=1.0)
            for variant in variants
        ),
        hierarchical=hierarchical,
        adaptive=adaptive,
        assess_safety=True,
        safety_raster=raster,
        safety_margin=10.0,
        fault_duration_s=fault.duration_s,
        body_weight_kg=body_weight_kg,
        surface_resistivity=surface_resistivity,
        surface_thickness=surface_thickness,
    )
    outcome = run_campaign(campaign, pool=pool)

    candidates: list[DesignCandidate] = []
    for variant, scenario in zip(variants, outcome.scenarios):
        grid_facts = scenario.metadata["grid"]  # from the runner's built grid
        resistance = scenario.equivalent_resistance
        gpr = ground_potential_rise(resistance, fault)
        candidates.append(
            DesignCandidate(
                nx=variant.nx,
                ny=variant.ny,
                n_rods=grid_facts["n_rods"],
                total_length=grid_facts["total_length_m"],
                equivalent_resistance=resistance,
                gpr=gpr,
                # Unit-GPR touch/step voltages scaled to the fault GPR.
                max_touch_voltage=scenario.max_touch_voltage * gpr,
                max_step_voltage=scenario.max_step_voltage * gpr,
                tolerable_touch_voltage=scenario.tolerable_touch_voltage,
                tolerable_step_voltage=scenario.tolerable_step_voltage,
                metadata={"grid": grid_facts["summary"], "campaign": outcome.plan_summary},
            )
        )

    compliant = [c for c in candidates if c.compliant]
    best = min(compliant, key=lambda c: c.total_length) if compliant else None
    return DesignStudy(candidates=candidates, best=best)
