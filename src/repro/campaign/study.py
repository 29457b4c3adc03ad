"""Ready-made demo campaign shared by the CLI, the example and the benchmark.

One parameterised scenario generator keeps the three entry points — ``python
-m repro campaign``, ``examples/campaign_study.py`` and
``benchmarks/bench_campaign.py`` — on the same workload: a shared reticulated
grid in flat and corner-rodded variants, analysed under a two-layer and a
uniform soil family with soil-scale (seasonal moisture) and injection-GPR
(fault-severity) variants.  Scenarios are emitted structure-major — a group's
base first, its derived variants right after — so truncating to any
``n_scenarios`` keeps the reuse ratio high.
"""

from __future__ import annotations

from repro.campaign.spec import Campaign, GeometryVariant, ScenarioSpec
from repro.exceptions import ReproError
from repro.soil.two_layer import TwoLayerSoil
from repro.soil.uniform import UniformSoil
from repro.timing import wall_clock

__all__ = ["demo_campaign", "standalone_scenario_run"]

def standalone_scenario_run(campaign: Campaign, spec: ScenarioSpec, workers: int = 1):
    """One scenario as an independent ``GroundingAnalysis`` (the pre-campaign
    per-scenario workflow), configured exactly like the campaign's scenarios.

    Shared by ``benchmarks/bench_campaign.py`` and
    ``examples/campaign_study.py`` so the cold baseline they compare the
    campaign engine against cannot drift between the two.  Returns
    ``(dof_values, wall_seconds)``; the wall time includes the safety raster
    when the campaign assesses safety.
    """
    import dataclasses

    from repro.bem.formulation import GroundingAnalysis
    from repro.kernels.truncation import AdaptiveControl

    start = wall_clock()
    hierarchical = campaign.hierarchical
    if hierarchical is not None:
        hierarchical = dataclasses.replace(
            hierarchical, workers=int(workers), tolerance=spec.tolerance
        )
    if isinstance(campaign.adaptive, str):  # "tolerance": follow the scenario
        adaptive = AdaptiveControl(tolerance=spec.tolerance)
    else:
        adaptive = campaign.adaptive
    analysis = GroundingAnalysis(
        spec.geometry.build_grid(),
        spec.effective_soil(),
        gpr=spec.gpr,
        element_type=campaign.element_type,
        n_gauss=campaign.n_gauss,
        series_control=campaign.series_control,
        solver=campaign.solver,
        solver_tolerance=campaign.solver_tolerance,
        validate=False,
        adaptive=adaptive,
        hierarchical=hierarchical,
    ).run()
    if campaign.assess_safety:
        analysis.evaluator().surface_potential_over_grid(
            margin=campaign.safety_margin,
            n_x=campaign.safety_raster,
            n_y=campaign.safety_raster,
        )
    return analysis.dof_values, wall_clock() - start


#: (label, soil scale factor, injection GPR [V]) variants per structure group.
#: The first entry is the group's base; the others reuse its operator/solve.
_VARIANTS = (
    ("base", 1.0, 10_000.0),
    ("fault5kV", 1.0, 5_000.0),
    ("wet", 1.25, 10_000.0),
    ("fault15kV", 1.0, 15_000.0),
    ("dry", 0.8, 12_500.0),
)


def demo_campaign(
    n_scenarios: int = 12,
    nx: int = 8,
    ny: int = 8,
    spacing: float = 5.0,
    hierarchical=True,
    tolerance: float = 1.0e-8,
    solver_tolerance: float = 1.0e-10,
    assess_safety: bool = True,
    name: str = "demo-campaign",
) -> Campaign:
    """A grounding study over a shared ``nx x ny`` grid (up to 20 scenarios).

    Parameters
    ----------
    n_scenarios:
        How many scenarios to emit (1..20).
    nx, ny, spacing:
        Mesh counts and mesh spacing [m] of the shared grid.
    hierarchical:
        ``True`` (default) uses the hierarchical engine with its default
        control — the configuration a persistent worker pool accelerates;
        a :class:`~repro.cluster.operator.HierarchicalControl` instance is
        used as-is; ``None``/``False`` assembles densely.
    tolerance:
        Matrix accuracy tolerance of every scenario.
    solver_tolerance:
        PCG relative residual tolerance.  Benchmarks comparing the campaign
        against standalone runs at 1e-10 solve at 1e-12, so the one-PCG-
        iteration flip between near-identical systems stays far below the
        comparison level.
    assess_safety:
        Whether the campaign computes touch/step verdicts.
    """
    width, height = spacing * nx, spacing * ny
    flat = GeometryVariant(name="flat", width=width, height=height, nx=nx, ny=ny)
    rodded = GeometryVariant(
        name="rodded", width=width, height=height, nx=nx, ny=ny, rods="corners"
    )
    soils = (
        ("tl", TwoLayerSoil(0.005, 0.016, 1.0)),  # the Barberá-like two-layer soil
        ("uni", UniformSoil(0.01)),
    )

    scenarios: list[ScenarioSpec] = []
    for geometry in (flat, rodded):
        for soil_label, soil in soils:
            for variant, scale, gpr in _VARIANTS:
                scenarios.append(
                    ScenarioSpec(
                        name=f"{geometry.name}-{soil_label}-{variant}",
                        geometry=geometry,
                        soil=soil,
                        soil_scale=scale,
                        gpr=gpr,
                        tolerance=tolerance,
                    )
                )
    if not 1 <= n_scenarios <= len(scenarios):
        raise ReproError(
            f"n_scenarios must lie in 1..{len(scenarios)}, got {n_scenarios}"
        )

    if hierarchical is False:
        hierarchical = None
    elif hierarchical is True:
        from repro.cluster.operator import HierarchicalControl

        hierarchical = HierarchicalControl()
    return Campaign(
        name=name,
        scenarios=tuple(scenarios[:n_scenarios]),
        hierarchical=hierarchical,
        solver_tolerance=solver_tolerance,
        assess_safety=assess_safety,
    )
