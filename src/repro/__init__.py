"""repro — parallel BEM analysis of substation earthing systems in layered soils.

A Python reproduction of *"Parallel Computing Aided Design of Earthing Systems
for Electrical Substations in Non-Homogeneous Soil Models"* (Colominas, Gómez,
Navarrina, Casteleiro, Cela — ICPP 2000): a 1D Galerkin boundary-element solver
for grounding grids embedded in uniform and two-layer soils, the CAD workflow
built on it, and the parallelisation study of its dense matrix generation
(OpenMP-style schedules, real process pools plus a shared-memory machine
simulator).

Quick start::

    from repro import GroundingAnalysis, UniformSoil, GridBuilder

    grid = GridBuilder(depth=0.8, conductor_radius=6e-3).rectangular_mesh(60, 40, 6, 4)
    results = GroundingAnalysis(grid, UniformSoil(0.01), gpr=10_000.0).run()
    print(results.equivalent_resistance, "ohm")

See ``README.md``: "Layout" for the package inventory, "Deterministic cost
model" and "Running the scaling benchmarks on a 1-core host" for the paper's
tables and figures, and "Dependencies and cold start" for what this import
loads.
"""

from repro._version import __version__
from repro.constants import DEFAULT_GPR
from repro.exceptions import ReproError

# Geometry
from repro.geometry import (
    Conductor,
    ConductorKind,
    GroundingGrid,
    GridBuilder,
    Mesh,
    discretize_grid,
    barbera_grid,
    balaidos_grid,
    validate_grid,
)

# Soil models
from repro.soil import (
    SoilModel,
    UniformSoil,
    TwoLayerSoil,
    MultiLayerSoil,
    WennerSurvey,
    fit_two_layer_model,
)

# Kernels
from repro.kernels import (
    SeriesControl,
    UniformSoilKernel,
    TwoLayerSoilKernel,
    HankelKernel,
    kernel_for_soil,
)

# BEM core
from repro.bem import (
    ElementType,
    GroundingAnalysis,
    AnalysisResults,
    PotentialEvaluator,
    SurfaceGrid,
    SafetyAssessment,
)

# Parallel machinery
from repro.parallel import (
    ParallelOptions,
    Schedule,
    ScheduleKind,
    Backend,
    LoopLevel,
    MachineModel,
    ScheduleSimulator,
    WorkerPool,
)

# Scenario campaign engine
from repro.campaign import (
    Campaign,
    CampaignCheckpoint,
    CampaignResult,
    GeometryVariant,
    ScenarioSpec,
    plan_campaign,
    run_campaign,
)

# Resilience layer (fault injection + retry policy)
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    PoolHealth,
    RetryPolicy,
)

# Observability (tracing + metrics + run manifests)
from repro.observe import (
    MetricsRegistry,
    RunManifest,
    Tracer,
    format_trace_tree,
    read_trace_jsonl,
    write_trace_jsonl,
)

# Hierarchical (H-matrix) engine
from repro.cluster import HierarchicalControl, HierarchicalOperator

# CAD layer
from repro.cad import GroundingProject

# Design-support layer
from repro.design import (
    FaultScenario,
    ground_potential_rise,
    minimum_conductor_section,
    optimize_grid_design,
)

__all__ = [
    "__version__",
    "DEFAULT_GPR",
    "ReproError",
    # geometry
    "Conductor",
    "ConductorKind",
    "GroundingGrid",
    "GridBuilder",
    "Mesh",
    "discretize_grid",
    "barbera_grid",
    "balaidos_grid",
    "validate_grid",
    # soil
    "SoilModel",
    "UniformSoil",
    "TwoLayerSoil",
    "MultiLayerSoil",
    "WennerSurvey",
    "fit_two_layer_model",
    # kernels
    "SeriesControl",
    "UniformSoilKernel",
    "TwoLayerSoilKernel",
    "HankelKernel",
    "kernel_for_soil",
    # bem
    "ElementType",
    "GroundingAnalysis",
    "AnalysisResults",
    "PotentialEvaluator",
    "SurfaceGrid",
    "SafetyAssessment",
    # parallel
    "ParallelOptions",
    "Schedule",
    "ScheduleKind",
    "Backend",
    "LoopLevel",
    "MachineModel",
    "ScheduleSimulator",
    "WorkerPool",
    # campaign engine
    "Campaign",
    "CampaignCheckpoint",
    "CampaignResult",
    "GeometryVariant",
    "ScenarioSpec",
    "plan_campaign",
    "run_campaign",
    # resilience
    "FaultPlan",
    "FaultSpec",
    "PoolHealth",
    "RetryPolicy",
    # observability
    "MetricsRegistry",
    "RunManifest",
    "Tracer",
    "format_trace_tree",
    "read_trace_jsonl",
    "write_trace_jsonl",
    # hierarchical engine
    "HierarchicalControl",
    "HierarchicalOperator",
    # cad
    "GroundingProject",
    # design
    "FaultScenario",
    "ground_potential_rise",
    "minimum_conductor_section",
    "optimize_grid_design",
]
