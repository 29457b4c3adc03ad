"""Scenario campaign engine: batch grounding studies with cross-scenario reuse.

The paper's end goal is not one matrix solve but grounding *studies* — many
geometry/soil/fault variants of the same installation analysed fast on the
same hardware.  This package turns such a study into a first-class object:

* :mod:`repro.campaign.spec` — declarative :class:`ScenarioSpec` /
  :class:`Campaign` objects (geometry variant × soil model × soil scale ×
  injection GPR × tolerance);
* :mod:`repro.campaign.planner` — groups scenarios by shared structure so the
  expensive artefacts are built once per group: the mesh per geometry
  variant, the cluster tree/block partition per geometry
  (:class:`~repro.cluster.block_assembly.ClusterPlanCache`), and — when only the
  injection current or a common soil scale factor changes — the assembled
  operator *and its solve* (solutions are exactly linear in the GPR and in
  the soil resistivity scale);
* :mod:`repro.campaign.runner` — executes the plan, optionally on a
  persistent :class:`~repro.parallel.pool.WorkerPool` so repeated sharded
  assemblies stop paying per-call fork+warmup, and aggregates a
  :class:`CampaignResult` (per-scenario GPR / touch / step safety verdicts,
  timings, reuse and cache-hit statistics).  A failing structure group is
  recorded as a :class:`CampaignFailure` instead of aborting the study, and
  ``run_campaign(checkpoint=path)`` persists completed groups so a killed
  campaign resumes recomputing only the incomplete ones
  (:mod:`repro.campaign.checkpoint`);
* :mod:`repro.campaign.study` — a ready-made demo campaign shared by the
  CLI (``python -m repro campaign``), ``examples/campaign_study.py`` and
  ``benchmarks/bench_campaign.py``.

Quick start::

    from repro.campaign import Campaign, GeometryVariant, ScenarioSpec, run_campaign
    from repro.cluster import HierarchicalControl
    from repro.soil import TwoLayerSoil

    geometry = GeometryVariant(name="60x40", width=60, height=40, nx=6, ny=4)
    soil = TwoLayerSoil(0.005, 0.016, 1.0)
    campaign = Campaign(
        name="demo",
        scenarios=(
            ScenarioSpec("base", geometry, soil, gpr=10_000.0),
            ScenarioSpec("hot", geometry, soil, gpr=15_000.0),        # injection reuse
            ScenarioSpec("wet", geometry, soil, soil_scale=1.25),     # operator-scale reuse
        ),
        hierarchical=HierarchicalControl(),
    )
    result = run_campaign(campaign, workers=2)
    for row in result.table():
        print(row)
"""

from repro.campaign.checkpoint import CampaignCheckpoint, structure_fingerprint
from repro.campaign.planner import CampaignPlan, ScenarioPlan, StructureGroup, plan_campaign
from repro.campaign.result import CampaignFailure, CampaignResult, ScenarioResult
from repro.campaign.runner import run_campaign
from repro.campaign.spec import Campaign, GeometryVariant, ScenarioSpec, scaled_soil
from repro.campaign.study import demo_campaign, standalone_scenario_run

__all__ = [
    "Campaign",
    "CampaignCheckpoint",
    "CampaignFailure",
    "CampaignPlan",
    "CampaignResult",
    "GeometryVariant",
    "ScenarioPlan",
    "ScenarioResult",
    "ScenarioSpec",
    "StructureGroup",
    "demo_campaign",
    "plan_campaign",
    "run_campaign",
    "scaled_soil",
    "standalone_scenario_run",
    "structure_fingerprint",
]
