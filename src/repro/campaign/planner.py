"""Campaign planner: group scenarios by shared structure, order work by cost.

The planner decides *what is actually built* for a campaign:

* scenarios sharing a :class:`~repro.campaign.spec.GeometryVariant` share one
  mesh discretisation and one cluster tree/block partition;
* scenarios sharing a full *structure key* — geometry, base soil and
  tolerance — share one assembled operator and one solve: within such a group
  only the soil scale factor and the injection GPR differ, and the solution
  is exactly linear in both (``x(s·soil, g) = (s/s_b)(g/g_b) · x(s_b·soil,
  g_b)``, because the influence matrix scales by ``1/s`` and the right-hand
  side by ``g``).  The first scenario of a group (campaign order) is its
  *base*; the others are derived by scalar algebra.

Execution order is deterministic and cost-aware: geometry groups (and the
structure groups inside them) run in the descending-cost order produced by
:func:`repro.parallel.costs.partition_block_work` — the same LPT machinery
that shards the hierarchical block work — applied to the planner's
deterministic per-group cost estimate (``elements²`` assemble+solve work
units plus ``elements`` per derived scenario row).  The flattened
:meth:`CampaignPlan.iter_structures` sequence doubles as the canonical group
order that concurrent runners commit in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.campaign.spec import Campaign, GeometryVariant, ScenarioSpec
from repro.parallel.costs import partition_block_work

__all__ = ["CampaignPlan", "GeometryGroup", "ScenarioPlan", "StructureGroup", "plan_campaign"]

#: Reuse classes a planned scenario can fall into.
REUSE_KINDS = ("assemble", "soil-scale", "injection")


@dataclass(frozen=True)
class ScenarioPlan:
    """How one scenario is obtained.

    ``kind`` is ``"assemble"`` (the group base: full assemble + solve),
    ``"injection"`` (same operator and soil scale as the base, only the GPR
    differs) or ``"soil-scale"`` (soil scale differs too).  Derived scenarios
    carry the exact scalar ratios applied to the base solution.
    """

    spec: ScenarioSpec
    index: int
    kind: str
    base_index: int
    gpr_ratio: float = 1.0
    scale_ratio: float = 1.0

    @property
    def is_base(self) -> bool:
        """Whether this plan performs the group's assemble + solve."""
        return self.kind == "assemble"


@dataclass(frozen=True)
class StructureGroup:
    """Scenarios sharing geometry, base soil and tolerance (one assembly)."""

    geometry: GeometryVariant
    soil: Any
    tolerance: float
    plans: tuple[ScenarioPlan, ...]
    cost_units: float

    @property
    def base(self) -> ScenarioPlan:
        """The plan that assembles and solves (always the first)."""
        return self.plans[0]


@dataclass(frozen=True)
class GeometryGroup:
    """Structure groups sharing one geometry variant (one discretisation)."""

    geometry: GeometryVariant
    structures: tuple[StructureGroup, ...]
    cost_units: float


@dataclass(frozen=True)
class CampaignPlan:
    """The executable plan of a campaign."""

    campaign: Campaign
    geometry_groups: tuple[GeometryGroup, ...]
    reuse_counts: dict[str, int] = field(default_factory=dict)

    @property
    def n_assemblies(self) -> int:
        """Number of full assemble+solve runs the plan performs."""
        return self.reuse_counts.get("assemble", 0)

    def iter_plans(self):
        """Every scenario plan in execution order."""
        for geometry_group in self.geometry_groups:
            for structure in geometry_group.structures:
                yield from structure.plans

    def iter_structures(self):
        """Every ``(geometry_group, structure_group)`` pair in execution order.

        This flattened sequence is the campaign's **canonical group order**:
        the runner starts groups in it and — regardless of
        ``group_concurrency`` or completion timing — commits results,
        checkpoint stores, manifest rows and trace subtrees in it, which is
        what keeps concurrent campaigns bit-identical to sequential ones.
        Geometry-major on purpose: consecutive groups share the discretised
        grid and mesh caches.
        """
        for geometry_group in self.geometry_groups:
            for structure in geometry_group.structures:
                yield geometry_group, structure

    def summary(self) -> dict[str, Any]:
        """Compact description used by results and reports."""
        return {
            "n_scenarios": self.campaign.n_scenarios,
            "n_geometry_groups": len(self.geometry_groups),
            "n_structure_groups": sum(
                len(g.structures) for g in self.geometry_groups
            ),
            "n_assemblies": self.n_assemblies,
            "reuse_counts": dict(self.reuse_counts),
        }


def _lpt_order(costs: list[float]) -> list[int]:
    """Descending-cost execution order through the LPT partition machinery.

    ``partition_block_work(costs, 1)`` assigns every "block" to the single
    worker in LPT order — descending cost, ties broken by index — which is
    exactly the deterministic order the campaign executes groups in (heaviest
    first, so a shared pool's workers warm up on the dominant group).
    """
    if not costs:
        return []
    return [int(i) for i in partition_block_work(np.asarray(costs, dtype=float), 1)[0]]


def plan_campaign(campaign: Campaign) -> CampaignPlan:
    """Group a campaign's scenarios by shared structure and order the work."""
    # ---- structure groups (insertion order = campaign order) ----
    structure_members: dict[tuple, list[tuple[int, ScenarioSpec]]] = {}
    for index, spec in enumerate(campaign.scenarios):
        structure_members.setdefault(spec.structure_key(), []).append((index, spec))

    reuse_counts = {kind: 0 for kind in REUSE_KINDS}
    structures_by_geometry: dict[GeometryVariant, list[StructureGroup]] = {}
    for key, members in structure_members.items():
        base_index, base_spec = members[0]
        plans: list[ScenarioPlan] = [
            ScenarioPlan(spec=base_spec, index=base_index, kind="assemble", base_index=base_index)
        ]
        reuse_counts["assemble"] += 1
        for index, spec in members[1:]:
            kind = "injection" if spec.soil_scale == base_spec.soil_scale else "soil-scale"
            reuse_counts[kind] += 1
            plans.append(
                ScenarioPlan(
                    spec=spec,
                    index=index,
                    kind=kind,
                    base_index=base_index,
                    gpr_ratio=spec.gpr / base_spec.gpr,
                    scale_ratio=spec.soil_scale / base_spec.soil_scale,
                )
            )
        geometry = base_spec.geometry
        # Deterministic per-group cost: the assemble+solve work scales with
        # elements² (dense-equivalent block work), each derived scenario adds
        # one elements-sized pass (scalar rescale + safety evaluation rows).
        elements = float(geometry.estimated_elements())
        cost = elements**2 + elements * (len(plans) - 1)
        structures_by_geometry.setdefault(geometry, []).append(
            StructureGroup(
                geometry=geometry,
                soil=base_spec.soil,
                tolerance=base_spec.tolerance,
                plans=tuple(plans),
                cost_units=cost,
            )
        )

    # ---- order structure groups inside each geometry, then the geometries ----
    geometry_groups: list[GeometryGroup] = []
    for geometry, structures in structures_by_geometry.items():
        order = _lpt_order([s.cost_units for s in structures])
        ordered = tuple(structures[i] for i in order)
        geometry_groups.append(
            GeometryGroup(
                geometry=geometry,
                structures=ordered,
                cost_units=float(sum(s.cost_units for s in ordered)),
            )
        )
    order = _lpt_order([g.cost_units for g in geometry_groups])
    return CampaignPlan(
        campaign=campaign,
        geometry_groups=tuple(geometry_groups[i] for i in order),
        reuse_counts=reuse_counts,
    )
