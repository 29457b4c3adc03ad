"""Tests of the campaign spec objects and the structure-grouping planner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import (
    Campaign,
    GeometryVariant,
    ScenarioSpec,
    demo_campaign,
    plan_campaign,
    scaled_soil,
)
from repro.exceptions import ReproError
from repro.soil.two_layer import TwoLayerSoil
from repro.soil.uniform import UniformSoil


GEOMETRY = GeometryVariant(name="g", width=20.0, height=20.0, nx=2, ny=2)
SOIL = TwoLayerSoil(0.005, 0.016, 1.0)


class TestScaledSoil:
    def test_uniform(self):
        soil = scaled_soil(UniformSoil(0.01), 2.0)
        assert soil.conductivities == (0.02,)

    def test_two_layer_preserves_contrast(self):
        soil = scaled_soil(SOIL, 4.0)
        assert soil.conductivities == (0.02, 0.064)
        assert soil.thicknesses == SOIL.thicknesses
        # The layer contrast (and with it the image-series structure) is kept.
        assert soil.conductivities[1] / soil.conductivities[0] == pytest.approx(
            SOIL.conductivities[1] / SOIL.conductivities[0]
        )

    def test_identity_factor_returns_same_object(self):
        assert scaled_soil(SOIL, 1.0) is SOIL

    def test_invalid_factor(self):
        with pytest.raises(ReproError):
            scaled_soil(SOIL, 0.0)
        with pytest.raises(ReproError):
            scaled_soil(SOIL, float("nan"))


class TestGeometryVariant:
    def test_build_grid_rods(self):
        flat = GEOMETRY.build_grid()
        corners = GeometryVariant(
            name="c", width=20.0, height=20.0, nx=2, ny=2, rods="corners"
        ).build_grid()
        perimeter = GeometryVariant(
            name="p", width=20.0, height=20.0, nx=2, ny=2, rods="perimeter"
        ).build_grid()
        assert len(flat.rods) == 0
        assert len(corners.rods) == 4
        assert len(perimeter.rods) == 8  # every perimeter node of a 2x2 mesh

    def test_estimated_elements_tracks_rods(self):
        base = GEOMETRY.estimated_elements()
        corners = GeometryVariant(
            name="c", width=20.0, height=20.0, nx=2, ny=2, rods="corners"
        ).estimated_elements()
        assert corners == base + 4

    def test_validation(self):
        with pytest.raises(ReproError):
            GeometryVariant(name="", width=20.0, height=20.0, nx=2, ny=2)
        with pytest.raises(ReproError):
            GeometryVariant(name="g", width=-1.0, height=20.0, nx=2, ny=2)
        with pytest.raises(ReproError):
            GeometryVariant(name="g", width=20.0, height=20.0, nx=2, ny=2, rods="ring")


class TestScenarioSpecAndCampaign:
    def test_effective_soil_applies_scale(self):
        spec = ScenarioSpec(name="s", geometry=GEOMETRY, soil=SOIL, soil_scale=2.0)
        assert spec.effective_soil().conductivities == (0.01, 0.032)

    def test_spec_validation(self):
        with pytest.raises(ReproError):
            ScenarioSpec(name="s", geometry=GEOMETRY, soil=SOIL, gpr=0.0)
        with pytest.raises(ReproError):
            ScenarioSpec(name="s", geometry=GEOMETRY, soil=SOIL, soil_scale=-1.0)
        with pytest.raises(ReproError):
            ScenarioSpec(name="s", geometry=GEOMETRY, soil=SOIL, tolerance=2.0)

    def test_campaign_rejects_duplicate_names(self):
        spec = ScenarioSpec(name="s", geometry=GEOMETRY, soil=SOIL)
        with pytest.raises(ReproError, match="unique"):
            Campaign(name="c", scenarios=(spec, spec))

    def test_campaign_rejects_direct_solver_with_hierarchical(self):
        spec = ScenarioSpec(name="s", geometry=GEOMETRY, soil=SOIL)
        with pytest.raises(ReproError, match="matrix-free"):
            Campaign(name="c", scenarios=(spec,), solver="cholesky", hierarchical=True)

    def test_campaign_adaptive_validation(self):
        spec = ScenarioSpec(name="s", geometry=GEOMETRY, soil=SOIL)
        with pytest.raises(ReproError, match="adaptive"):
            Campaign(name="c", scenarios=(spec,), adaptive="fast")

    @pytest.mark.parametrize("margin", [float("nan"), float("inf"), -1.0])
    def test_campaign_rejects_bad_safety_margin(self, margin):
        spec = ScenarioSpec(name="s", geometry=GEOMETRY, soil=SOIL)
        with pytest.raises(ReproError, match="safety_margin"):
            Campaign(name="c", scenarios=(spec,), safety_margin=margin)


class TestPlanner:
    def test_structure_grouping_and_reuse_kinds(self):
        scenarios = (
            ScenarioSpec(name="base", geometry=GEOMETRY, soil=SOIL),
            ScenarioSpec(name="hot", geometry=GEOMETRY, soil=SOIL, gpr=20_000.0),
            ScenarioSpec(name="wet", geometry=GEOMETRY, soil=SOIL, soil_scale=1.25),
            ScenarioSpec(name="uni", geometry=GEOMETRY, soil=UniformSoil(0.01)),
            ScenarioSpec(name="tight", geometry=GEOMETRY, soil=SOIL, tolerance=1e-10),
        )
        plan = plan_campaign(Campaign(name="c", scenarios=scenarios))
        summary = plan.summary()
        # SOIL/default-tol group (base, hot, wet) + uniform group + tight group.
        assert summary["n_structure_groups"] == 3
        assert summary["n_assemblies"] == 3
        assert summary["reuse_counts"] == {"assemble": 3, "injection": 1, "soil-scale": 1}
        kinds = {plan_.spec.name: plan_.kind for plan_ in plan.iter_plans()}
        assert kinds == {
            "base": "assemble",
            "hot": "injection",
            "wet": "soil-scale",
            "uni": "assemble",
            "tight": "assemble",
        }

    def test_ratios_are_exact(self):
        scenarios = (
            ScenarioSpec(name="base", geometry=GEOMETRY, soil=SOIL, gpr=10_000.0),
            ScenarioSpec(
                name="v", geometry=GEOMETRY, soil=SOIL, soil_scale=0.8, gpr=12_500.0
            ),
        )
        plan = plan_campaign(Campaign(name="c", scenarios=scenarios))
        derived = [p for p in plan.iter_plans() if not p.is_base][0]
        assert derived.gpr_ratio == 1.25
        assert derived.scale_ratio == 0.8
        assert derived.base_index == 0

    def test_geometry_groups_ordered_by_cost_descending(self):
        small = GeometryVariant(name="small", width=10.0, height=10.0, nx=1, ny=1)
        big = GeometryVariant(name="big", width=40.0, height=40.0, nx=6, ny=6)
        scenarios = (
            ScenarioSpec(name="s", geometry=small, soil=SOIL),
            ScenarioSpec(name="b", geometry=big, soil=SOIL),
        )
        plan = plan_campaign(Campaign(name="c", scenarios=scenarios))
        names = [g.geometry.name for g in plan.geometry_groups]
        assert names == ["big", "small"]

    def test_plan_is_deterministic(self):
        campaign = demo_campaign(n_scenarios=12, nx=3, ny=3)
        first = plan_campaign(campaign)
        second = plan_campaign(campaign)
        assert [p.spec.name for p in first.iter_plans()] == [
            p.spec.name for p in second.iter_plans()
        ]
        assert first.summary() == second.summary()

    def test_results_order_is_campaign_order(self):
        campaign = demo_campaign(n_scenarios=8, nx=3, ny=3)
        plan = plan_campaign(campaign)
        indices = sorted(p.index for p in plan.iter_plans())
        assert indices == list(range(8))


class TestDemoCampaign:
    def test_sizes_and_uniqueness(self):
        campaign = demo_campaign(n_scenarios=20, nx=4, ny=4)
        assert campaign.n_scenarios == 20
        assert len({s.name for s in campaign.scenarios}) == 20

    def test_bounds(self):
        with pytest.raises(ReproError):
            demo_campaign(n_scenarios=0)
        with pytest.raises(ReproError):
            demo_campaign(n_scenarios=21)

    def test_truncation_keeps_reuse_high(self):
        plan = plan_campaign(demo_campaign(n_scenarios=6, nx=3, ny=3))
        # Structure-major emission: 6 scenarios need only 2 assemblies.
        assert plan.summary()["n_assemblies"] == 2

    def test_dense_engine_option(self):
        campaign = demo_campaign(n_scenarios=4, hierarchical=False)
        assert campaign.hierarchical is None
