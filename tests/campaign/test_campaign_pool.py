"""Campaign runs on the persistent worker pool: determinism and recovery.

These tests pin the campaign-level contracts of the pool path:

* solutions are bit-identical across pool worker counts (the sharded
  backend's deterministic-reduction contract survives the pool protocol);
* a worker killed mid-campaign is respawned and its shard re-executed with
  bit-identical results.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.campaign import Campaign, GeometryVariant, ScenarioSpec, run_campaign
from repro.cluster import HierarchicalControl
from repro.parallel.pool import WorkerPool
from repro.soil.two_layer import TwoLayerSoil
from repro.soil.uniform import UniformSoil

GEOMETRY = GeometryVariant(name="g", width=24.0, height=24.0, nx=4, ny=4)
SOIL = TwoLayerSoil(0.005, 0.016, 1.0)


def _hier_campaign() -> Campaign:
    scenarios = (
        ScenarioSpec(name="base", geometry=GEOMETRY, soil=SOIL),
        ScenarioSpec(name="hot", geometry=GEOMETRY, soil=SOIL, gpr=15_000.0),
        ScenarioSpec(name="wet", geometry=GEOMETRY, soil=SOIL, soil_scale=1.25),
        ScenarioSpec(name="uni", geometry=GEOMETRY, soil=UniformSoil(0.01)),
    )
    return Campaign(
        name="pool-test",
        scenarios=scenarios,
        hierarchical=HierarchicalControl(leaf_size=8),
        solver_tolerance=1.0e-12,
        assess_safety=False,
    )


class KillOnce:
    """Block-task wrapper that SIGKILLs its worker once (flag-file guarded)."""

    def __init__(self, inner, flag_path: str) -> None:
        self.inner = inner
        self.flag_path = flag_path

    def __call__(self, index: int):
        if not os.path.exists(self.flag_path):
            with open(self.flag_path, "w", encoding="utf-8"):
                pass
            os.kill(os.getpid(), signal.SIGKILL)
        return self.inner(index)


class TestCampaignOnPool:
    def test_bit_identical_across_pool_worker_counts(self):
        campaign = _hier_campaign()
        reference = run_campaign(campaign)  # in-process serial hierarchical path
        with WorkerPool(1) as pool:
            one = run_campaign(campaign, pool=pool)
        with WorkerPool(2) as pool:
            two = run_campaign(campaign, pool=pool)
        for name in ("base", "hot", "wet", "uni"):
            a = one.scenario(name).dof_values
            b = two.scenario(name).dof_values
            np.testing.assert_array_equal(a, b)
            # The serial engine agrees within solver rounding (different
            # matvec reduction trees; see the sharded-backend contract).
            serial = reference.scenario(name).dof_values
            scale = float(np.abs(serial).max())
            assert float(np.abs(a - serial).max()) <= 1.0e-10 * scale

    def test_pool_is_borrowed_not_closed(self):
        campaign = _hier_campaign()
        with WorkerPool(2) as pool:
            run_campaign(campaign, pool=pool)
            assert not pool.closed
            assert pool.stats["runs"] == 2  # one sharded assembly per structure group
            run_campaign(campaign, pool=pool)  # the same pool serves a second batch
        assert pool.closed

    def test_pool_and_workers_are_mutually_exclusive(self):
        from repro.exceptions import ReproError

        with WorkerPool(1) as pool:
            with pytest.raises(ReproError, match="not both"):
                run_campaign(_hier_campaign(), pool=pool, workers=4)

    def test_runner_owned_pool_closed_deterministically(self):
        result = run_campaign(_hier_campaign(), workers=2)
        assert result.metadata["pool_workers"] == 2
        assert result.cache_stats["pool"]["runs"] == 2

    def test_worker_death_mid_campaign_bit_identical(self, tmp_path, monkeypatch):
        """Satellite contract: kill a pool worker mid-campaign; the lost block
        shard is re-executed and every scenario stays bit-identical."""
        campaign = _hier_campaign()
        with WorkerPool(2) as pool:
            clean = run_campaign(campaign, pool=pool)

        flag = tmp_path / "killed.flag"
        original = WorkerPool.submit

        def killing_submit(self, task, partition, label="Pool"):
            # The kill wrapper sees every block index.  submit is the single
            # dispatch entry (run_partition wraps it), so both the blocking
            # and the multiplexing runner paths are covered.
            return original(self, KillOnce(task, str(flag)), partition, label=label)

        monkeypatch.setattr(WorkerPool, "submit", killing_submit)
        with WorkerPool(2) as pool:
            disturbed = run_campaign(campaign, pool=pool)
            respawns = pool.stats["respawns"]
        assert flag.exists()
        assert respawns >= 1
        for name in ("base", "hot", "wet", "uni"):
            np.testing.assert_array_equal(
                disturbed.scenario(name).dof_values, clean.scenario(name).dof_values
            )

    def test_standalone_agreement_through_pool(self):
        """Pool-backed campaign scenarios match standalone sharded analyses."""
        import dataclasses

        from repro.bem.formulation import GroundingAnalysis

        campaign = _hier_campaign()
        with WorkerPool(2) as pool:
            result = run_campaign(campaign, pool=pool)
        for spec in campaign.scenarios:
            standalone = GroundingAnalysis(
                spec.geometry.build_grid(),
                spec.effective_soil(),
                gpr=spec.gpr,
                validate=False,
                hierarchical=dataclasses.replace(
                    campaign.hierarchical, workers=1, tolerance=spec.tolerance
                ),
                solver_tolerance=campaign.solver_tolerance,
            ).run()
            scale = float(np.abs(standalone.dof_values).max())
            deviation = float(
                np.abs(result.scenario(spec.name).dof_values - standalone.dof_values).max()
            )
            assert deviation <= 1.0e-10 * scale, (spec.name, deviation / scale)
