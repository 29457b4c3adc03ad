"""Campaign checkpoint/resume: round-trip fidelity, kill-resume, partial runs.

The acceptance contract: a campaign SIGKILL'd mid-run resumes from its
checkpoint recomputing **only** the incomplete structure groups, restored
results are bit-identical to recomputation, and a group that fails outright
is recorded on the :class:`~repro.campaign.CampaignResult` instead of
aborting the study.
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.campaign import (
    Campaign,
    CampaignCheckpoint,
    GeometryVariant,
    ScenarioSpec,
    ScenarioResult,
    run_campaign,
    structure_fingerprint,
)
from repro.cluster import HierarchicalControl
from repro.exceptions import CheckpointError
from repro.soil.two_layer import TwoLayerSoil
from repro.soil.uniform import UniformSoil

GEOMETRY = GeometryVariant(name="g", width=24.0, height=24.0, nx=4, ny=4)
SOIL = TwoLayerSoil(0.005, 0.016, 1.0)


def _campaign(solver_tolerance: float = 1.0e-12) -> Campaign:
    """Two structure groups: {base, hot} share one, {uni} is its own."""
    return Campaign(
        name="ckpt",
        scenarios=(
            ScenarioSpec(name="base", geometry=GEOMETRY, soil=SOIL),
            ScenarioSpec(name="hot", geometry=GEOMETRY, soil=SOIL, gpr=15_000.0),
            ScenarioSpec(name="uni", geometry=GEOMETRY, soil=UniformSoil(0.01)),
        ),
        hierarchical=HierarchicalControl(leaf_size=8),
        solver_tolerance=solver_tolerance,
        assess_safety=False,
    )


def _assert_scenarios_identical(one, two) -> None:
    assert [r.name for r in one.scenarios] == [r.name for r in two.scenarios]
    for a, b in zip(one.scenarios, two.scenarios):
        np.testing.assert_array_equal(a.dof_values, b.dof_values)
        assert a.equivalent_resistance == b.equivalent_resistance
        assert a.solver_iterations == b.solver_iterations


# --------------------------------------------------------------------------- round trip


def _scenario_result(dof_values: np.ndarray, resistance: float) -> ScenarioResult:
    return ScenarioResult(
        name="s",
        index=0,
        kind="assemble",
        base_name="s",
        geometry_name="g",
        n_elements=4,
        n_dofs=int(dof_values.size),
        gpr=10_000.0,
        soil_scale=1.0,
        dof_values=dof_values,
        total_current=10_000.0 / resistance,
        equivalent_resistance=resistance,
        solver_iterations=7,
    )


@settings(max_examples=25, deadline=None)
@given(
    dof_values=hnp.arrays(
        dtype=np.float64,
        shape=st.integers(min_value=1, max_value=32),
        elements=st.floats(width=64, allow_nan=True, allow_infinity=True),
    ),
    resistance=st.floats(min_value=1.0e-6, max_value=1.0e6, allow_nan=False),
    key=st.text(alphabet="0123456789abcdef", min_size=8, max_size=32),
)
def test_checkpoint_round_trip_is_bit_identical(tmp_path_factory, dof_values, resistance, key):
    path = tmp_path_factory.mktemp("ckpt") / "campaign.ckpt"
    store = CampaignCheckpoint(path)
    original = _scenario_result(dof_values, resistance)
    store.store(key, [original])
    reloaded = CampaignCheckpoint(path)
    assert reloaded.has(key) and reloaded.n_groups == 1
    (restored,) = reloaded.restore(key)
    # Bit-identical through the pickle round trip, NaN payloads included.
    assert restored.dof_values.tobytes() == original.dof_values.tobytes()
    assert restored.dof_values.dtype == original.dof_values.dtype
    assert restored.equivalent_resistance == original.equivalent_resistance
    assert restored.name == original.name
    assert reloaded.restored_keys == {key}


# --------------------------------------------------------------------------- resume


class TestResume:
    def test_full_rerun_restores_every_group(self, tmp_path):
        path = tmp_path / "campaign.ckpt"
        campaign = _campaign()
        clean = run_campaign(campaign)
        first = run_campaign(campaign, checkpoint=path)
        assert first.metadata["checkpoint"] == {
            "path": str(path),
            "restored_groups": 0,
            "computed_groups": 2,
        }
        second = run_campaign(campaign, checkpoint=path)
        assert second.metadata["checkpoint"]["restored_groups"] == 2
        assert second.metadata["checkpoint"]["computed_groups"] == 0
        _assert_scenarios_identical(second, clean)
        _assert_scenarios_identical(second, first)

    def test_changed_knob_invalidates_only_through_fingerprint(self, tmp_path):
        path = tmp_path / "campaign.ckpt"
        run_campaign(_campaign(), checkpoint=path)
        # A different solver tolerance means different results: nothing of
        # the stored state may be restored.
        changed = run_campaign(_campaign(solver_tolerance=1.0e-8), checkpoint=path)
        assert changed.metadata["checkpoint"]["restored_groups"] == 0
        assert changed.metadata["checkpoint"]["computed_groups"] == 2

    def test_corrupt_checkpoint_file_is_a_loud_error(self, tmp_path):
        path = tmp_path / "campaign.ckpt"
        path.write_bytes(b"not a pickle")
        with pytest.raises(CheckpointError, match="cannot read"):
            run_campaign(_campaign(), checkpoint=path)

    def test_checkpoint_referencing_other_globals_is_rejected(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "system", calls.append)
        path = tmp_path / "campaign.ckpt"
        # Protocol-0 opcodes for ``os.system("echo pwned")``.
        path.write_bytes(b"cos\nsystem\n(S'echo pwned'\ntR.")
        with pytest.raises(CheckpointError, match="os.system is not allowed"):
            CampaignCheckpoint(path)
        assert calls == []
        # The plain unpickler would have called it.
        pickle.loads(path.read_bytes())
        assert calls == ["echo pwned"]

    def test_sigkill_mid_campaign_resumes_incomplete_groups_only(self, tmp_path):
        """The tentpole acceptance test: SIGKILL the campaign after its first
        checkpointed group; the resumed run restores that group and
        recomputes only the second, bit-identical to a clean run."""
        path = tmp_path / "campaign.ckpt"
        script = tmp_path / "killed_campaign.py"
        script.write_text(textwrap.dedent(
            """
            import os
            import signal

            from repro.campaign import checkpoint as checkpoint_module
            from repro.campaign import (
                Campaign, GeometryVariant, ScenarioSpec, run_campaign
            )
            from repro.cluster import HierarchicalControl
            from repro.soil.two_layer import TwoLayerSoil
            from repro.soil.uniform import UniformSoil

            GEOMETRY = GeometryVariant(name="g", width=24.0, height=24.0, nx=4, ny=4)
            SOIL = TwoLayerSoil(0.005, 0.016, 1.0)
            campaign = Campaign(
                name="ckpt",
                scenarios=(
                    ScenarioSpec(name="base", geometry=GEOMETRY, soil=SOIL),
                    ScenarioSpec(name="hot", geometry=GEOMETRY, soil=SOIL, gpr=15_000.0),
                    ScenarioSpec(name="uni", geometry=GEOMETRY, soil=UniformSoil(0.01)),
                ),
                hierarchical=HierarchicalControl(leaf_size=8),
                solver_tolerance=1.0e-12,
                assess_safety=False,
            )

            original_store = checkpoint_module.CampaignCheckpoint.store

            def store_then_die(self, key, results):
                original_store(self, key, results)
                os.kill(os.getpid(), signal.SIGKILL)  # power loss, mid-campaign

            checkpoint_module.CampaignCheckpoint.store = store_then_die
            run_campaign(campaign, checkpoint=CHECKPOINT_PATH)
            raise SystemExit("the campaign survived the injected kill")
            """
        ).replace("CHECKPOINT_PATH", repr(str(path))))

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.run(
            [sys.executable, str(script)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert process.returncode == -signal.SIGKILL, process.stderr

        # The atomic write left exactly the first completed group on disk.
        assert CampaignCheckpoint(path).n_groups == 1

        campaign = _campaign()
        clean = run_campaign(campaign)
        resumed = run_campaign(campaign, checkpoint=path)
        assert resumed.metadata["checkpoint"]["restored_groups"] == 1
        assert resumed.metadata["checkpoint"]["computed_groups"] == 1
        assert not resumed.is_partial
        _assert_scenarios_identical(resumed, clean)


# --------------------------------------------------------------------------- partial runs


class TestPartialFailures:
    def test_failed_group_recorded_not_fatal(self, monkeypatch, tmp_path):
        from repro.campaign import runner as runner_module
        from repro.exceptions import ReproError

        original = runner_module._run_structure_group

        def failing_group(campaign, structure, grid, mesh, soil_eff, pool,
                          cluster_cache, phases, tracer):
            if structure.base.spec.name == "uni":
                raise ReproError("injected assembly failure")
            return original(campaign, structure, grid, mesh, soil_eff, pool,
                            cluster_cache, phases, tracer)

        monkeypatch.setattr(runner_module, "_run_structure_group", failing_group)
        path = tmp_path / "campaign.ckpt"
        result = run_campaign(_campaign(), checkpoint=path)

        assert result.is_partial
        (failure,) = result.failures
        assert failure.scenario_names == ("uni",)
        assert failure.stage == "assemble+solve"
        assert "injected assembly failure" in failure.error
        assert {r.name for r in result.scenarios} == {"base", "hot"}
        assert result.summary()["n_failures"] == 1

        # The surviving group was checkpointed; a healed rerun restores it
        # and computes only the previously failed one.
        monkeypatch.setattr(runner_module, "_run_structure_group", original)
        healed = run_campaign(_campaign(), checkpoint=path)
        assert not healed.is_partial
        assert healed.metadata["checkpoint"]["restored_groups"] == 1
        assert healed.metadata["checkpoint"]["computed_groups"] == 1

    def test_fingerprint_separates_structure_groups(self):
        campaign = _campaign()
        from repro.campaign.planner import plan_campaign
        from repro.geometry.discretize import discretize_grid

        plan = plan_campaign(campaign)
        fingerprints = []
        for geometry_group in plan.geometry_groups:
            grid = geometry_group.geometry.build_grid()
            for structure in geometry_group.structures:
                soil_eff = structure.base.spec.effective_soil()
                mesh = discretize_grid(grid, soil=soil_eff)
                fingerprints.append(
                    structure_fingerprint(mesh, soil_eff, structure, campaign)
                )
        assert len(fingerprints) == 2
        assert len(set(fingerprints)) == 2
