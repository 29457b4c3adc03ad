"""Aggregated results of one campaign run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["CampaignFailure", "CampaignResult", "ScenarioResult"]


@dataclass(frozen=True)
class CampaignFailure:
    """One structure group that failed instead of producing results.

    A campaign no longer aborts wholesale when one scenario group raises: the
    group's scenarios are recorded here (``stage`` names the pipeline step
    that failed) and the run continues with the remaining groups, yielding a
    *partial* :class:`CampaignResult`.
    """

    #: Names of the scenarios lost with this group (campaign order).
    scenario_names: tuple[str, ...]
    #: Campaign indices of those scenarios.
    scenario_indices: tuple[int, ...]
    geometry_name: str
    #: Pipeline stage that raised (``"discretize"``, ``"assemble+solve"``...).
    stage: str
    #: ``repr`` of the exception (kept as text so results stay picklable).
    error: str

    def summary(self) -> dict[str, Any]:
        return {
            "scenarios": list(self.scenario_names),
            "geometry": self.geometry_name,
            "stage": self.stage,
            "error": self.error,
        }


@dataclass
class ScenarioResult:
    """Outcome of one scenario of a campaign.

    ``kind`` records how the scenario was obtained (``"assemble"``,
    ``"injection"`` or ``"soil-scale"`` — see
    :class:`repro.campaign.planner.ScenarioPlan`); derived scenarios carry
    the base scenario's name in ``base_name`` and near-zero timings.
    """

    name: str
    index: int
    kind: str
    base_name: str
    geometry_name: str
    n_elements: int
    n_dofs: int
    gpr: float
    soil_scale: float
    #: Solved leakage density at every dof [A/m] (scenario scaling applied).
    dof_values: np.ndarray
    total_current: float
    equivalent_resistance: float
    solver_iterations: int
    assemble_seconds: float = 0.0
    solve_seconds: float = 0.0
    evaluate_seconds: float = 0.0
    #: Safety assessment (``None`` when the campaign skips it).
    max_touch_voltage: float | None = None
    max_step_voltage: float | None = None
    tolerable_touch_voltage: float | None = None
    tolerable_step_voltage: float | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def verdicts(self) -> dict[str, bool] | None:
        """IEEE Std 80 verdicts (``None`` without a safety assessment)."""
        if self.max_touch_voltage is None:
            return None
        touch_ok = self.max_touch_voltage <= self.tolerable_touch_voltage
        step_ok = self.max_step_voltage <= self.tolerable_step_voltage
        return {"touch": touch_ok, "step": step_ok, "compliant": touch_ok and step_ok}

    def summary(self) -> dict[str, Any]:
        """Row used by reports and snapshots."""
        row: dict[str, Any] = {
            "scenario": self.name,
            "geometry": self.geometry_name,
            "kind": self.kind,
            "base": self.base_name,
            "n_elements": self.n_elements,
            "gpr_v": self.gpr,
            "soil_scale": self.soil_scale,
            "Req_ohm": self.equivalent_resistance,
            "total_current_ka": self.total_current / 1.0e3,
            "iterations": self.solver_iterations,
            "seconds": self.assemble_seconds + self.solve_seconds + self.evaluate_seconds,
        }
        verdicts = self.verdicts
        if verdicts is not None:
            row.update(
                {
                    "max_touch_v": self.max_touch_voltage,
                    "max_step_v": self.max_step_voltage,
                    "tolerable_touch_v": self.tolerable_touch_voltage,
                    "tolerable_step_v": self.tolerable_step_voltage,
                    "compliant": verdicts["compliant"],
                }
            )
        return row


@dataclass
class CampaignResult:
    """Everything a campaign run produced.

    ``scenarios`` is ordered like the campaign's scenario list (not the
    cost-ordered execution sequence).  ``cache_stats`` aggregates the
    cross-scenario reuse counters: the process-wide geometry cache's hit/miss
    delta over the run (zero: no library path stores geometry), the
    cluster-plan cache, and — when a persistent
    worker pool executed the assemblies — the pool's dispatch/respawn
    statistics.
    """

    name: str
    scenarios: list[ScenarioResult]
    plan_summary: dict[str, Any]
    timings: dict[str, float]
    cache_stats: dict[str, Any]
    metadata: dict[str, Any] = field(default_factory=dict)
    #: Structure groups that failed (empty on a clean run).
    failures: list[CampaignFailure] = field(default_factory=list)

    @property
    def n_scenarios(self) -> int:
        """Number of scenario results."""
        return len(self.scenarios)

    @property
    def is_partial(self) -> bool:
        """Whether any structure group failed instead of producing results."""
        return bool(self.failures)

    @property
    def total_seconds(self) -> float:
        """End-to-end wall time of the campaign run [s]."""
        return float(self.timings.get("total", 0.0))

    def scenario(self, name: str) -> ScenarioResult:
        """Look a scenario result up by name."""
        for result in self.scenarios:
            if result.name == name:
                return result
        raise KeyError(f"no scenario named {name!r} in campaign {self.name!r}")

    def solutions(self) -> dict[str, np.ndarray]:
        """Per-scenario dof vectors keyed by scenario name."""
        return {result.name: result.dof_values for result in self.scenarios}

    def table(self) -> list[dict[str, Any]]:
        """Summary rows of every scenario (campaign order)."""
        return [result.summary() for result in self.scenarios]

    def compliance(self) -> dict[str, bool | None]:
        """Per-scenario compliance verdicts (``None`` without assessment)."""
        return {
            result.name: (result.verdicts or {}).get("compliant")
            for result in self.scenarios
        }

    def summary(self) -> dict[str, Any]:
        """Compact campaign-level record (used by the snapshot benchmark)."""
        record = {
            "campaign": self.name,
            "n_scenarios": self.n_scenarios,
            **self.plan_summary,
            "timings": dict(self.timings),
            "cache_stats": dict(self.cache_stats),
            **{k: v for k, v in self.metadata.items() if np.isscalar(v) or v is None},
        }
        if self.failures:
            record["n_failures"] = len(self.failures)
            record["failures"] = [failure.summary() for failure in self.failures]
        return record
