"""Project-level driver reproducing the CAD program structure of the paper.

:class:`GroundingProject` runs the five phases of the paper's Table 6.1 —
*Data Input*, *Data Preprocessing*, *Matrix Generation*, *Linear System
Solving* and *Results Storage* — timing each of them, and optionally persists
both the input grid and the results to disk.  It is a thin orchestration layer:
all numerical work is delegated to :class:`repro.bem.GroundingAnalysis`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.bem.assembly import AssemblyOptions
from repro.bem.elements import DofManager, ElementType
from repro.bem.results import AnalysisResults
from repro.constants import DEFAULT_GPR
from repro.exceptions import ExperimentError
from repro.geometry.discretize import discretize_grid
from repro.geometry.grid import GroundingGrid
from repro.geometry.io import load_grid, save_grid
from repro.geometry.validation import validate_grid
from repro.kernels.base import kernel_for_soil
from repro.kernels.series import SeriesControl
from repro.parallel.options import ParallelOptions
from repro.parallel.parallel_assembly import assemble_system_parallel
from repro.timing import PhaseTimer
from repro.soil.base import SoilModel
from repro.solvers import solve_system

__all__ = ["PhaseReport", "GroundingProject", "load_results_json"]

#: Canonical phase names, in execution order (Table 6.1 rows).
PHASES = (
    "data_input",
    "data_preprocessing",
    "matrix_generation",
    "linear_system_solving",
    "results_storage",
)


@dataclass
class PhaseReport:
    """Per-phase wall-clock times of one project run (the paper's Table 6.1)."""

    seconds: dict[str, float] = field(default_factory=dict)

    def as_rows(self) -> list[tuple[str, float]]:
        """Rows ``(phase, seconds)`` in canonical order."""
        return [(phase, self.seconds.get(phase, 0.0)) for phase in PHASES]

    @property
    def total(self) -> float:
        """Total time over all phases [s]."""
        return float(sum(self.seconds.values()))

    def dominant_phase(self) -> str:
        """Name of the most expensive phase (matrix generation, per the paper)."""
        if not self.seconds:
            raise ExperimentError("no phases have been recorded")
        return max(self.seconds, key=lambda name: self.seconds[name])

    def fraction(self, phase: str) -> float:
        """Fraction of the total time spent in one phase."""
        total = self.total
        return self.seconds.get(phase, 0.0) / total if total > 0 else 0.0


class GroundingProject:
    """A grounding-design project: grid + soil + analysis settings + outputs.

    Parameters
    ----------
    grid:
        The grounding grid, or a path to a grid JSON file saved with
        :func:`repro.geometry.io.save_grid`.
    soil:
        The soil model.
    gpr:
        Ground Potential Rise [V].
    element_type, n_gauss, series_control, solver:
        Analysis settings, identical to :class:`repro.bem.GroundingAnalysis`.
    parallel:
        Optional parallel options for the matrix generation.
    workdir:
        Directory where results are stored by the results-storage phase;
        ``None`` keeps everything in memory.
    """

    def __init__(
        self,
        grid: GroundingGrid | str | Path,
        soil: SoilModel,
        gpr: float = DEFAULT_GPR,
        element_type: ElementType = ElementType.LINEAR,
        n_gauss: int = 4,
        series_control: SeriesControl | None = None,
        solver: str = "pcg",
        parallel: ParallelOptions | None = None,
        workdir: str | Path | None = None,
        name: str | None = None,
    ) -> None:
        self._grid_source = grid
        self.soil = soil
        self.gpr = float(gpr)
        self.element_type = ElementType(element_type)
        self.n_gauss = int(n_gauss)
        self.series_control = series_control or SeriesControl()
        self.solver = solver
        self.parallel = parallel
        self.workdir = Path(workdir) if workdir is not None else None
        self.name = name or (grid.name if isinstance(grid, GroundingGrid) else Path(str(grid)).stem)

        self.grid: GroundingGrid | None = grid if isinstance(grid, GroundingGrid) else None
        self.results: AnalysisResults | None = None
        self.phase_report = PhaseReport()

    # ------------------------------------------------------------------ phases

    def run(self) -> AnalysisResults:
        """Execute the five phases and return the analysis results."""
        timer = PhaseTimer()

        with timer.phase("data_input"):
            grid = self._load_grid()
            validate_grid(grid, soil=self.soil, check_overlaps=False, raise_on_error=True)
            self.grid = grid

        with timer.phase("data_preprocessing"):
            mesh = discretize_grid(grid, soil=self.soil)
            kernel = kernel_for_soil(self.soil, self.series_control)
            dof_manager = DofManager(mesh, self.element_type)
            options = AssemblyOptions(
                element_type=self.element_type,
                n_gauss=self.n_gauss,
                series_control=self.series_control,
            )

        with timer.phase("matrix_generation"):
            system = assemble_system_parallel(
                mesh,
                self.soil,
                gpr=self.gpr,
                options=options,
                kernel=kernel,
                parallel=self.parallel,
            )

        with timer.phase("linear_system_solving"):
            solve_result = solve_system(system.matrix, system.rhs, method=self.solver)

        with timer.phase("results_storage"):
            results = AnalysisResults(
                mesh=mesh,
                soil=self.soil,
                kernel=kernel,
                dof_manager=dof_manager,
                gpr=self.gpr,
                dof_values=solve_result.solution,
                solver=solve_result,
                timings=timer.as_dict(),
                metadata={
                    key: value
                    for key, value in system.metadata.items()
                    if key != "column_seconds"
                },
            )
            if "column_seconds" in system.metadata:
                results.metadata["column_seconds"] = system.metadata["column_seconds"]
            self.results = results
            if self.workdir is not None:
                self._store(results)

        # Record the final timings (results_storage was still open when the
        # results object copied them, so refresh the stored dictionary).
        self.phase_report = PhaseReport(seconds=timer.as_dict())
        results.timings = timer.as_dict()
        return results

    # ------------------------------------------------------------------ persistence

    def _load_grid(self) -> GroundingGrid:
        if isinstance(self._grid_source, GroundingGrid):
            return self._grid_source
        return load_grid(self._grid_source)

    def _store(self, results: AnalysisResults) -> None:
        assert self.workdir is not None
        self.workdir.mkdir(parents=True, exist_ok=True)
        if self.grid is not None:
            save_grid(self.grid, self.workdir / f"{self.name}_grid.json")
        payload: dict[str, Any] = {
            "project": self.name,
            "soil": self.soil.to_dict(),
            "gpr_v": self.gpr,
            "equivalent_resistance_ohm": results.equivalent_resistance,
            "total_current_a": results.total_current,
            "timings_s": results.timings,
            "solver": results.solver.summary(),
            "dof_values": np.asarray(results.dof_values).tolist(),
        }
        (self.workdir / f"{self.name}_results.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
        )

    # ------------------------------------------------------------------ reporting

    def phase_table(self) -> list[tuple[str, float]]:
        """The Table 6.1 rows ``(process, CPU time in seconds)`` of the last run."""
        if not self.phase_report.seconds:
            raise ExperimentError("run() must be called before requesting the phase table")
        return self.phase_report.as_rows()

    def summary(self) -> dict[str, Any]:
        """Headline results of the last run."""
        if self.results is None:
            raise ExperimentError("run() must be called before requesting a summary")
        summary = self.results.summary()
        summary["phase_seconds"] = dict(self.phase_report.seconds)
        summary["dominant_phase"] = self.phase_report.dominant_phase()
        return summary


def load_results_json(path: str | Path) -> dict[str, Any]:
    """Load a results JSON file written by :class:`GroundingProject`."""
    path = Path(path)
    if not path.exists():
        raise ExperimentError(f"results file not found: {path}")
    return json.loads(path.read_text(encoding="utf-8"))
