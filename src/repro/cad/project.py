"""Results storage of the CAD workflow: one analysis written to and read from disk.

The five timed phases of the paper's Table 6.1 run in
:class:`repro.bem.GroundingAnalysis`; this module keeps what comes after them.
:func:`save_results` writes an analysed grid and its results as two JSON
files, and :func:`load_results_json` reads the results file back.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.bem.results import AnalysisResults
from repro.exceptions import ExperimentError
from repro.geometry.io import save_grid

__all__ = ["save_results", "load_results_json"]


def save_results(results: AnalysisResults, workdir: str | Path, name: str) -> Path:
    """Write ``{name}_grid.json`` and ``{name}_results.json`` into ``workdir``.

    The grid, soil and GPR are those of ``results``.  Returns the path of the
    results file.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    save_grid(results.mesh.grid, workdir / f"{name}_grid.json")
    payload: dict[str, Any] = {
        "project": name,
        "soil": results.soil.to_dict(),
        "gpr_v": results.gpr,
        "equivalent_resistance_ohm": results.equivalent_resistance,
        "total_current_a": results.total_current,
        "timings_s": results.timings,
        "solver": results.solver.summary(),
        "dof_values": np.asarray(results.dof_values).tolist(),
    }
    path = workdir / f"{name}_results.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
    return path


def load_results_json(path: str | Path) -> dict[str, Any]:
    """Load a results JSON file written by :func:`save_results`."""
    path = Path(path)
    if not path.exists():
        raise ExperimentError(f"results file not found: {path}")
    return json.loads(path.read_text(encoding="utf-8"))
