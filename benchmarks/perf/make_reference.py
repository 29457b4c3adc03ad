"""Write ``reference.json``, the output oracles every benchmark op is checked against.

The references come from independent code paths, never from the path being
timed:

* ``barbera-design`` and ``hier-grid``: the exact full-series dense engine
  (``adaptive=None``), solved densely; the Barberá surface map with the
  exact per-element potential evaluator;
* ``hier-grid`` also records the PCG iteration count of its hierarchical
  configuration, run on an in-process pool;
* ``paper-parallel``: norms of the exact serial matrix;
* ``campaign-sweep``: every (geometry, soil, soil scale) scenario run
  standalone with ``standalone_scenario_run``, outside any campaign.

Resistances do not depend on the injected GPR, so the references hold for
every ``--seed``.  Takes about a minute::

    python3 benchmarks/perf/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402

from repro import (  # noqa: E402
    GroundingAnalysis,
    HierarchicalControl,
    PotentialEvaluator,
    TwoLayerSoil,
    WorkerPool,
    discretize_grid,
)
from repro.bem.assembly import AssemblyOptions, assemble_system  # noqa: E402
from repro.bem.elements import DofManager  # noqa: E402
from repro.campaign.study import standalone_scenario_run  # noqa: E402
from repro.experiments.barbera import barbera_case  # noqa: E402

import workloads  # noqa: E402

GPR = 10_000.0


def barbera_design(size: dict) -> dict:
    grid, soil, _ = barbera_case("two_layer", coarse=size["barbera_coarse"])
    results = GroundingAnalysis(grid, soil, gpr=GPR, adaptive=None).run()
    exact = PotentialEvaluator(
        results.mesh, soil, results.kernel, results.dof_manager, results.dof_values,
        gpr=GPR, adaptive=None,
    )
    raster = size["raster"]
    surface = exact.surface_potential_over_grid(n_x=raster, n_y=raster)
    return {
        "r_eq_ohm": results.equivalent_resistance,
        "surface_max_per_unit": surface.max_value / GPR,
    }


def paper_parallel(size: dict) -> dict:
    grid, soil, _ = barbera_case("two_layer", coarse=size["barbera_coarse"])
    mesh = discretize_grid(grid, soil=soil)
    matrix = assemble_system(mesh, soil, gpr=GPR, options=AssemblyOptions(adaptive=None)).matrix
    return {"max_abs": float(np.abs(matrix).max()), "frobenius": float(np.linalg.norm(matrix))}


def hier_grid(size: dict) -> dict:
    grid = workloads.square_grid(size["hier_meshes"])
    soil = TwoLayerSoil(*workloads.TWO_LAYER)
    dense = GroundingAnalysis(grid, soil, gpr=GPR, adaptive=None, validate=False).run()
    with WorkerPool(2, backend="serial") as pool:
        hierarchical = GroundingAnalysis(
            grid, soil, gpr=GPR, hierarchical=HierarchicalControl(workers=2), pool=pool,
            validate=False,
        ).run()
    return {
        "r_eq_ohm": dense.equivalent_resistance,
        "pcg_iterations": int(hierarchical.solver.iterations),
    }


def campaign_sweep(size: dict) -> dict:
    campaign = workloads.sweep_campaign(
        np.random.default_rng(0), size["campaign_meshes"], size["campaign_variants"]
    )
    resistances: dict[str, float] = {}
    for spec in campaign.scenarios:
        key = workloads.scenario_key(spec)
        if key in resistances:
            continue
        dof_values, _ = standalone_scenario_run(campaign, spec)
        mesh = discretize_grid(spec.geometry.build_grid(), soil=spec.effective_soil())
        weights = DofManager(mesh, campaign.element_type).assemble_basis_integrals()
        resistances[key] = spec.gpr / float(weights @ dof_values)
    return {"r_eq_ohm": dict(sorted(resistances.items()))}


def main() -> int:
    builders = {
        "barbera-design": barbera_design,
        "paper-parallel": paper_parallel,
        "hier-grid": hier_grid,
        "campaign-sweep": campaign_sweep,
    }
    reference = {
        size_name: {name: build(size) for name, build in builders.items()}
        for size_name, size in workloads.SIZES.items()
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
