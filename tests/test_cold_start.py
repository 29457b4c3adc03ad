"""Cold-start guard: ``import repro``, the dense and hierarchical analyses and
campaigns load no scipy.

scipy submodules are imported inside the few functions that use them
(Wenner inversion, direct solver, Hankel quadrature); the hierarchical
operator holds its near field and far factors in plain NumPy arrays, and
networkx is not a dependency at all.  A stray module-level import would undo
the saving without failing any numerical test, so these tests check
``sys.modules`` of a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

PRELUDE = textwrap.dedent(
    """
    import json, sys

    def loaded():
        return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "networkx"))
    """
)

DENSE_SCRIPT = PRELUDE + textwrap.dedent(
    """
    import repro
    after_import = loaded()

    from repro import GridBuilder, GroundingAnalysis, TwoLayerSoil

    grid = GridBuilder(depth=0.8, conductor_radius=6e-3).rectangular_mesh(20.0, 20.0, 2, 2)
    results = GroundingAnalysis(grid, TwoLayerSoil(0.005, 0.02, 1.0), gpr=10_000.0).run()
    surface = results.evaluator().surface_potential_over_grid(n_x=5, n_y=5)
    print(json.dumps({
        "after_import": after_import,
        "after_analysis": loaded(),
        "r_eq": results.equivalent_resistance,
        "surface_max": surface.max_value,
    }))
    """
)

HIERARCHICAL_SCRIPT = PRELUDE + textwrap.dedent(
    """
    from repro import GridBuilder, GroundingAnalysis, TwoLayerSoil
    from repro.cluster import HierarchicalControl

    grid = GridBuilder(depth=0.8, conductor_radius=6e-3).rectangular_mesh(60.0, 60.0, 12, 12)
    results = GroundingAnalysis(
        grid,
        TwoLayerSoil(0.005, 0.02, 1.0),
        gpr=10_000.0,
        hierarchical=HierarchicalControl(leaf_size=16, workers=0),
    ).run()
    print(json.dumps({
        "after_analysis": loaded(),
        "far_segments": results.metadata["hierarchical"]["n_far_segments"],
        "r_eq": results.equivalent_resistance,
    }))
    """
)

CAMPAIGN_SCRIPT = PRELUDE + textwrap.dedent(
    """
    from repro.campaign import demo_campaign, run_campaign
    from repro.parallel.pool import WorkerPool

    campaign = demo_campaign(n_scenarios=3, nx=4, ny=4)
    with WorkerPool(2) as pool:
        result = run_campaign(campaign, pool=pool)
    print(json.dumps({
        "after_analysis": loaded(),
        "scenarios": len(result.scenarios),
    }))
    """
)


def _report(script: str) -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert process.returncode == 0, process.stderr
    return json.loads(process.stdout.strip().splitlines()[-1])


def test_import_and_dense_analysis_load_no_scipy():
    report = _report(DENSE_SCRIPT)

    assert report["after_import"] == []
    assert report["after_analysis"] == []
    assert report["r_eq"] > 0.0
    assert report["surface_max"] > 0.0


def test_hierarchical_analysis_loads_no_scipy():
    report = _report(HIERARCHICAL_SCRIPT)

    assert report["after_analysis"] == []
    # Far segments exist: the low-rank factor path ran too.
    assert report["far_segments"] > 0
    assert report["r_eq"] > 0.0


def test_pooled_campaign_loads_no_scipy():
    report = _report(CAMPAIGN_SCRIPT)

    assert report["after_analysis"] == []
    assert report["scenarios"] == 3
