"""Cold-start guard: ``import repro`` and the dense CAD path load no scipy.

scipy submodules are imported inside the functions that use them (Wenner
inversion, direct solver, Hankel quadrature, hierarchical CSR operator), and
networkx is not a dependency at all.  A stray module-level import would undo
the saving without failing any numerical test, so this test checks
``sys.modules`` of a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SCRIPT = textwrap.dedent(
    """
    import json, sys

    def loaded():
        return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "networkx"))

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


def test_import_and_dense_analysis_load_no_scipy():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert process.returncode == 0, process.stderr
    report = json.loads(process.stdout.strip().splitlines()[-1])

    assert report["after_import"] == []
    assert report["after_analysis"] == []
    assert report["r_eq"] > 0.0
    assert report["surface_max"] > 0.0
