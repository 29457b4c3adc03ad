#!/usr/bin/env python3
"""Batch grounding study through the scenario campaign engine.

Builds the demo campaign of :func:`repro.campaign.demo_campaign` — one shared
reticulated grid in flat and corner-rodded variants, analysed under two soil
families with soil-scale ("wet"/"dry" seasons) and injection-GPR (fault
severity) variants — and runs it twice:

* once through the campaign runner with cross-scenario reuse and an optional
  persistent worker pool (``--workers``);
* once as independent cold :class:`repro.GroundingAnalysis` calls — the
  per-scenario workflow the campaign engine replaces.

It prints the per-scenario safety table, the reuse/cache statistics and the
end-to-end batch speed-up, and verifies that every campaign solution matches
its standalone counterpart.

Run with::

    python examples/campaign_study.py                 # in-process assemblies
    python examples/campaign_study.py --workers 2     # persistent 2-worker pool
    python examples/campaign_study.py --scenarios 20 --nx 12
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.cad.report import format_table
from repro.campaign import demo_campaign, run_campaign, standalone_scenario_run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenarios", type=int, default=12, help="scenario count (1..20)")
    parser.add_argument("--nx", type=int, default=8, help="meshes per side of the shared grid")
    parser.add_argument(
        "--workers", type=int, default=0, help="persistent pool workers (0 = in-process)"
    )
    args = parser.parse_args()

    # Solve at 1e-12 so the campaign-vs-standalone comparison at the end is
    # insensitive to one-PCG-iteration flips (~ the solver tolerance).
    campaign = demo_campaign(
        n_scenarios=args.scenarios, nx=args.nx, ny=args.nx, solver_tolerance=1.0e-12
    )

    result = run_campaign(campaign, workers=args.workers)

    columns = ["scenario", "kind", "gpr_v", "Req_ohm", "max_touch_v", "max_step_v", "compliant"]
    print(
        format_table(columns, [[row[key] for key in columns] for row in result.table()])
    )
    summary = result.plan_summary
    print(
        f"\ncampaign: {result.n_scenarios} scenarios in {result.total_seconds:.2f} s "
        f"({summary['n_assemblies']} assemblies, reuse {summary['reuse_counts']})"
    )
    print(f"cache stats: {result.cache_stats}")

    # ---- the same scenarios as independent cold analyses ----
    start = time.perf_counter()
    standalone = {}
    for spec in campaign.scenarios:
        dof_values, _ = standalone_scenario_run(
            campaign, spec, workers=max(args.workers, 1)
        )
        standalone[spec.name] = dof_values
    cold_seconds = time.perf_counter() - start

    worst = max(
        float(np.abs(r.dof_values - standalone[r.name]).max() / np.abs(standalone[r.name]).max())
        for r in result.scenarios
    )
    print(
        f"cold standalone runs: {cold_seconds:.2f} s -> batch speed-up "
        f"{cold_seconds / result.total_seconds:.2f}x"
    )
    print(f"worst campaign-vs-standalone solution deviation: {worst:.2e}")


if __name__ == "__main__":
    main()
