#!/usr/bin/env python3
"""The paper's parallel study (Section 6) on your machine.

Measures the per-column cost profile of the Barberá two-layer matrix
generation, then:

* runs the real process-pool parallel assembly on 2/4/8 workers (bounded by the
  local core count) with the ``Dynamic,1`` schedule — the paper's best;
* replays the measured costs in the shared-memory machine simulator to produce
  the full 1–64 processor speed-up curves of Fig. 6.1 (outer vs inner loop) and
  the schedule comparison of Table 6.2;
* optionally (``--sharded``) measures the hierarchical block builder
  (``HierarchicalControl(workers=...)``) against its in-process
  ``workers=0`` run — the block-level counterpart of the column study.

Run with::

    python examples/parallel_scaling.py             # full Barberá grid
    python examples/parallel_scaling.py --coarse    # quick demonstration
    python examples/parallel_scaling.py --coarse --sharded
"""

from __future__ import annotations

import argparse
import os

from repro.cad.report import format_table
from repro.experiments.scaling import (
    PAPER_TABLE_6_2,
    figure_6_1_curves,
    measure_column_costs,
    measure_real_speedups,
    table_6_2_speedups,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--coarse", action="store_true", help="use the coarse Barberá grid")
    parser.add_argument(
        "--case", default="barbera/two_layer", help="case to profile (barbera/... or balaidos/...)"
    )
    parser.add_argument(
        "--sharded",
        action="store_true",
        help="also measure the sharded hierarchical block backend (workers 1 and 2)",
    )
    args = parser.parse_args()

    print(f"Measuring the sequential column costs of {args.case} ...")
    column_costs, total = measure_column_costs(args.case, coarse=args.coarse)
    print(
        f"  {column_costs.size} columns, total matrix generation {total:.2f} s, "
        f"largest column {column_costs.max() * 1e3:.2f} ms"
    )

    # Real process-pool speed-ups on this host.  Counts above the local core
    # count oversubscribe (time-sliced execution) and are flagged as such.
    available = os.cpu_count() or 1
    print(f"\nReal process-pool speed-ups (Dynamic,1) on {available} available cores:")
    rows = measure_real_speedups(
        args.case, processor_counts=(1, 2, 4, 8), coarse=args.coarse, max_workers=8
    )
    print(
        format_table(
            ["processors", "wall seconds", "speed-up", "oversubscribed"],
            [
                [row["n_processors"], row["cpu_seconds"], row["speedup"],
                 "yes" if row["oversubscribed"] else "no"]
                for row in rows
            ],
        )
    )

    # Fig. 6.1: simulated outer vs inner loop speed-up up to 64 processors.
    print("\nSimulated speed-up versus processors (Fig. 6.1, Dynamic,1):")
    curves = figure_6_1_curves(column_costs, processor_counts=(1, 2, 4, 8, 16, 32, 48, 64))
    fig_rows = [
        [outer["n_processors"], outer["speedup"], inner["speedup"]]
        for outer, inner in zip(curves["outer"], curves["inner"])
    ]
    print(format_table(["processors", "outer-loop speed-up", "inner-loop speed-up"], fig_rows))

    # Table 6.2: schedules x chunks x processors.
    print("\nSimulated schedule comparison (Table 6.2), speed-up factors:")
    table = table_6_2_speedups(column_costs, processor_counts=(1, 2, 4, 8))
    table_rows = []
    for label, per_count in table.items():
        paper = PAPER_TABLE_6_2.get(label, {})
        table_rows.append(
            [
                label,
                per_count[1],
                per_count[2],
                per_count[4],
                per_count[8],
                paper.get(8, float("nan")),
            ]
        )
    print(
        format_table(
            ["schedule", "P=1", "P=2", "P=4", "P=8", "paper P=8"],
            table_rows,
            float_format="{:.2f}",
        )
    )
    print(
        "\nAs in the paper: dynamic/guided schedules with small chunks stay close to "
        "the ideal speed-up, the default static schedule suffers from the linearly "
        "decreasing column sizes, and large chunks starve processors."
    )

    if args.sharded:
        from repro.experiments.scaling import (
            measure_sharded_speedup,
            resolve_case,
            sharded_speedup_table,
        )
        from repro.geometry.discretize import discretize_grid

        print("\nHierarchical block builder (in-process workers=0 reference):")
        grid, soil, gpr = resolve_case(args.case, coarse=args.coarse)
        mesh = discretize_grid(grid, soil=soil)
        sharded_rows = measure_sharded_speedup(mesh, soil, worker_counts=(1, 2), gpr=gpr)
        print(format_table(*sharded_speedup_table(sharded_rows)))
        print(
            "Solutions are bit-identical for every worker count (canonical matvec "
            "segments, pairwise tree-sum reduction in fixed segment order)."
        )


if __name__ == "__main__":
    main()
