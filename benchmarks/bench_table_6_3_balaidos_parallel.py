"""Table 6.3 — Balaidos matrix-generation CPU time and speed-up for soils A/B/C.

Two complementary reproductions:

* the *simulated* table: the per-column costs of each soil model are measured
  sequentially on this host and replayed on 1–8 simulated processors with the
  ``Dynamic,1`` schedule (as in the paper's table);
* a *real* process-pool measurement for the heaviest model (C) on the locally
  available cores.

The paper's CPU times (on the Origin 2000) are recorded alongside: absolute
values differ by construction, the cost ordering A ≪ B ≪ C and the near-linear
speed-ups are the reproduced shape.
"""

from __future__ import annotations

import os

from repro.cad.report import format_table
from repro.experiments.scaling import PAPER_TABLE_6_3, measure_real_speedups, table_6_3_rows

PROCESSORS = (1, 2, 4, 8)


def test_table_6_3_simulated(benchmark, record_table):
    rows = benchmark.pedantic(
        table_6_3_rows,
        kwargs=dict(processor_counts=PROCESSORS, models=("A", "B", "C")),
        rounds=1,
        iterations=1,
    )

    sequential = {
        row["soil_model"]: row["cpu_seconds"]
        for row in rows
        if row["n_processors"] == 1
    }
    # Cost ordering of the paper: model A (uniform) is far cheaper than the
    # two-layer models, and model C (cross-layer kernels) is the heaviest.
    assert sequential["A"] < sequential["B"] < sequential["C"]

    speedup_c = {
        row["n_processors"]: row["speedup"] for row in rows if row["soil_model"] == "C"
    }
    assert speedup_c[8] > 7.0

    table_rows = []
    for row in rows:
        paper = PAPER_TABLE_6_3.get(row["soil_model"], {}).get(row["n_processors"])
        table_rows.append(
            [
                row["soil_model"],
                row["n_processors"],
                row["cpu_seconds"],
                row["speedup"],
                paper[0] if paper else float("nan"),
                paper[1] if paper else float("nan"),
            ]
        )
    text = format_table(
        [
            "Soil Model",
            "processors",
            "CPU time (s)",
            "speed-up",
            "paper CPU time (s)",
            "paper speed-up",
        ],
        table_rows,
        float_format="{:.2f}",
    )
    record_table("table_6_3_balaidos_simulated", text)


def test_table_6_3_real_model_c(benchmark, record_table):
    available = os.cpu_count() or 1
    counts = [p for p in PROCESSORS if p <= available]

    rows = benchmark.pedantic(
        measure_real_speedups,
        kwargs=dict(case="balaidos/C", processor_counts=counts, schedule="Dynamic,1"),
        rounds=1,
        iterations=1,
    )
    speedups = {row["n_processors"]: row["speedup"] for row in rows}
    if len(counts) > 1:
        assert speedups[counts[-1]] > 1.2  # parallel execution actually helps

    text = format_table(
        ["processors", "wall seconds", "speed-up"],
        [[row["n_processors"], row["cpu_seconds"], row["speedup"]] for row in rows],
        float_format="{:.2f}",
    )
    record_table("table_6_3_balaidos_model_c_real", text)
