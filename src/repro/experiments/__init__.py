"""Experiment drivers: the paper's case studies and parallel studies.

Each module corresponds to a part of the paper's evaluation:

* :mod:`repro.experiments.barbera` — Example 1 (Section 5.1, Figs. 5.1–5.2);
* :mod:`repro.experiments.balaidos` — Example 2 (Section 5.2, Figs. 5.3–5.4 and
  Table 5.1);
* :mod:`repro.experiments.scaling` — the parallelisation study (Section 6,
  Table 6.1, Fig. 6.1, Tables 6.2 and 6.3);
* :mod:`repro.experiments.registry` — the experiment index mapping every table
  and figure of the paper to the code that regenerates it.
"""

from repro.experiments.barbera import (
    BARBERA_PAPER_RESULTS,
    barbera_case,
    barbera_soil,
    run_barbera,
)
from repro.experiments.balaidos import (
    BALAIDOS_PAPER_RESULTS,
    balaidos_case,
    balaidos_soil,
    run_balaidos,
    run_balaidos_all_models,
)
from repro.experiments.scaling import (
    measure_column_costs,
    deterministic_column_costs,
    figure_6_1_curves,
    table_6_2_speedups,
    table_6_3_rows,
    measure_sharded_speedup,
)
from repro.experiments.registry import EXPERIMENTS, ExperimentSpec, get_experiment

__all__ = [
    "BARBERA_PAPER_RESULTS",
    "barbera_case",
    "barbera_soil",
    "run_barbera",
    "BALAIDOS_PAPER_RESULTS",
    "balaidos_case",
    "balaidos_soil",
    "run_balaidos",
    "run_balaidos_all_models",
    "measure_column_costs",
    "deterministic_column_costs",
    "figure_6_1_curves",
    "table_6_2_speedups",
    "table_6_3_rows",
    "measure_sharded_speedup",
    "EXPERIMENTS",
    "ExperimentSpec",
    "get_experiment",
]
