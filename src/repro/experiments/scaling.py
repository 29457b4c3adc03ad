"""Parallel-scaling experiment drivers (the paper's Section 6).

The three artefacts of the paper's parallel study are driven from here:

* :func:`measure_column_costs` — runs the sequential matrix generation of a
  case study and returns the per-column task costs (the workload profile that
  the OpenMP loop distributes), with optional repeat-and-reduce smoothing for
  jitter-prone coarse cases;
* :func:`deterministic_column_costs` — the *analytic* workload profile of a
  case (see :mod:`repro.parallel.costs`): host-independent and exactly
  reproducible, the recommended driver for simulator-based artefacts on
  slow or 1-core hosts;
* :func:`figure_6_1_curves` — speed-up versus processor count for the outer-
  and the inner-loop parallelisation (Fig. 6.1), obtained by replaying a cost
  profile in the machine simulator (and optionally validated against real
  process-pool runs on the locally available cores);
* :func:`table_6_2_speedups` — the schedule × chunk × processors speed-up table
  (Table 6.2);
* :func:`table_6_3_rows` — CPU time and speed-up of the Balaidos soil models
  A/B/C for several processor counts (Table 6.3);
* :func:`measure_real_speedups` — real process-pool runs of the paper's
  column loop on this host, against the sequential reference;
* :func:`measure_sharded_speedup` — the same study for the hierarchical block
  builder, against its in-process ``workers=0`` build
  (:func:`sharded_speedup_table` prints it).
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Sequence

import numpy as np

from repro.bem.assembly import AssemblyOptions, assemble_system
from repro.exceptions import ExperimentError, ParallelExecutionError
from repro.experiments.balaidos import balaidos_case
from repro.experiments.barbera import barbera_case
from repro.geometry.discretize import Mesh, discretize_grid
from repro.kernels.base import kernel_for_soil
from repro.parallel.costs import analytic_column_costs, scale_costs
from repro.parallel.machine import MachineModel
from repro.parallel.options import ParallelOptions
from repro.parallel.parallel_assembly import assemble_system_parallel
from repro.parallel.schedule import Schedule
from repro.parallel.simulator import ScheduleSimulator
from repro.soil.base import SoilModel
from repro.timing import wall_clock

__all__ = [
    "PAPER_TABLE_6_2",
    "PAPER_TABLE_6_3",
    "measure_column_costs",
    "deterministic_column_costs",
    "figure_6_1_curves",
    "resolve_case",
    "table_6_2_speedups",
    "table_6_3_rows",
    "measure_real_speedups",
    "measure_sharded_speedup",
    "sharded_speedup_table",
]

#: Schedules evaluated in the paper's Table 6.2 (label → Schedule spec).
TABLE_6_2_SCHEDULES: tuple[str, ...] = (
    "Static",
    "Static,64",
    "Static,16",
    "Static,4",
    "Static,1",
    "Dynamic,64",
    "Dynamic,16",
    "Dynamic,4",
    "Dynamic,1",
    "Guided,64",
    "Guided,16",
    "Guided,4",
    "Guided,1",
)

#: Speed-up factors reported in the paper's Table 6.2 (Barberá, two-layer).
PAPER_TABLE_6_2: dict[str, dict[int, float]] = {
    "Static": {1: 1.01, 2: 1.32, 4: 2.32, 8: 4.38},
    "Static,64": {1: 1.02, 2: 1.76, 4: 1.86, 8: 3.55},
    "Static,16": {1: 1.02, 2: 1.94, 4: 3.59, 8: 6.23},
    "Static,4": {1: 1.01, 2: 2.01, 4: 3.96, 8: 7.36},
    "Static,1": {1: 1.02, 2: 2.03, 4: 4.03, 8: 7.99},
    "Dynamic,64": {1: 1.02, 2: 2.02, 4: 3.56, 8: 3.55},
    "Dynamic,16": {1: 1.02, 2: 2.02, 4: 4.08, 8: 7.87},
    "Dynamic,4": {1: 1.01, 2: 2.04, 4: 3.99, 8: 7.90},
    "Dynamic,1": {1: 1.02, 2: 2.03, 4: 4.09, 8: 8.05},
    "Guided,64": {1: 1.02, 2: 1.97, 4: 3.56, 8: 3.56},
    "Guided,16": {1: 1.02, 2: 1.99, 4: 3.96, 8: 8.03},
    "Guided,4": {1: 1.02, 2: 2.01, 4: 4.11, 8: 7.93},
    "Guided,1": {1: 1.02, 2: 2.07, 4: 3.95, 8: 8.38},
}

#: CPU times (s) and speed-ups of the paper's Table 6.3 (Balaidos).
PAPER_TABLE_6_3: dict[str, dict[int, tuple[float, float]]] = {
    "A": {1: (2.44, 1.0)},
    "B": {1: (81.26, 1.0), 2: (40.85, 1.98), 4: (20.41, 3.98), 8: (10.09, 8.05)},
    "C": {1: (443.28, 1.0), 2: (218.10, 2.03), 4: (111.38, 3.98), 8: (53.53, 8.28)},
}

#: Mean per-column cost (seconds) assigned to the analytic workload profile
#: when no wall-clock total is supplied.  Large against the machine model's
#: microsecond-scale scheduling overheads, so the simulated speed-ups reflect
#: the schedule quality rather than overhead noise — exactly the regime of the
#: paper's minutes-long matrix generations.
NOMINAL_COLUMN_SECONDS: float = 1.0


def resolve_case(name: str, coarse: bool = False):
    """Resolve a case name like ``"barbera/two_layer"`` or ``"balaidos/C"``.

    Returns ``(grid, soil, gpr)``.  Public: the CLI's scaling commands and the
    example scripts resolve their ``--case`` argument through this.
    """
    name = str(name).lower()
    if name.startswith("barbera"):
        _, _, case = name.partition("/")
        return barbera_case(case or "two_layer", coarse=coarse)
    if name.startswith("balaidos"):
        _, _, model = name.partition("/")
        return balaidos_case(model or "A")
    raise ExperimentError(f"unknown case {name!r}; expected 'barbera/...' or 'balaidos/...'")


def measure_column_costs(
    case: str = "barbera/two_layer",
    coarse: bool = False,
    options: AssemblyOptions | None = None,
    repeats: int | None = None,
    reduction: str = "min",
) -> tuple[np.ndarray, float]:
    """Sequential matrix generation of a case; returns (column costs, total seconds).

    A single column is computed (and discarded) before the timed assembly so
    that one-off warm-up costs (kernel series construction, NumPy buffers,
    memory first-touch) do not inflate the first columns of the measured
    profile — those columns are also the largest ones, and chunk-based
    schedules (static blocks, guided) are sensitive to a biased head.

    Parameters
    ----------
    repeats:
        Number of timed assembly repetitions; the per-column profile is the
        element-wise ``reduction`` over them.  Defaults to 3 for coarse cases —
        whose sub-millisecond columns are easily polluted by scheduler
        jitter — and 1 otherwise.
    reduction:
        ``"min"`` (default) or ``"median"``.  The minimum is the standard
        low-noise estimator for repeated timings; with it the returned total is
        the fastest repetition, so ``costs.sum() <= total`` stays guaranteed.
    """
    from repro.bem.elements import DofManager
    from repro.bem.influence import ColumnAssembler

    if repeats is None:
        repeats = 3 if coarse else 1
    if repeats < 1:
        raise ExperimentError(f"repeats must be at least 1, got {repeats}")
    if reduction not in ("min", "median"):
        raise ExperimentError(f"reduction must be 'min' or 'median', got {reduction!r}")

    grid, soil, gpr = resolve_case(case, coarse=coarse)
    mesh = discretize_grid(grid, soil=soil)
    options = options or AssemblyOptions()
    kernel = kernel_for_soil(soil, options.series_control)

    warmup = ColumnAssembler(
        mesh,
        kernel,
        DofManager(mesh, options.element_type),
        options.n_gauss,
        adaptive=options.adaptive,
    )
    warmup.column_batch([0], [np.arange(min(8, mesh.n_elements))])

    profiles = []
    totals = []
    for _ in range(repeats):
        system = assemble_system(
            mesh, soil, gpr=gpr, options=options, kernel=kernel, collect_column_times=True
        )
        profiles.append(np.asarray(system.metadata["column_seconds"], dtype=float))
        totals.append(float(system.metadata["matrix_generation_seconds"]))

    stacked = np.stack(profiles, axis=0)
    if reduction == "min":
        return stacked.min(axis=0), float(min(totals))
    return np.median(stacked, axis=0), float(np.median(totals))


def deterministic_column_costs(
    case: str = "barbera/two_layer",
    coarse: bool = False,
    options: AssemblyOptions | None = None,
    total_seconds: float | None = None,
) -> np.ndarray:
    """Analytic, host-independent per-column cost profile of a case.

    The profile is the exact work count of every column of the triangular
    assembly loop (targets × image terms × Gauss points, see
    :func:`repro.parallel.costs.analytic_column_costs`), scaled to
    ``total_seconds`` — by default :data:`NOMINAL_COLUMN_SECONDS` per column.
    Feeding it to :func:`figure_6_1_curves` or :func:`table_6_2_speedups`
    makes those artefacts exactly reproducible on any machine, following the
    event-driven (non-measured) concurrency treatment: correctness never pins
    on the host's core count or timer resolution.
    """
    grid, soil, _ = resolve_case(case, coarse=coarse)
    mesh = discretize_grid(grid, soil=soil)
    options = options or AssemblyOptions()
    kernel = kernel_for_soil(soil, options.series_control)
    profile = analytic_column_costs(mesh.element_layers(), kernel, options.n_gauss)
    if total_seconds is None:
        total_seconds = NOMINAL_COLUMN_SECONDS * mesh.n_elements
    return scale_costs(profile, float(total_seconds))


def figure_6_1_curves(
    column_seconds: Sequence[float],
    processor_counts: Sequence[int] = tuple(range(1, 65)),
    schedule: str | Schedule = "Dynamic,1",
    machine: MachineModel | None = None,
) -> dict[str, list[dict[str, Any]]]:
    """Simulated outer-loop and inner-loop speed-up curves (Fig. 6.1).

    ``column_seconds`` may be a measured profile
    (:func:`measure_column_costs`) or the deterministic analytic profile
    (:func:`deterministic_column_costs`).
    """
    schedule = schedule if isinstance(schedule, Schedule) else Schedule.parse(str(schedule))
    machine = machine or MachineModel.origin2000(max(int(p) for p in processor_counts))
    simulator = ScheduleSimulator(np.asarray(column_seconds, dtype=float), machine)
    curves: dict[str, list[dict[str, Any]]] = {"outer": [], "inner": []}
    for count in processor_counts:
        curves["outer"].append(simulator.run(schedule, int(count)).summary())
        curves["inner"].append(simulator.run_inner_loop(schedule, int(count)).summary())
    return curves


def table_6_2_speedups(
    column_seconds: Sequence[float],
    processor_counts: Sequence[int] = (1, 2, 4, 8),
    schedules: Sequence[str] = TABLE_6_2_SCHEDULES,
    machine: MachineModel | None = None,
) -> dict[str, dict[int, float]]:
    """Simulated speed-up table for every schedule of the paper's Table 6.2.

    As with :func:`figure_6_1_curves`, the cost profile may be measured or
    analytic (deterministic).
    """
    machine = machine or MachineModel.origin2000(max(int(p) for p in processor_counts))
    simulator = ScheduleSimulator(np.asarray(column_seconds, dtype=float), machine)
    table: dict[str, dict[int, float]] = {}
    for label in schedules:
        schedule = Schedule.parse(label)
        table[label] = {}
        for count in processor_counts:
            table[label][int(count)] = simulator.run(schedule, int(count)).speedup
    return table


def measure_real_speedups(
    case: str = "barbera/two_layer",
    processor_counts: Sequence[int] = (1, 2, 4, 8),
    schedule: str | Schedule = "Dynamic,1",
    coarse: bool = False,
    options: AssemblyOptions | None = None,
    max_workers: int | None = None,
) -> list[dict[str, Any]]:
    """Real process-pool speed-ups of the matrix generation on this host.

    Returns one row per processor count with the measured wall time and the
    speed-up referenced to the sequential run (the convention of the paper's
    tables).  Worker counts above the host's CPU count are *not* skipped:
    process pools oversubscribe without failing, so every requested
    count produces a row, flagged ``"oversubscribed": True`` when it exceeds
    the available cores (its speed-up then reflects time-sliced execution, not
    genuine parallel hardware).  Use ``max_workers`` to bound pool sizes on
    hosts where very large requests would be pathological.  A row's
    ``backend`` is that of the pool the run used (``"process"`` for more
    than one worker).
    """
    grid, soil, gpr = resolve_case(case, coarse=coarse)
    mesh = discretize_grid(grid, soil=soil)
    options = options or AssemblyOptions()
    kernel = kernel_for_soil(soil, options.series_control)
    schedule = schedule if isinstance(schedule, Schedule) else Schedule.parse(str(schedule))

    sequential = assemble_system(
        mesh, soil, gpr=gpr, options=options, kernel=kernel, collect_column_times=True
    )
    reference = float(sequential.metadata["matrix_generation_seconds"])

    available = os.cpu_count() or 1
    rows: list[dict[str, Any]] = [
        {
            "case": case,
            "n_processors": 1,
            "schedule": schedule.label(),
            "cpu_seconds": reference,
            "speedup": 1.0,
            "backend": "sequential",
            "oversubscribed": False,
        }
    ]
    for count in processor_counts:
        count = int(count)
        if count == 1:
            continue
        if max_workers is not None and count > max_workers:
            continue
        parallel = ParallelOptions(n_workers=count, schedule=schedule)
        system = assemble_system_parallel(
            mesh, soil, gpr=gpr, options=options, kernel=kernel, parallel=parallel
        )
        wall = float(system.metadata["parallel_wall_seconds"])
        rows.append(
            {
                "case": case,
                "n_processors": count,
                "schedule": schedule.label(),
                "cpu_seconds": wall,
                "speedup": reference / wall if wall > 0 else float(count),
                "backend": system.metadata["backend"],
                "oversubscribed": count > available,
            }
        )
    return rows


def table_6_3_rows(
    processor_counts: Sequence[int] = (1, 2, 4, 8),
    models: Sequence[str] = ("A", "B", "C"),
    schedule: str | Schedule = "Dynamic,1",
    machine: MachineModel | None = None,
) -> list[dict[str, Any]]:
    """CPU time and speed-up of the Balaidos matrix generation (Table 6.3).

    The sequential column profile of every soil model is measured on this
    host (:func:`measure_column_costs`) and replayed by the machine simulator
    for the requested processor counts.  Real process-pool rows come from
    :func:`measure_real_speedups`.
    """
    schedule = schedule if isinstance(schedule, Schedule) else Schedule.parse(str(schedule))
    machine = machine or MachineModel.origin2000(max(int(p) for p in processor_counts))
    rows: list[dict[str, Any]] = []
    for model in models:
        column_seconds, total = measure_column_costs(f"balaidos/{model}")
        simulator = ScheduleSimulator(column_seconds, machine)
        for count in processor_counts:
            result = simulator.run(schedule, int(count))
            rows.append(
                {
                    "soil_model": model,
                    "n_processors": int(count),
                    # The simulated times cover the column computations (the
                    # parallelised work); the measured wall time of the whole
                    # matrix-generation phase is reported alongside for the
                    # sequential row.
                    "cpu_seconds": result.makespan,
                    "speedup": result.speedup,
                    "sequential_wall_seconds": total,
                }
            )
    return rows


def measure_sharded_speedup(
    mesh: Mesh,
    soil: SoilModel,
    control=None,
    worker_counts: Sequence[int] = (1, 2, 4),
    options: AssemblyOptions | None = None,
    gpr: float = 1.0,
    solver: str = "pcg",
) -> list[dict[str, Any]]:
    """Hierarchical assemble+solve per block-worker count, against ``workers=0``.

    The reference is the in-process block assembly (``workers=0``); every
    requested worker count then runs the same block builder of
    :mod:`repro.parallel.block_backend` on forked workers, and one row per
    count (reference first) is returned.  Conventions follow
    :func:`measure_real_speedups`: counts above the host's cores are *not*
    skipped but flagged ``"oversubscribed": True`` (their speed-up reflects
    time-sliced execution, not parallel hardware).
    Each row carries the PCG iteration count and ``solution_rel_error``, the
    maximum relative deviation from the reference solution — exactly zero for
    every worker count under the deterministic-reduction contract (canonical
    segments, fixed-order pairwise tree-sum).
    """
    from repro.cluster.operator import HierarchicalControl
    from repro.solvers import solve_system

    control = control or HierarchicalControl()
    if options is not None and options.hierarchical is not None:
        raise ParallelExecutionError(
            "pass the hierarchical control through the 'control' argument; "
            "'options' configures the shared element/kernel settings only"
        )
    base_options = options or AssemblyOptions()

    def _run(workers: int):
        run_control = dataclasses.replace(control, workers=int(workers))
        run_options = dataclasses.replace(base_options, hierarchical=run_control)
        start = wall_clock()
        system = assemble_system(mesh, soil, gpr=gpr, options=run_options)
        assemble_seconds = wall_clock() - start
        start = wall_clock()
        solved = solve_system(system.matrix, system.rhs, method=solver)
        solve_seconds = wall_clock() - start
        return system, solved, assemble_seconds, solve_seconds

    available = os.cpu_count() or 1
    rows: list[dict[str, Any]] = []
    reference: np.ndarray | None = None
    for count in (0, *(int(w) for w in worker_counts)):
        system, solved, assemble_seconds, solve_seconds = _run(count)
        wall = assemble_seconds + solve_seconds
        if reference is None:
            reference, reference_seconds = solved.solution, wall
            reference_norm = float(np.abs(reference).max())
        rows.append(
            {
                "n_workers": count,
                "backend": str(system.metadata["hierarchical"]["backend"]),
                "assemble_seconds": assemble_seconds,
                "solve_seconds": solve_seconds,
                "wall_seconds": wall,
                "speedup": reference_seconds / wall if wall > 0 else 1.0,
                "oversubscribed": count > available,
                "solution_rel_error": float(
                    np.abs(solved.solution - reference).max() / reference_norm
                ),
                "pcg_iterations": solved.iterations,
            }
        )
    return rows


def sharded_speedup_table(rows: Sequence[dict]) -> tuple[list[str], list[list[Any]]]:
    """Printable (headers, rows) of a :func:`measure_sharded_speedup` result.

    Shared by the CLI's ``scaling --hierarchical`` table and the
    ``examples/parallel_scaling.py --sharded`` report, so the displayed
    columns stay in one place.
    """
    headers = [
        "workers",
        "assemble s",
        "solve s",
        "speed-up",
        "oversubscribed",
        "solution rel err",
    ]
    table = [
        [
            row["n_workers"],
            row["assemble_seconds"],
            row["solve_seconds"],
            row["speedup"],
            "yes" if row["oversubscribed"] else "no",
            row["solution_rel_error"],
        ]
        for row in rows
    ]
    return headers, table
