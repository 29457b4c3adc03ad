"""Speed-up studies: real measurements plus simulator extrapolation.

The paper's parallel evaluation consists of three artefacts:

* Fig. 6.1 — speed-up versus processor count (1–64) for the outer-loop and the
  inner-loop parallelisation of the Barberá two-layer analysis;
* Table 6.2 — speed-up of the outer-loop parallelisation for every OpenMP
  schedule (static/dynamic/guided × chunk) on 1, 2, 4 and 8 processors;
* Table 6.3 — CPU time and speed-up of the Balaidos analysis for soil models
  A/B/C on 1, 2, 4 and 8 processors.

:func:`measure_speedup` produces the real-execution version of those tables on
this host (bounded by its core count), while :func:`simulate_speedup_curve`
replays the measured per-column costs on a configurable machine model to reach
arbitrary processor counts.  Speed-ups are referenced to the sequential CPU
time, exactly as in the paper ("the speed-up factor has been referenced to the
sequential CPU time").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.bem.assembly import AssemblyOptions, assemble_system
from repro.exceptions import ParallelExecutionError
from repro.geometry.discretize import Mesh
from repro.kernels.base import kernel_for_soil
from repro.parallel.machine import MachineModel
from repro.parallel.options import Backend, LoopLevel, ParallelOptions
from repro.parallel.parallel_assembly import assemble_system_parallel
from repro.parallel.schedule import Schedule
from repro.parallel.simulator import ScheduleSimulator, SimulationResult
from repro.soil.base import SoilModel

__all__ = [
    "SpeedupStudy",
    "measure_sharded_speedup",
    "measure_speedup",
    "sharded_speedup_table",
    "simulate_speedup_curve",
]


@dataclass
class SpeedupStudy:
    """Collection of speed-up measurements for one problem."""

    #: Description of the analysed problem (grid, soil, discretisation).
    problem: str
    #: Sequential reference time of the matrix generation [s].
    reference_seconds: float
    #: One row per (schedule, processor-count) configuration.
    rows: list[dict[str, Any]] = field(default_factory=list)
    #: Measured per-column task costs of the sequential run [s].
    column_seconds: np.ndarray | None = None

    def add_row(self, **row: Any) -> None:
        """Append a measurement row."""
        self.rows.append(dict(row))

    def table(self) -> list[dict[str, Any]]:
        """All rows (copy)."""
        return [dict(row) for row in self.rows]

    def speedup_matrix(self) -> dict[str, dict[int, float]]:
        """Speed-ups keyed by schedule label then processor count (Table 6.2 layout)."""
        matrix: dict[str, dict[int, float]] = {}
        for row in self.rows:
            matrix.setdefault(str(row["schedule"]), {})[int(row["n_processors"])] = float(
                row["speedup"]
            )
        return matrix

    def best_schedule(self, n_processors: int) -> str:
        """Schedule with the highest speed-up at the given processor count."""
        candidates = [row for row in self.rows if int(row["n_processors"]) == n_processors]
        if not candidates:
            raise ParallelExecutionError(
                f"no measurements recorded for {n_processors} processors"
            )
        return str(max(candidates, key=lambda row: row["speedup"])["schedule"])


def measure_speedup(
    mesh: Mesh,
    soil: SoilModel,
    options: AssemblyOptions | None = None,
    processor_counts: Sequence[int] = (1, 2, 4, 8),
    schedules: Sequence[Schedule] | None = None,
    backend: Backend | str = Backend.PROCESS,
    gpr: float = 1.0,
    problem: str = "",
) -> SpeedupStudy:
    """Measure real outer-loop speed-ups of the matrix generation on this host.

    The sequential reference is measured once with the plain sequential
    assembler; every (schedule, processor count) combination is then executed
    with the requested backend and the wall-clock time of the scheduled loop
    recorded.
    """
    options = options or AssemblyOptions()
    schedules = list(schedules) if schedules is not None else [Schedule.parse("Dynamic,1")]
    kernel = kernel_for_soil(soil, options.series_control)

    reference_system = assemble_system(
        mesh, soil, gpr=gpr, options=options, kernel=kernel, collect_column_times=True
    )
    reference_seconds = float(reference_system.metadata["matrix_generation_seconds"])
    column_seconds = np.asarray(reference_system.metadata["column_seconds"], dtype=float)

    study = SpeedupStudy(
        problem=problem or mesh.grid.name,
        reference_seconds=reference_seconds,
        column_seconds=column_seconds,
    )

    for schedule in schedules:
        for count in processor_counts:
            if int(count) == 1:
                # The 1-processor entry is the sequential run itself (speed-up ~1),
                # as in the paper's tables.
                study.add_row(
                    schedule=schedule.label(),
                    n_processors=1,
                    wall_seconds=reference_seconds,
                    speedup=1.0,
                    backend="sequential",
                )
                continue
            parallel = ParallelOptions(n_workers=int(count), schedule=schedule, backend=backend)
            system = assemble_system_parallel(
                mesh, soil, gpr=gpr, options=options, kernel=kernel, parallel=parallel
            )
            wall = float(system.metadata["parallel_wall_seconds"])
            study.add_row(
                schedule=schedule.label(),
                n_processors=int(count),
                wall_seconds=wall,
                speedup=reference_seconds / wall if wall > 0 else float(count),
                backend=parallel.backend.value,
            )
    return study


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
    :func:`repro.experiments.scaling.measure_real_speedups`: counts above the
    host's cores are *not* skipped but flagged ``"oversubscribed": True``
    (their speed-up reflects time-sliced execution, not parallel hardware).
    Each row carries the PCG iteration count and ``solution_rel_error``, the
    maximum relative deviation from the reference solution — exactly zero for
    every worker count under the deterministic-reduction contract (canonical
    segments, fixed-order pairwise tree-sum).
    """
    import dataclasses
    import os
    import time

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
        # Every run starts from a cold process-wide geometry cache; the
        # reference would otherwise pay all cache misses and gift the later
        # runs (and their forked workers) a warm cache, biasing the speed-up
        # the acceptance gate asserts on.
        from repro.bem.geometry_cache import default_geometry_cache

        default_geometry_cache().clear()
        run_control = dataclasses.replace(control, workers=int(workers))
        run_options = dataclasses.replace(base_options, hierarchical=run_control)
        start = time.perf_counter()
        system = assemble_system(mesh, soil, gpr=gpr, options=run_options)
        assemble_seconds = time.perf_counter() - start
        start = time.perf_counter()
        solved = solve_system(system.matrix, system.rhs, method=solver)
        solve_seconds = time.perf_counter() - start
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


def simulate_speedup_curve(
    column_seconds: Sequence[float],
    processor_counts: Sequence[int],
    schedule: Schedule | str = "Dynamic,1",
    machine: MachineModel | None = None,
    loop: LoopLevel | str = LoopLevel.OUTER,
) -> list[SimulationResult]:
    """Simulate the speed-up curve of Fig. 6.1 from measured column costs.

    Parameters
    ----------
    column_seconds:
        Per-column task costs measured on a sequential (or 1-worker) run.
    processor_counts:
        Processor counts to simulate (e.g. ``range(1, 65)``).
    schedule:
        Loop schedule (``"Dynamic,1"`` in the paper's figure).
    machine:
        Machine model; defaults to :meth:`MachineModel.origin2000`.
    loop:
        ``outer`` or ``inner`` loop parallelisation.
    """
    schedule = schedule if isinstance(schedule, Schedule) else Schedule.parse(str(schedule))
    loop_level = LoopLevel(loop) if not isinstance(loop, LoopLevel) else loop
    machine = machine or MachineModel.origin2000(max(int(p) for p in processor_counts))
    simulator = ScheduleSimulator(np.asarray(column_seconds, dtype=float), machine)
    return simulator.speedup_curve(
        schedule, [int(p) for p in processor_counts], loop=loop_level.value
    )
