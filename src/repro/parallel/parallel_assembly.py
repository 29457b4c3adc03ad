"""Parallel generation of the BEM matrix (the paper's Section 6.2).

The sequential assembly couples the computation of each elemental matrix with
its immediate scatter into the global matrix; that scatter creates a dependency
between loop cycles.  The paper removes it by *first* computing and storing all
elemental matrices (in parallel) and *then* assembling them sequentially —
"this scheme requires approximately twice the memory space than the original
one, but in any case this memory space is not very large".  This module follows
exactly that structure:

1. the column tasks of :class:`repro.bem.influence.ColumnAssembler` are
   distributed over the workers according to the requested
   :class:`~repro.parallel.schedule.Schedule` (outer-loop parallelisation);
2. the master folds the stored blocks into the global matrix in the
   sequential driver's column groups and order
   (:func:`repro.bem.assembly.assemble_from_columns`), so the exact engine
   gives the same bits for every worker count and schedule.  On top of the
   stored columns (3.3 MB on the full Barberá mesh) the fold costs a quarter
   of their bytes, where one pass over all of them cost 3.5 times.

The paper's inner-loop alternative (the rows of each column distributed while
the column loop stays sequential, Fig. 6.1) is not executed for real: its
curve comes from replaying the column costs in the schedule simulator
(:meth:`~repro.parallel.simulator.ScheduleSimulator.run_inner_loop`).

The executor's chunk function is :class:`_ColumnChunk`: every schedule chunk
is **one batched evaluation** — a single
:meth:`~repro.bem.influence.ColumnAssembler.column_batch` call, the same
kernel entry the sequential driver uses — whether the pool runs in the calling
process (one worker) or on forked workers.  Chunk wall times are apportioned to the individual columns with the
deterministic cost model of
:meth:`~repro.bem.influence.ColumnAssembler.column_cost_estimate`.
"""

from __future__ import annotations

import numpy as np

from repro.bem.assembly import (
    AssemblyOptions,
    ColumnResult,
    assemble_from_columns,
)
from repro.bem.elements import DofManager
from repro.bem.influence import ColumnAssembler
from repro.bem.system import LinearSystem
from repro.constants import DEFAULT_GPR
from repro.exceptions import ParallelExecutionError
from repro.geometry.discretize import Mesh
from repro.kernels.base import LayeredKernel, kernel_for_soil
from repro.parallel.executor import ScheduledExecutor
from repro.parallel.options import ParallelOptions
from repro.soil.base import SoilModel
from repro.timing import wall_clock

__all__ = ["assemble_system_parallel", "generate_columns_parallel"]


def generate_columns_parallel(
    assembler: ColumnAssembler,
    parallel: ParallelOptions,
) -> tuple[list[ColumnResult], dict]:
    """Compute every assembly column under the requested parallel options.

    Returns the column results (in column order) plus run metadata:
    ``backend`` (of the pool the loop ran on), ``parallel_wall_seconds`` (the
    wall-clock time of the scheduled loop) and ``column_seconds`` (per-column execution times measured inside the
    workers — the task-cost profile consumed by the schedule simulator; with
    batched chunks each column carries its cost-model share of the chunk
    time).
    """
    n_columns = assembler.n_elements
    with ScheduledExecutor(
        _ColumnChunk(assembler),
        n_workers=parallel.n_workers,
        cost_hint=assembler.column_cost_estimate(),
    ) as executor:
        outcome = executor.run(range(n_columns), parallel.schedule)
    columns = []
    for index in range(n_columns):
        targets, blocks = outcome.results[index]
        columns.append(
            ColumnResult(
                source_index=index,
                targets=targets,
                blocks=blocks,
                elapsed_seconds=float(outcome.task_seconds[index]),
            )
        )
    metadata = {
        "backend": outcome.backend,
        "parallel_wall_seconds": outcome.wall_seconds,
        "column_seconds": outcome.task_seconds.copy(),
        "n_chunks": outcome.n_chunks,
    }
    return columns, metadata


class _ColumnChunk:
    """Chunk function: the triangle columns of one schedule chunk, one batch."""

    def __init__(self, assembler: ColumnAssembler) -> None:
        self.assembler = assembler

    def __call__(self, column_indices: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
        return self.assembler.column_batch(column_indices)


def assemble_system_parallel(
    mesh: Mesh,
    soil: SoilModel,
    gpr: float = DEFAULT_GPR,
    options: AssemblyOptions | None = None,
    kernel: LayeredKernel | None = None,
    parallel: ParallelOptions | None = None,
    collect_column_times: bool = True,
) -> LinearSystem:
    """Assemble the Galerkin system with parallel matrix generation.

    Drop-in replacement for :func:`repro.bem.assembly.assemble_system`; the
    returned system carries the parallel-execution metadata
    (``backend``, ``parallel_wall_seconds``, ``schedule``, ``n_workers``,
    ...).  ``parallel=None`` runs one worker in the calling process.
    """
    if parallel is None:
        parallel = ParallelOptions(n_workers=1)
    options = options or AssemblyOptions()
    if options.hierarchical is not None:
        raise ParallelExecutionError(
            "the hierarchical engine has no parallel *column* backend; use "
            "AssemblyOptions(hierarchical=HierarchicalControl(workers=...)) "
            "through assemble_system — the sharded block backend of "
            "repro.parallel.block_backend executes the cluster-pair partition "
            "of repro.parallel.costs.partition_block_work in parallel"
        )
    if kernel is None:
        kernel = kernel_for_soil(soil, options.series_control)
    dof_manager = DofManager(mesh, options.element_type)
    assembler = ColumnAssembler(
        mesh, kernel, dof_manager, options.n_gauss, adaptive=options.adaptive
    )

    start = wall_clock()
    columns, parallel_metadata = generate_columns_parallel(assembler, parallel)
    generation_seconds = wall_clock() - start

    metadata = {
        "matrix_generation_seconds": generation_seconds,
        "n_elements": mesh.n_elements,
        "n_dofs": dof_manager.n_dofs,
        "element_type": options.element_type.value,
        "n_gauss": options.n_gauss,
        "soil_layers": soil.n_layers,
        "backend": parallel_metadata["backend"],
        "schedule": parallel.schedule.label(),
        "n_workers": parallel.n_workers,
        "parallel_wall_seconds": parallel_metadata["parallel_wall_seconds"],
        "n_chunks": parallel_metadata["n_chunks"],
    }
    if collect_column_times:
        metadata["column_seconds"] = parallel_metadata["column_seconds"]

    return assemble_from_columns(columns, assembler, gpr=gpr, metadata=metadata)
