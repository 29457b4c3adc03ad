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
2. the resulting blocks are assembled into the global matrix by the master
   process.

The paper's inner-loop alternative (the rows of each column distributed while
the column loop stays sequential, Fig. 6.1) is not executed for real: its
curve comes from replaying the column costs in the schedule simulator
(:meth:`~repro.parallel.simulator.ScheduleSimulator.run_inner_loop`).

Every schedule chunk is dispatched as **one batched evaluation** — a single
:meth:`~repro.bem.influence.ColumnAssembler.column_batch` call — on the serial
and process backends alike.  Chunk wall times are apportioned to the
individual columns with the deterministic analytic cost model
(:func:`repro.parallel.costs.analytic_column_costs`).
"""

from __future__ import annotations

from typing import Sequence

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
from repro.parallel.options import Backend, ParallelOptions
from repro.soil.base import SoilModel
from repro.timing import wall_clock

__all__ = ["assemble_system_parallel", "generate_columns_parallel"]


def generate_columns_parallel(
    assembler: ColumnAssembler,
    parallel: ParallelOptions,
) -> tuple[list[ColumnResult], dict]:
    """Compute every assembly column under the requested parallel options.

    Returns the column results (in column order) plus timing metadata:
    ``parallel_wall_seconds`` (the wall-clock time of the scheduled loop) and
    ``column_seconds`` (per-column execution times measured inside the
    workers — the task-cost profile consumed by the schedule simulator; with
    batched chunks each column carries its cost-model share of the chunk
    time).
    """
    n_columns = assembler.n_elements
    with ScheduledExecutor(
        _OuterColumnTask(assembler),
        n_workers=parallel.n_workers,
        backend=parallel.backend,
        batch_fn=_OuterColumnBatchTask(assembler),
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
        "parallel_wall_seconds": outcome.wall_seconds,
        "column_seconds": outcome.task_seconds.copy(),
        "n_chunks": outcome.n_chunks,
    }
    return columns, metadata


class _OuterColumnTask:
    """Callable computing one whole assembly column (outer-loop task)."""

    def __init__(self, assembler: ColumnAssembler) -> None:
        self.assembler = assembler

    def __call__(self, column_index: int) -> tuple[np.ndarray, np.ndarray]:
        return self.assembler.column_blocks(column_index)


class _OuterColumnBatchTask:
    """Batched companion: one vectorised evaluation per schedule chunk."""

    def __init__(self, assembler: ColumnAssembler) -> None:
        self.assembler = assembler

    def __call__(
        self, column_indices: Sequence[int]
    ) -> list[tuple[int, tuple[np.ndarray, np.ndarray]]]:
        pairs = self.assembler.column_batch(column_indices)
        return [(int(index), pair) for index, pair in zip(column_indices, pairs)]


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
    (``parallel_wall_seconds``, ``schedule``, ``n_workers``, ...).
    """
    if parallel is None:
        parallel = ParallelOptions(backend=Backend.SERIAL, n_workers=1)
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
        "backend": parallel.backend.value,
        "schedule": parallel.schedule.label(),
        "n_workers": parallel.n_workers,
        "parallel_wall_seconds": parallel_metadata["parallel_wall_seconds"],
        "n_chunks": parallel_metadata["n_chunks"],
    }
    if collect_column_times:
        metadata["column_seconds"] = parallel_metadata["column_seconds"]

    system = assemble_from_columns(columns, dof_manager, gpr=gpr, metadata=metadata)
    if system.dof_manager.n_dofs != dof_manager.n_dofs:  # pragma: no cover - defensive
        raise ParallelExecutionError("inconsistent dof count after parallel assembly")
    return system
