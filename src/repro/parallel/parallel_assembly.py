"""The dense column driver: matrix generation as in the paper's Section 6.2.

The sequential assembly couples the computation of each elemental matrix with
its immediate scatter into the global matrix; that scatter creates a dependency
between loop cycles.  The paper removes it by *first* computing and storing all
elemental matrices (in parallel) and *then* assembling them sequentially —
"this scheme requires approximately twice the memory space than the original
one, but in any case this memory space is not very large".
:func:`assemble_system_parallel` follows exactly that structure, and it is the
only driver of the dense loop (:func:`repro.bem.assembly.assemble_system` is
its one-worker case):

1. the columns of :class:`repro.bem.influence.ColumnAssembler` come from one
   of two sources.  One worker evaluates them in the calling process and
   streams them, one fold group per call (one column per call when column
   times are collected, so each time is a measurement).  More workers
   distribute them over a :class:`~repro.parallel.executor.ScheduledExecutor`
   according to the requested :class:`~repro.parallel.schedule.Schedule`
   (outer-loop parallelisation), which stores them all;
2. the master folds the columns into the global matrix group by group, in
   ascending group order (:func:`repro.bem.assembly.assemble_from_columns`),
   so the exact engine gives the same bits for every worker count and
   schedule.

The chunk function of both sources is :class:`_ColumnChunk`: one
:meth:`~repro.bem.influence.ColumnAssembler.column_batch` call per run of a
chunk's columns that share a fold group.  On the executor the chunk wall
times are apportioned to the individual columns with the deterministic cost
model of :meth:`~repro.bem.influence.ColumnAssembler.column_cost_estimate`,
computed only when column times are asked for.

The paper's inner-loop alternative (the rows of each column distributed while
the column loop stays sequential, Fig. 6.1) is not executed for real: its
curve comes from replaying the column costs in the schedule simulator
(:meth:`~repro.parallel.simulator.ScheduleSimulator.run_inner_loop`).
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterator

import numpy as np

from repro.bem.assembly import AssemblyOptions, ColumnResult, assemble_from_columns
from repro.bem.elements import DofManager
from repro.bem.influence import ColumnAssembler
from repro.bem.system import LinearSystem
from repro.constants import DEFAULT_GPR
from repro.exceptions import ParallelExecutionError
from repro.geometry.discretize import Mesh
from repro.kernels.base import LayeredKernel, kernel_for_soil
from repro.parallel.costs import timed_batch
from repro.parallel.executor import ScheduledExecutor
from repro.parallel.options import ParallelOptions
from repro.soil.base import SoilModel
from repro.timing import wall_clock

__all__ = ["assemble_system_parallel"]


class _ColumnChunk:
    """Chunk function: one ``column_batch`` call per run of one fold group's columns."""

    def __init__(self, assembler: ColumnAssembler) -> None:
        self.assembler = assembler
        self.group_size = assembler.max_batch_size()

    def __call__(self, column_indices: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
        results: list[tuple[np.ndarray, np.ndarray]] = []
        for _, run in groupby(column_indices, key=lambda index: index // self.group_size):
            results.extend(self.assembler.column_batch(list(run)))
        return results


def _in_process(
    chunk_fn: _ColumnChunk, chunks: list[list[int]], column_seconds: np.ndarray
) -> Iterator[ColumnResult]:
    """Evaluate ``chunks`` one after the other here, streaming their columns.

    Each column is handed over, not kept: once the fold has a chunk's last
    column, nothing here holds the chunk while the next one is evaluated.
    """
    for chunk in chunks:
        pairs, seconds = timed_batch(chunk_fn, chunk)
        column_seconds[chunk] = seconds
        for index, elapsed in zip(chunk, seconds.tolist()):
            yield ColumnResult(index, *pairs.pop(0), elapsed)


def assemble_system_parallel(
    mesh: Mesh,
    soil: SoilModel,
    gpr: float = DEFAULT_GPR,
    options: AssemblyOptions | None = None,
    kernel: LayeredKernel | None = None,
    parallel: ParallelOptions | None = None,
    collect_column_times: bool = True,
) -> LinearSystem:
    """Assemble the dense Galerkin system with the paper's column loop.

    Same arguments as :func:`repro.bem.assembly.assemble_system` for the
    dense engine, plus ``parallel`` (``None``: one worker, in the calling
    process).  The returned system carries the assembly metadata, among it
    ``backend`` (``"sequential"`` for one worker, else that of the pool the
    loop ran on), ``schedule``, ``n_workers``, ``n_chunks`` (``column_batch``
    chunks evaluated in process, or schedule chunks dispatched) and
    ``parallel_wall_seconds`` (the column loop's wall time); with
    ``collect_column_times`` also ``column_seconds``, the per-column times
    consumed by the schedule simulator.
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
    chunk_fn = _ColumnChunk(assembler)
    m = mesh.n_elements

    start = wall_clock()
    if parallel.n_workers == 1:
        size = 1 if collect_column_times else chunk_fn.group_size
        chunks = [list(range(first, min(first + size, m))) for first in range(0, m, size)]
        column_seconds = np.zeros(m)
        system = assemble_from_columns(
            _in_process(chunk_fn, chunks, column_seconds), assembler, gpr=gpr
        )
        backend, n_chunks = "sequential", len(chunks)
        loop_seconds = wall_clock() - start
    else:
        cost_hint = assembler.column_cost_estimate() if collect_column_times else None
        with ScheduledExecutor(
            chunk_fn, n_workers=parallel.n_workers, cost_hint=cost_hint
        ) as executor:
            outcome = executor.run(range(m), parallel.schedule)
        results, column_seconds = outcome.results, outcome.task_seconds
        system = assemble_from_columns(
            (
                ColumnResult(index, *results.pop(index), float(column_seconds[index]))
                for index in range(m)
            ),
            assembler,
            gpr=gpr,
        )
        backend, n_chunks = outcome.backend, outcome.n_chunks
        loop_seconds = outcome.wall_seconds
    generation_seconds = wall_clock() - start

    system.metadata.update(
        {
            "matrix_generation_seconds": generation_seconds,
            "n_elements": m,
            "n_dofs": dof_manager.n_dofs,
            "element_type": options.element_type.value,
            "n_gauss": options.n_gauss,
            "soil_layers": soil.n_layers,
            "kernel_terms": {
                f"k{b}{c}": kernel.series_length(b, c)
                for b in range(1, soil.n_layers + 1)
                for c in range(1, soil.n_layers + 1)
            },
            "adaptive": None
            if options.adaptive is None
            else {
                "tolerance": options.adaptive.tolerance,
                "safety": options.adaptive.safety,
                "use_midpoint_tail": options.adaptive.use_midpoint_tail,
                "merge_degenerate": options.adaptive.merge_degenerate,
            },
            "backend": backend,
            "schedule": parallel.schedule.label(),
            "n_workers": parallel.n_workers,
            "parallel_wall_seconds": loop_seconds,
            "n_chunks": n_chunks,
        }
    )
    if collect_column_times:
        system.metadata["column_seconds"] = column_seconds
    return system
