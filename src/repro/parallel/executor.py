"""Scheduled execution of loop tasks on a transient :class:`WorkerPool`.

This is the executable counterpart of the OpenMP work-sharing loop the paper
parallelises: a set of numbered tasks (loop cycles) is distributed over
``n_workers`` workers according to a :class:`repro.parallel.schedule.Schedule`:

* ``static`` schedules fix the task→worker mapping before execution starts;
  each worker's share is one chunk pinned to its pool slot;
* ``dynamic`` and ``guided`` schedules let idle workers grab the next chunk of
  the shared sequence (the pool's pulled dispatch), which balances the
  linearly decreasing column costs of the BEM assembly at the price of more
  scheduling events.

Chunks, not single tasks, are the unit of dispatch.  When the task callable has
a batched companion (``batch_fn``), each chunk is executed in **one** call —
for the BEM assembly that is one vectorised
:meth:`~repro.bem.influence.ColumnAssembler.column_batch` evaluation per
schedule chunk.  The chunk wall time is then apportioned to the individual
tasks using the (analytic) ``cost_hint`` so the per-task profile consumed by
the schedule simulator stays meaningful.

:class:`ScheduledExecutor` only translates a schedule into chunks: the
execution itself is one :meth:`~repro.parallel.pool.WorkerPool.submit` run on
a pool opened for the ``with`` block, so the paper's column loop shares the
pool's retry, respawn, payload checksums and tracing.  The task callables
travel to the workers by pickle and must be module-level and closure-free
(contract ``MSG001``).

Backends:

``process`` (default)
    A :class:`~repro.parallel.pool.WorkerPool` of ``n_workers`` forked
    worker processes.
``serial``
    Runs all tasks as one chunk in the calling process (baseline and
    debugging); so does ``process`` with a single worker.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Sequence

from repro.exceptions import ParallelExecutionError
from repro.parallel.options import Backend
from repro.parallel.pool import TaskRunResult, WorkerPool
from repro.parallel.schedule import Schedule, ScheduleKind
from repro.timing import wall_clock

__all__ = ["ScheduledExecutor", "run_scheduled_tasks"]


class ScheduledExecutor:
    """Reusable scheduled-loop executor bound to one task callable.

    Use as a context manager so the worker pool is reliably torn down::

        with ScheduledExecutor(task_fn, n_workers=8, backend=Backend.PROCESS) as ex:
            outcome = ex.run(range(n_tasks), Schedule.parse("Dynamic,1"))

    Parameters
    ----------
    task_fn:
        Module-level callable computing a single task.
    n_workers:
        Number of workers.
    backend:
        ``process`` or ``serial``.
    batch_fn:
        Optional batched companion of ``task_fn``: called with the task ids of
        a whole chunk, must return ``[(task_id, result), ...]`` in the same
        order.  When provided, every chunk is dispatched as one call.
    cost_hint:
        Optional per-task relative costs (array indexed by task id, or a
        mapping) used to apportion a chunk's wall time to its tasks.
    """

    def __init__(
        self,
        task_fn: Callable[[int], Any],
        n_workers: int,
        backend: Backend | str = Backend.PROCESS,
        batch_fn: Callable[[Sequence[int]], list[tuple[int, Any]]] | None = None,
        cost_hint: Any = None,
    ) -> None:
        if n_workers < 1:
            raise ParallelExecutionError(f"n_workers must be >= 1, got {n_workers}")
        self.task_fn = task_fn
        self.batch_fn = batch_fn
        self.cost_hint = cost_hint
        self.n_workers = int(n_workers)
        self.backend = Backend(backend)
        self.pool: WorkerPool | None = None

    @property
    def serial(self) -> bool:
        """Whether every run executes as one chunk in the calling process."""
        return self.backend is Backend.SERIAL or self.n_workers == 1

    # -- lifecycle ------------------------------------------------------------------

    def __enter__(self) -> "ScheduledExecutor":
        self.pool = (
            WorkerPool(1, backend="serial") if self.serial else WorkerPool(self.n_workers)
        )
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Close the worker pool (idempotent); equivalent to leaving ``with``."""
        if self.pool is not None:
            self.pool.close()

    # -- execution ------------------------------------------------------------------

    def run(self, task_indices: Sequence[int], schedule: Schedule) -> TaskRunResult:
        """Execute the given tasks under the schedule and collect the results."""
        if self.pool is None or self.pool.closed:
            raise ParallelExecutionError(
                "ScheduledExecutor must be used as a context manager (with ... as ex:)"
            )
        indices = [int(i) for i in task_indices]
        start = wall_clock()
        chunks = [indices] if self.serial else self._chunks_for(indices, schedule)
        run = self.pool.submit(
            self.task_fn,
            chunks,
            batch_fn=self.batch_fn,
            cost_hint=self.cost_hint,
            label=schedule.label(),
            pull=schedule.kind is not ScheduleKind.STATIC,
        )
        while not run.done:
            self.pool.service()
        outcome = self.pool.result(run)
        return dataclasses.replace(
            outcome,
            wall_seconds=wall_clock() - start,
            n_workers=self.n_workers,
            schedule=schedule.label(),
            backend=self.backend.value,
        )

    def _chunks_for(self, indices: list[int], schedule: Schedule) -> list[list[int]]:
        """Translate the schedule into an ordered list of chunks of task ids."""
        n_tasks = len(indices)
        if schedule.kind is ScheduleKind.STATIC:
            assignment = schedule.static_assignment(n_tasks, self.n_workers)
            return [
                [indices[i] for i in worker_tasks] for worker_tasks in assignment if worker_tasks
            ]
        sequence = schedule.chunk_sequence(n_tasks, self.n_workers)
        return [[indices[i] for i in chunk] for chunk in sequence]


def run_scheduled_tasks(
    task_fn: Callable[[int], Any],
    n_tasks: int,
    schedule: Schedule,
    n_workers: int,
    backend: Backend | str = Backend.PROCESS,
    batch_fn: Callable[[Sequence[int]], list[tuple[int, Any]]] | None = None,
    cost_hint: Any = None,
) -> TaskRunResult:
    """One-shot convenience wrapper around :class:`ScheduledExecutor`."""
    if n_tasks < 0:
        raise ParallelExecutionError("n_tasks cannot be negative")
    with ScheduledExecutor(
        task_fn,
        n_workers=n_workers,
        backend=backend,
        batch_fn=batch_fn,
        cost_hint=cost_hint,
    ) as executor:
        return executor.run(range(n_tasks), schedule)
