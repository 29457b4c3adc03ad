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

Chunks, not single tasks, are the unit of dispatch: the executor is bound to
one *chunk function* ``fn(task_ids) -> [result, ...]`` that evaluates a whole
schedule chunk in one call — for the BEM assembly one vectorised
:meth:`~repro.bem.influence.ColumnAssembler.column_batch` evaluation per
run of the chunk's columns that share a fold group.  The chunk wall time is measured in the worker and apportioned to the
individual tasks by their share of the (analytic) ``cost_hint``
(:func:`~repro.parallel.costs.timed_batch`), so the per-task profile consumed
by the schedule simulator stays meaningful.

:class:`ScheduledExecutor` only translates a schedule into chunks: the
execution itself is one :meth:`~repro.parallel.pool.WorkerPool.submit` run on
a pool opened for the ``with`` block, whose task ``k`` runs schedule chunk
``k`` (shards ``[[0], [1], ...]`` in chunk order; ``static`` shards pinned to
their slot, ``dynamic``/``guided`` shards pulled by idle slots).  The paper's
column loop thereby shares the pool's retry, respawn, payload checksums and
tracing; the pool's ``tasks_executed`` counter counts chunks.  The chunk
function travels to the workers by pickle and must be module-level and
closure-free (contract ``MSG001``).

With ``n_workers > 1`` the pool has that many forked worker processes (its
``backend`` is ``"process"``); a single worker runs all tasks as one chunk
in the calling process on an in-process pool (``"serial"``).  The run's
:attr:`~repro.parallel.pool.TaskRunResult.backend` is the backend of the pool
it used.  The dense column driver
(:func:`~repro.parallel.parallel_assembly.assemble_system_parallel`) does not
send one worker here: it streams that case in process, one fold group per
call, so its columns are never all stored at once.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.exceptions import ParallelExecutionError
from repro.parallel.costs import timed_batch
from repro.parallel.pool import TaskRunResult, WorkerPool, collect_chunk_results
from repro.parallel.schedule import Schedule, ScheduleKind, whole_number
from repro.timing import wall_clock

__all__ = ["ScheduledExecutor", "run_scheduled_tasks"]


class _ChunkTask:
    """Pool task ``k``: evaluate schedule chunk ``k`` in one timed call.

    Returns ``[(task_id, result, seconds), ...]`` for the chunk's tasks, the
    chunk wall time split by cost share.
    """

    def __init__(
        self, fn: Callable[[list[int]], Sequence[Any]], chunks: list[list[int]], cost_hint: Any
    ) -> None:
        self.fn = fn
        self.chunks = chunks
        self.cost_hint = cost_hint

    def __call__(self, position: int) -> list[tuple[int, Any, float]]:
        chunk = self.chunks[position]
        results, seconds = timed_batch(self.fn, chunk, self.cost_hint)
        if len(results) != len(chunk):
            raise ParallelExecutionError(
                f"chunk function returned {len(results)} results for {len(chunk)} tasks"
            )
        return list(zip(chunk, results, seconds.tolist()))


class ScheduledExecutor:
    """Reusable scheduled-loop executor bound to one chunk function.

    Use as a context manager so the worker pool is reliably torn down::

        with ScheduledExecutor(chunk_fn, n_workers=8) as ex:
            outcome = ex.run(range(n_tasks), Schedule.parse("Dynamic,1"))

    Parameters
    ----------
    fn:
        Module-level callable evaluating a whole chunk: called with the task
        ids of one chunk, returns their results in the same order.
    n_workers:
        Number of workers; one worker runs in the calling process.
    cost_hint:
        Optional per-task relative costs (array indexed by task id, or a
        mapping) used to apportion a chunk's wall time to its tasks;
        ``None`` splits it evenly.
    """

    def __init__(
        self,
        fn: Callable[[list[int]], Sequence[Any]],
        n_workers: int,
        cost_hint: Any = None,
    ) -> None:
        count = whole_number(n_workers)
        if count is None or count < 1:
            raise ParallelExecutionError(
                f"n_workers must be a whole number >= 1, got {n_workers!r}"
            )
        self.fn = fn
        self.cost_hint = cost_hint
        self.n_workers = count
        self.pool: WorkerPool | None = None

    @property
    def serial(self) -> bool:
        """Whether every run executes as one chunk in the calling process."""
        return self.n_workers == 1

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
        chunks = [chunk for chunk in chunks if chunk]
        run = self.pool.submit(
            _ChunkTask(self.fn, chunks, self.cost_hint),
            [[position] for position in range(len(chunks))],
            label=schedule.label(),
            pull=schedule.kind is not ScheduleKind.STATIC,
        )
        while not run.done:
            self.pool.service()
        outcome = self.pool.result(run)
        return collect_chunk_results(
            [outcome.results[position] for position in range(len(chunks))],
            indices,
            wall_clock() - start,
            len(chunks),
            self.n_workers,
            schedule.label(),
            self.pool.backend,
        )

    def _chunks_for(self, indices: list[int], schedule: Schedule) -> list[list[int]]:
        """Translate the schedule into an ordered list of chunks of task ids."""
        n_tasks = len(indices)
        if schedule.kind is ScheduleKind.STATIC:
            assignment = schedule.static_assignment(n_tasks, self.n_workers)
            return [[indices[i] for i in worker_tasks] for worker_tasks in assignment]
        sequence = schedule.chunk_sequence(n_tasks, self.n_workers)
        return [[indices[i] for i in chunk] for chunk in sequence]


def run_scheduled_tasks(
    fn: Callable[[list[int]], Sequence[Any]],
    n_tasks: int,
    schedule: Schedule,
    n_workers: int,
    cost_hint: Any = None,
) -> TaskRunResult:
    """One-shot convenience wrapper around :class:`ScheduledExecutor`."""
    if n_tasks < 0:
        raise ParallelExecutionError("n_tasks cannot be negative")
    with ScheduledExecutor(fn, n_workers=n_workers, cost_hint=cost_hint) as executor:
        return executor.run(range(n_tasks), schedule)
