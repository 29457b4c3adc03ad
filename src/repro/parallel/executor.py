"""Real scheduled execution of loop tasks on threads or worker processes.

This is the executable counterpart of the OpenMP work-sharing loop the paper
parallelises: a set of numbered tasks (loop cycles) is distributed over
``n_workers`` workers according to a :class:`repro.parallel.schedule.Schedule`:

* ``static`` schedules fix the task→worker mapping before execution starts;
* ``dynamic`` and ``guided`` schedules let idle workers grab the next chunk of
  the shared sequence, which balances the linearly decreasing column costs of
  the BEM assembly at the price of more scheduling events.

Chunks, not single tasks, are the unit of dispatch.  When the task callable has
a batched companion (``batch_fn``), each chunk is executed in **one** call —
for the BEM assembly that is one vectorised
:meth:`~repro.bem.influence.ColumnAssembler.column_batch` evaluation per
schedule chunk, on every backend.  The chunk wall time is then apportioned to
the individual tasks using the (analytic) ``cost_hint`` so the per-task
profile consumed by the schedule simulator stays meaningful.

Backends:

``process`` (default)
    Worker processes created with the ``fork`` start method.  The task callable
    and its captured state (mesh, kernel, assembler) are inherited by the
    children through the fork, so no per-task pickling of the inputs occurs;
    only the results travel back.  This mirrors the shared-memory setting of
    the paper, where every processor reads the same element tables and only the
    elemental matrices are written.
``thread``
    A thread pool.  NumPy releases the GIL inside its kernels, so moderate
    speed-ups are possible, but the Python-level bookkeeping serialises;
    batched chunks spend most of their time inside NumPy, which makes this
    backend considerably more useful than with per-task dispatch.
``serial``
    Runs everything in the calling thread (baseline and debugging).
"""

from __future__ import annotations

import multiprocessing as mp
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.exceptions import ParallelExecutionError
from repro.parallel.costs import cost_shares
from repro.parallel.options import Backend
from repro.parallel.schedule import Schedule, ScheduleKind
from repro.timing import wall_clock

__all__ = [
    "TaskRunResult",
    "ScheduledExecutor",
    "collect_chunk_results",
    "run_scheduled_tasks",
]


# --------------------------------------------------------------------------- worker side
#
# The task callables are stashed in module-level slots *before* the worker
# processes are forked, so the children inherit them via copy-on-write memory
# and only chunk indices / results cross the process boundary.

_WORKER_TASK_FN: Callable[[int], Any] | None = None
_WORKER_BATCH_FN: Callable[[Sequence[int]], list[tuple[int, Any]]] | None = None
_WORKER_COST_HINT: Any = None


def _set_worker_task(
    fn: Callable[[int], Any] | None,
    batch_fn: Callable[[Sequence[int]], list[tuple[int, Any]]] | None = None,
    cost_hint: Any = None,
) -> None:
    global _WORKER_TASK_FN, _WORKER_BATCH_FN, _WORKER_COST_HINT
    _WORKER_TASK_FN = fn
    _WORKER_BATCH_FN = batch_fn
    _WORKER_COST_HINT = cost_hint


def _execute_chunk(
    task_fn: Callable[[int], Any] | None,
    batch_fn: Callable[[Sequence[int]], list[tuple[int, Any]]] | None,
    cost_hint: Any,
    indices: Sequence[int],
) -> list[tuple[int, Any, float]]:
    """Execute one chunk of tasks, timing them.

    With a ``batch_fn`` the whole chunk is evaluated in a single call and the
    elapsed time is apportioned to the tasks by their cost shares; otherwise
    each task runs (and is timed) individually.
    """
    if batch_fn is not None:
        start = wall_clock()
        pairs = batch_fn(list(indices))
        elapsed = wall_clock() - start
        if len(pairs) != len(indices):
            raise ParallelExecutionError(
                f"batch returned {len(pairs)} results for a chunk of {len(indices)} tasks"
            )
        shares = cost_shares(cost_hint, indices)
        return [
            (int(task_id), value, float(elapsed * share))
            for (task_id, value), share in zip(pairs, shares)
        ]
    if task_fn is None:  # pragma: no cover - defensive
        raise ParallelExecutionError("worker has no task function configured")
    output = []
    for index in indices:
        start = wall_clock()
        value = task_fn(int(index))
        output.append((int(index), value, wall_clock() - start))
    return output


def _run_chunk(indices: Sequence[int]) -> list[tuple[int, Any, float]]:
    """Execute a chunk inside a forked worker (state read from the globals)."""
    return _execute_chunk(_WORKER_TASK_FN, _WORKER_BATCH_FN, _WORKER_COST_HINT, indices)


# --------------------------------------------------------------------------- results


def collect_chunk_results(
    raw: list[list[tuple[int, Any, float]]],
    indices: Sequence[int],
    wall: float,
    n_chunks: int,
    n_workers: int,
    schedule_label: str,
    backend: str,
) -> "TaskRunResult":
    """Fold executed-chunk outputs into a :class:`TaskRunResult`.

    Shared by :class:`ScheduledExecutor` and the persistent
    :class:`repro.parallel.pool.WorkerPool`: per-task results and timings are
    indexed back to the submission order, and a missing (or duplicated) task
    id fails loudly.
    """
    indices = [int(i) for i in indices]
    n_tasks = len(indices)
    results: dict[int, Any] = {}
    task_seconds = np.zeros(n_tasks)
    position = {task: k for k, task in enumerate(indices)}
    for chunk_output in raw:
        for task_id, value, elapsed in chunk_output:
            results[task_id] = value
            task_seconds[position[task_id]] = elapsed
    if len(results) != n_tasks:
        raise ParallelExecutionError(
            f"scheduled run returned {len(results)} results for {n_tasks} tasks"
        )
    return TaskRunResult(
        results=results,
        wall_seconds=wall,
        task_seconds=task_seconds,
        n_chunks=n_chunks,
        n_workers=n_workers,
        schedule=schedule_label,
        backend=backend,
    )


@dataclass
class TaskRunResult:
    """Results and timing of one scheduled loop execution."""

    #: Task results indexed by task id.
    results: dict[int, Any]
    #: Wall-clock seconds of the whole parallel loop (as seen by the caller).
    wall_seconds: float
    #: Per-task execution seconds measured inside the workers (apportioned from
    #: the chunk time when chunks are dispatched as batches).
    task_seconds: np.ndarray
    #: Number of chunks dispatched.
    n_chunks: int
    #: Number of workers used.
    n_workers: int
    #: Schedule label (e.g. ``"Dynamic,1"``).
    schedule: str
    #: Backend name.
    backend: str

    @property
    def sequential_seconds(self) -> float:
        """Sum of the per-task times (the sequential reference of the paper)."""
        return float(self.task_seconds.sum())

    @property
    def speedup(self) -> float:
        """Observed speed-up relative to the summed task times."""
        if self.wall_seconds <= 0.0:
            return float(self.n_workers)
        return self.sequential_seconds / self.wall_seconds

    def ordered_results(self) -> list[Any]:
        """Results sorted by task id."""
        return [self.results[key] for key in sorted(self.results)]


# --------------------------------------------------------------------------- executor


class ScheduledExecutor:
    """Reusable scheduled-loop executor bound to one task callable.

    Use as a context manager so worker pools are reliably torn down::

        with ScheduledExecutor(task_fn, n_workers=8, backend=Backend.PROCESS) as ex:
            outcome = ex.run(range(n_tasks), Schedule.parse("Dynamic,1"))

    Parameters
    ----------
    task_fn:
        Callable computing a single task.
    n_workers:
        Number of workers.
    backend:
        ``process``, ``thread`` or ``serial``.
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
        self.backend = Backend(backend) if not isinstance(backend, Backend) else backend
        self._pool: Any = None
        self._thread_pool: ThreadPoolExecutor | None = None

    # -- lifecycle ------------------------------------------------------------------

    def __enter__(self) -> "ScheduledExecutor":
        if self.backend is Backend.PROCESS:
            _set_worker_task(self.task_fn, self.batch_fn, self.cost_hint)
            context = mp.get_context("fork")
            self._pool = context.Pool(processes=self.n_workers)
        elif self.backend is Backend.THREAD:
            self._thread_pool = ThreadPoolExecutor(max_workers=self.n_workers)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pools down deterministically (idempotent).

        Equivalent to leaving the ``with`` block: worker processes are
        terminated and joined, thread pools shut down, and the module-level
        task slots cleared.  Exposed so pool-backed executors can be torn
        down at a well-defined point instead of relying on interpreter
        ``atexit`` ordering (which leaks worker processes under pytest).
        """
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=True)
            self._thread_pool = None
        _set_worker_task(None)

    # -- execution ------------------------------------------------------------------

    def run(self, task_indices: Sequence[int], schedule: Schedule) -> TaskRunResult:
        """Execute the given tasks under the schedule and collect the results."""
        indices = [int(i) for i in task_indices]
        start = wall_clock()

        if self.backend is Backend.SERIAL or self.n_workers == 1:
            chunks = [indices] if indices else []
            raw = [self._execute_local(chunk) for chunk in chunks]
        elif self.backend is Backend.PROCESS:
            raw, chunks = self._run_process(indices, schedule)
        else:
            raw, chunks = self._run_thread(indices, schedule)

        wall = wall_clock() - start
        return collect_chunk_results(
            raw, indices, wall, len(chunks), self.n_workers, schedule.label(),
            self.backend.value,
        )

    # -- backend internals ------------------------------------------------------------

    def _execute_local(self, chunk: Sequence[int]) -> list[tuple[int, Any, float]]:
        """Chunk runner for the serial and thread backends (no globals needed)."""
        return _execute_chunk(self.task_fn, self.batch_fn, self.cost_hint, chunk)

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

    def _run_process(
        self, indices: list[int], schedule: Schedule
    ) -> tuple[list[list[tuple[int, Any, float]]], list[list[int]]]:
        if self._pool is None:
            raise ParallelExecutionError(
                "the process backend must be used as a context manager (with ... as ex:)"
            )
        chunks = self._chunks_for(indices, schedule)
        if not chunks:
            return [], []
        if schedule.kind is ScheduleKind.STATIC:
            # One submission per worker: the partition is fixed up front.
            async_results = [self._pool.apply_async(_run_chunk, (chunk,)) for chunk in chunks]
            return [r.get() for r in async_results], chunks
        # Dynamic / guided: workers pull the next chunk as they become idle.
        raw = list(self._pool.imap_unordered(_run_chunk, chunks, chunksize=1))
        return raw, chunks

    def _run_thread(
        self, indices: list[int], schedule: Schedule
    ) -> tuple[list[list[tuple[int, Any, float]]], list[list[int]]]:
        if self._thread_pool is None:
            raise ParallelExecutionError(
                "the thread backend must be used as a context manager (with ... as ex:)"
            )
        chunks = self._chunks_for(indices, schedule)
        futures = [self._thread_pool.submit(self._execute_local, chunk) for chunk in chunks]
        return [future.result() for future in futures], chunks


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
