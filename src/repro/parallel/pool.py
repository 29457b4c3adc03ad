"""Persistent worker pool: sharded-backend processes reused across assemblies.

The sharded hierarchical block backend of :mod:`repro.parallel.block_backend`
is a pure message-passing protocol — every task is a self-contained cluster
block, only plain arrays travel between master and workers.  Until now each
assembly paid the full price of that protocol's *setup*: a fresh ``fork`` of
the worker processes, pool construction and teardown, and cold worker-side
caches.  For one large solve that cost is noise; for a *campaign* of many
scenario assemblies (:mod:`repro.campaign`) it dominates the per-scenario
overhead — the ROADMAP's "persistent worker pool reused across assemblies
would amortise the fork+IPC cost of repeated sweeps".

:class:`WorkerPool` keeps the workers alive across assemblies:

* **spawn-once** — worker processes are forked when the pool is created and
  survive until :meth:`WorkerPool.close` (or the ``with`` block) ends; a
  caller that owns no pool opens a transient one around a single run;
* **task-queue protocol** — each run ships its task context — one per-task
  callable ``task(i)``, e.g. the block task capturing assembler, cluster
  tree and partition — to the workers once, then dispatches explicit shards,
  one chunk per shard: LPT shards of block ids for the block builder, or
  one-task shards naming the schedule chunks of the paper's column loop
  (:class:`~repro.parallel.executor.ScheduledExecutor`).  A worker streams a
  chunk's results back **one task per frame** as each task finishes (the
  message table is in :func:`_pool_worker_main`), so neither side ever holds
  a whole shard's pickled payload; the last task's frame closes the chunk,
  and the master folds finished chunks through :func:`collect_chunk_results`;
* **multi-run multiplexing** — :meth:`submit` registers a run and returns a
  handle without blocking; :meth:`service` advances one step of the event
  loop (dispatch queued shards, collect replies for *any* in-flight run);
  :meth:`result` folds a finished run.  A caller can also :meth:`take` a
  run's finished chunks while it is in flight (the paper's column loop folds
  them as they arrive); the run then keeps only each taken task's time.
  Job ids are unique over the pool's
  lifetime and every reply names its job, so shards of interleaved runs
  (concurrent campaign structure groups) route to the right run.  Workers
  hold one task context *per live run* (installed lazily, dropped when the
  run finishes), and each worker owns **at most one in-flight shard at a
  time** — dispatch order, per-worker chunk counters and hence the fault
  coordinates of :class:`~repro.resilience.FaultPlan` stay deterministic for
  any number of concurrent runs.  :meth:`run_partition` is ``submit`` +
  drain + ``result``, so single-run callers are unchanged;
* **resilience policy** (:class:`~repro.resilience.RetryPolicy`) — a worker
  that dies is detected through its broken pipe and respawned (bounded); a
  worker that holds a chunk past ``chunk_timeout`` is SIGKILLed as hung;
  every result frame carries a digest of its bytes, checked before anything
  is unpickled, so corrupted results are rejected instead of folded into the
  operator; every failed chunk (the unit of retry) is re-dispatched
  after a deterministic backoff, and once the retry budget is exhausted the
  pool walks the degradation ladder — disable the slot (shrink the pool),
  then execute the chunk serially in the master.  Because block tasks are
  pure functions of the block, every recovery path is bit-identical to the
  undisturbed execution, so the deterministic-reduction contract of the
  sharded backend survives the full failure zoo.  What happened is recorded
  in :attr:`WorkerPool.health` (a :class:`~repro.resilience.PoolHealth`);
* **fault injection** — a :class:`~repro.resilience.FaultPlan` passed at
  construction ships to the workers inside the task context; workers fire
  crashes/hangs/delays/corruptions at exact (worker, chunk) coordinates so
  the chaos suite can assert the contract above on demand;
* **serial fallback** — ``backend="serial"`` executes every shard in-process
  with the identical protocol semantics (used on platforms without ``fork``
  and as the deterministic reference in tests).

All fault handling flows through the single event loop below — no helper
threads, no signal-handler side channels — mirroring the event-driven
single-loop handling of asynchronous process events in non-threaded CCP
interpreters: one deterministic place observes deaths, deadlines and
payloads, and decides recovery.
"""

from __future__ import annotations

import multiprocessing as mp
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.exceptions import ParallelExecutionError
from repro.observe import MetricsRegistry, ensure_tracer
from repro.resilience import (
    DEFAULT_RETRY_POLICY,
    FaultInjector,
    FaultPlan,
    PoolHealth,
    RetryPolicy,
    corrupt_payload,
)
from repro.resilience.channel import (
    pause,
    recv_frame,
    recv_message,
    send_frame,
    wait_readable,
)
from repro.resilience.faults import execute_pre_fault
from repro.timing import wall_clock

__all__ = [
    "PoolJob",
    "TaskRunResult",
    "WorkerPool",
    "collect_chunk_results",
    "drive_pool_steps",
    "normalize_partition",
]

#: Seconds between liveness checks while waiting for shard results.
_POLL_SECONDS: float = 0.2

#: Default cap on worker respawns over a pool's lifetime.  Respawning is the
#: recovery path for *rare* deaths; a task that keeps killing its workers must
#: eventually stop consuming fresh processes — after the budget the slot is
#: disabled (``degrade="serial"``) or the run aborts (``degrade="raise"``).
DEFAULT_MAX_RESPAWNS: int = 8

#: Seconds granted at each escalation step of :meth:`WorkerPool.close`
#: (stop message → SIGTERM → SIGKILL).
DEFAULT_SHUTDOWN_GRACE: float = 5.0


# --------------------------------------------------------------------------- chunks and results


def _run_task(task_fn: Callable[[int], Any], index: int) -> tuple[int, Any, float]:
    """Execute one task, timed on its own: ``(index, value, seconds)``."""
    start = wall_clock()
    value = task_fn(int(index))
    return int(index), value, wall_clock() - start


def _execute_chunk(
    task_fn: Callable[[int], Any], indices: Sequence[int]
) -> list[tuple[int, Any, float]]:
    """Execute one chunk of tasks in this process (serial backend and fallback)."""
    return [_run_task(task_fn, index) for index in indices]


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

    Each entry is ``(task, value, seconds)``, or ``(task, seconds)`` for a
    task whose value was handed over already (:meth:`WorkerPool.take`): its
    time is kept, its value is not among the results.  Per-task results and
    timings are indexed back to the submission order, and a missing (or
    duplicated) task id fails loudly.
    """
    indices = [int(i) for i in indices]
    n_tasks = len(indices)
    results: dict[int, Any] = {}
    task_seconds = np.zeros(n_tasks)
    position = {task: k for k, task in enumerate(indices)}
    timed: set[int] = set()
    for chunk_output in raw:
        for entry in chunk_output:
            task_id = entry[0]
            if len(entry) == 3:
                results[task_id] = entry[1]
            timed.add(task_id)
            task_seconds[position[task_id]] = entry[-1]
    if len(timed) != n_tasks:
        raise ParallelExecutionError(
            f"scheduled run returned {len(timed)} results for {n_tasks} tasks"
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
    #: Per-task execution seconds measured inside the workers, each task timed
    #: on its own.  The scheduled executor's loop tasks carry their cost share
    #: of the schedule chunk they ran in (:func:`repro.parallel.costs.timed_batch`).
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


def normalize_partition(
    partition: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[int]]:
    """Validate an explicit worker partition into ``(chunks, indices)``.

    Task ids are int-coerced, empty shards dropped, and a task assigned to
    more than one shard rejected.
    """
    chunks = [[int(i) for i in shard] for shard in partition]
    chunks = [chunk for chunk in chunks if chunk]
    indices = [index for chunk in chunks for index in chunk]
    if len(set(indices)) != len(indices):
        raise ParallelExecutionError(
            "partition assigns at least one task to more than one shard"
        )
    return chunks, indices


# --------------------------------------------------------------------------- pool steps
#
# Assembly pipelines that *may* run on a persistent WorkerPool are written as
# generators: master-side work (planning, regrouping, tracing) runs inline,
# and each pool dispatch is a yielded PoolJob request.  A plain driver
# (drive_pool_steps) turns a generator back into the blocking call the
# single-run API exposes, while a multiplexing scheduler (the campaign
# runner) can interleave the requests of several generators over one pool —
# cooperative coroutines over an event loop instead of threads, in the
# non-threaded concurrent style the pool's own loop already follows.


@dataclass
class PoolJob:
    """One pool-run request yielded by a generator-based assembly pipeline.

    Mirrors the :meth:`WorkerPool.run_partition` signature; the generator
    receives the :class:`TaskRunResult` back at the
    ``yield``.  The task callable obeys the same purity contract as direct
    dispatch (module-level, closure-free — MSG001).
    """

    task: Callable[[int], Any]
    partition: Sequence[Sequence[int]]
    label: str = "Pool"

    def run(self, pool: "WorkerPool") -> TaskRunResult:
        """Execute the request on ``pool``, blocking until it is done."""
        return pool.run_partition(self.task, self.partition, label=self.label)


def drive_pool_steps(steps, pool) -> Any:
    """Run a :class:`PoolJob`-yielding generator to completion, blocking.

    Every yielded request executes as one :meth:`WorkerPool.run_partition`
    call on ``pool`` and its :class:`TaskRunResult`
    is sent back into the generator; the generator's return value is
    returned.  A pipeline that never dispatches (``pool is None`` branches
    handled inside the generator) simply runs to its ``return``.
    """
    try:
        request = next(steps)
    except StopIteration as stop:
        return stop.value
    while True:
        outcome = request.run(pool)
        try:
            request = steps.send(outcome)
        except StopIteration as stop:
            return stop.value


def _pool_worker_main(
    worker_id: int, generation: int, connection, stale_connections
) -> None:
    """Long-lived worker loop: receive contexts and shard chunks, stream results.

    Messages from the master (pickled tuples, first element is the kind):

    ``("context", seq, task_fn, fault_plan, verify)``
        Install task context ``seq``: the run's per-task callable (one per
        live run; a worker can hold several at once while runs are
        multiplexed).  ``seq == 0`` clears every held context.  A non-empty
        ``fault_plan`` arms the deterministic fault injector (once per
        process — the injector's chunk counter spans every later run).
        ``verify`` asks for a real digest on every result frame of that
        context (16 zero bytes otherwise).
    ``("drop", seq)``
        Forget context ``seq`` (its run finished; other contexts survive).
    ``("run", job_id, dispatch_id, seq, indices)``
        Execute one shard chunk under context ``seq``, one task at a time
        through the shared :func:`_run_task`.  ``dispatch_id`` names this
        attempt of the chunk; a retried chunk gets a fresh one.
    ``("stop",)``
        Exit the loop.

    Replies are frames, ``blake2b-16 digest ‖ pickle(message)``, one per
    finished task (see :mod:`repro.resilience.channel`):

    ``("part", job_id, dispatch_id, is_last, [(index, value, seconds)])``
        One task's result, pickled once; the digest covers those exact
        bytes.  ``is_last`` marks the chunk's final task, so a one-task
        chunk costs one frame.
    ``("error", job_id, dispatch_id, text)``
        A task raised (earlier frames of the chunk may have been sent), or
        the context is unknown (a master bug).  Always digested.

    ``generation`` counts how many processes have occupied this slot before
    (0 for the original spawn); the fault injector uses it so injected
    crashes fire in the original process only (except ``respawn_crash``).
    """
    # A forked child inherits the master ends of every live pipe — its own
    # and those of every earlier worker.  Close them all: a sibling's death
    # must reach the master as a broken pipe, and the master's own death must
    # reach *this* worker as EOF on recv (an inherited copy of our master end
    # would keep the pipe open forever and orphan the worker).
    for stale in stale_connections:
        try:
            stale.close()
        except OSError:  # pragma: no cover - already closed
            pass
    contexts: dict[int, tuple[Any, bool]] = {}
    injector: FaultInjector | None = None
    while True:
        try:
            message = recv_message(connection)
        except (EOFError, OSError):  # master is gone
            break
        kind = message[0]
        if kind == "stop":
            break
        if kind == "context":
            _, seq, task_fn, fault_plan, verify = message
            if seq == 0:
                contexts.clear()
                continue
            contexts[seq] = (task_fn, verify)
            if injector is None and fault_plan is not None and not fault_plan.is_empty:
                injector = FaultInjector(fault_plan, worker_id, generation)
            continue
        if kind == "drop":
            contexts.pop(message[1], None)
            continue
        if kind != "run":  # pragma: no cover - defensive
            send_frame(connection, ("error", -1, -1, f"unknown message kind {kind!r}"), True)
            continue
        _, job_id, dispatch_id, seq, indices = message
        context = contexts.get(seq)
        if context is None:
            send_frame(
                connection,
                ("error", job_id, dispatch_id, f"worker {worker_id} does not hold context {seq}"),
                True,
            )
            continue
        task_fn, verify = context
        firing = injector.next_chunk() if injector is not None else None
        if firing is not None:
            execute_pre_fault(firing)  # crash/hang faults never return
        last = len(indices) - 1
        for position, index in enumerate(indices):
            try:
                part = [_run_task(task_fn, index)]
            except BaseException:
                send_frame(
                    connection, ("error", job_id, dispatch_id, traceback.format_exc()), True
                )
                break
            reply = ("part", job_id, dispatch_id, position == last, part)
            damaged = None
            if position == 0 and firing is not None and firing.kind == "corrupt":
                # Sent under the intact reply's digest: damage in flight that
                # the master's verification must catch.
                damaged = reply[:4] + (
                    corrupt_payload(part, injector.plan.seed, worker_id, firing.chunk),
                )
            send_frame(connection, reply, verify, damaged)


class _WorkerHandle:
    """One pool worker: its process, pipe and currently installed contexts."""

    __slots__ = ("process", "connection", "context_seqs")

    def __init__(self, process, connection) -> None:
        self.process = process
        self.connection = connection
        self.context_seqs: set[int] = set()


class _Dispatch:
    """One dispatched shard: its slot, task ids, attempt id and frames so far."""

    __slots__ = ("slot", "chunk", "dispatch_id", "parts")

    def __init__(self, slot: int, chunk: list[int], dispatch_id: int) -> None:
        self.slot = slot
        self.chunk = chunk
        self.dispatch_id = dispatch_id
        self.parts: list[tuple[int, Any, float]] = []


class _PoolRun:
    """One in-flight :meth:`WorkerPool.submit` run.

    Callers treat it as an opaque handle: poll :attr:`done` between
    :meth:`WorkerPool.service` steps (taking finished chunks with
    :meth:`WorkerPool.take` if they like), then fold with
    :meth:`WorkerPool.result`.
    """

    __slots__ = (
        "seq",
        "task",
        "label",
        "chunks",
        "indices",
        "job_ids",
        "chunk_of",
        "raw",
        "untaken",
        "error",
        "done",
        "started",
        "wall",
    )

    def __init__(self, seq, task, label, chunks, indices):
        self.seq = seq
        self.task = task
        self.label = label
        self.chunks = chunks
        self.indices = indices
        self.job_ids: list[int] = []
        self.chunk_of: dict[int, list[int]] = {}
        #: Finished chunk outputs by job id; a taken chunk keeps ``(task, seconds)``.
        self.raw: dict[int, list[tuple]] = {}
        #: Job ids of finished chunks not yet taken, in finishing order.
        self.untaken: list[int] = []
        self.error: BaseException | None = None
        self.done = False
        self.started = 0.0
        self.wall = 0.0


class WorkerPool:
    """Spawn-once pool of block-task workers shared across assemblies.

    Use as a context manager (or call :meth:`close` explicitly) so the worker
    processes are torn down deterministically::

        with WorkerPool(n_workers=4) as pool:
            system_a = assemble_system(mesh_a, soil, options=opts, pool=pool)
            system_b = assemble_system(mesh_b, soil, options=opts, pool=pool)

    Parameters
    ----------
    n_workers:
        Number of persistent workers (>= 1).
    backend:
        ``"process"`` (default) forks long-lived worker processes;
        ``"serial"`` executes every shard in the calling process with the same
        protocol semantics (fallback for fork-less platforms and tests; the
        resilience policy and fault plan do not apply to it).
    max_respawns:
        Total worker respawns (>= 0) tolerated over the pool's lifetime before a
        dying slot is disabled (``retry.degrade == "serial"``) or the run
        aborts (``"raise"``).
    retry:
        The :class:`~repro.resilience.RetryPolicy` governing chunk deadlines,
        retry/backoff, payload verification and the degradation ladder.
        Defaults to :data:`~repro.resilience.DEFAULT_RETRY_POLICY`.
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan` armed in the workers
        (chaos testing); ``None`` injects nothing.
    tracer:
        Optional :class:`~repro.observe.Tracer`.  An enabled tracer receives
        one *event* per dispatch/result/retry/respawn/timeout/fallback with
        volatile ``slot``/``job``/``t`` coordinates (scheduling facts, never
        part of the deterministic span projection), and the pool's counters
        are kept in the tracer's shared :class:`~repro.observe.MetricsRegistry`
        under ``pool.*`` names.  Defaults to the no-op tracer.
    """

    def __init__(
        self,
        n_workers: int,
        backend: str = "process",
        max_respawns: int = DEFAULT_MAX_RESPAWNS,
        retry: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        tracer=None,
    ) -> None:
        if n_workers < 1:
            raise ParallelExecutionError(f"n_workers must be >= 1, got {n_workers}")
        if max_respawns < 0:
            raise ParallelExecutionError(f"max_respawns must be >= 0, got {max_respawns}")
        if backend not in ("process", "serial"):
            raise ParallelExecutionError(
                f"WorkerPool backend must be 'process' or 'serial', got {backend!r}"
            )
        self.n_workers = int(n_workers)
        self.backend = backend
        self.max_respawns = int(max_respawns)
        self.retry = DEFAULT_RETRY_POLICY if retry is None else retry
        self.fault_plan = fault_plan
        self.health = PoolHealth()
        self.shutdown_grace = DEFAULT_SHUTDOWN_GRACE
        self._workers: list[_WorkerHandle | None] = [None] * self.n_workers
        self._spawn_counts = [0] * self.n_workers
        self._disabled: set[int] = set()
        self._context_seq = 0
        self._job_counter = 0
        self._dispatch_counter = 0
        self._closed = False
        # Event-loop state shared by every in-flight run.
        self._runs: dict[int, _PoolRun] = {}
        self._job_run: dict[int, _PoolRun] = {}
        self._pending: dict[int, _Dispatch] = {}
        self._slot_job: dict[int, int] = {}
        self._deadlines: dict[int, float] = {}
        self._attempts: dict[int, int] = {}
        self._ready: deque[tuple[int, int | None]] = deque()
        self.tracer = ensure_tracer(tracer)
        # An enabled tracer shares its registry so pool counters land in the
        # same snapshot as the campaign's; the NullTracer singleton's registry
        # is shared process-wide, so a silent pool gets a private one.
        self.metrics: MetricsRegistry = (
            self.tracer.metrics if self.tracer.enabled else MetricsRegistry()
        )
        self._run_start = 0.0
        for key in ("runs", "chunks_dispatched", "tasks_executed", "contexts_shipped"):
            self.metrics.counter(f"pool.{key}")  # pre-create: stats keys exist at zero
        if self.backend == "process":
            self._mp_context = mp.get_context("fork")
            for slot in range(self.n_workers):
                self._spawn(slot)

    @property
    def stats(self) -> dict[str, int]:
        """Lifetime execution counters merged with the health counters.

        The counters live in :attr:`metrics` under dotted ``pool.*`` names;
        this property strips the prefix to preserve the historical flat keys
        (``runs``, ``chunks_dispatched``, ...).
        """
        counters = {
            name[len("pool."):]: int(value)
            for name, value in self.metrics.counters_dict().items()
            if name.startswith("pool.")
        }
        return {**counters, **self.health.counters()}

    def _trace_event(self, name: str, /, **data: Any) -> None:
        """Emit one scheduling event (volatile coordinates + relative time)."""
        if self.tracer.enabled:
            data["t"] = round(wall_clock() - self._run_start, 6)
            self.tracer.event(name, **data)

    # ------------------------------------------------------------------ lifecycle

    def _spawn(self, slot: int) -> _WorkerHandle:
        """Fork a fresh worker into ``slot`` (initial spawn and respawn)."""
        parent_conn, child_conn = self._mp_context.Pipe(duplex=True)
        # Master-side pipe ends this fork will inherit — the other live
        # workers' and its own; the child closes them first thing (see
        # _pool_worker_main).
        stale = [h.connection for h in self._workers if h is not None] + [parent_conn]
        generation = self._spawn_counts[slot]
        self._spawn_counts[slot] += 1
        process = self._mp_context.Process(
            target=_pool_worker_main,
            args=(slot, generation, child_conn, stale),
            daemon=True,
            name=f"repro-pool-{slot}",
        )
        process.start()
        child_conn.close()  # the child owns its end; keeping a copy would mask EOF
        handle = _WorkerHandle(process, parent_conn)
        self._workers[slot] = handle
        return handle

    def _retire_handle(self, slot: int) -> None:
        """Close and join whatever process currently occupies ``slot``."""
        old = self._workers[slot]
        if old is None:
            return
        try:
            old.connection.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if old.process.is_alive():
            old.process.terminate()
        old.process.join(timeout=self.shutdown_grace)
        if old.process.is_alive():  # pragma: no cover - SIGTERM ignored
            old.process.kill()
            old.process.join(timeout=self.shutdown_grace)
        self._workers[slot] = None

    def _respawn_or_disable(self, slot: int) -> _WorkerHandle | None:
        """Replace a dead worker, or disable the slot once the budget is spent.

        Returns the fresh handle, or ``None`` when the slot was disabled
        (degradation step "shrink the pool").  With ``retry.degrade ==
        "raise"`` an exhausted budget aborts instead, preserving the
        fail-fast semantics of the pre-resilience pool.
        """
        if self.health.respawns >= self.max_respawns:
            if self.retry.degrade == "raise":
                raise ParallelExecutionError(
                    f"pool worker {slot} died and the respawn budget "
                    f"({self.max_respawns}) is exhausted"
                )
            self._disable_slot(slot)
            return None
        self.health.bump("respawns", slot=slot)
        self._trace_event("pool.respawn", slot=slot)
        self._retire_handle(slot)
        return self._spawn(slot)

    def _disable_slot(self, slot: int) -> None:
        """Permanently remove ``slot`` from the pool (budget exhausted)."""
        if slot in self._disabled:
            return
        self._disabled.add(slot)
        self.health.bump("disabled_slots", slot=slot)
        self._retire_handle(slot)

    def close(self) -> None:
        """Stop and join every worker, escalating to SIGKILL (idempotent).

        Each worker first gets a ``stop`` message and ``shutdown_grace``
        seconds to exit on its own, then SIGTERM, then SIGKILL — a hung
        worker (stuck in a task, ignoring SIGTERM) must never block
        interpreter exit or leak past the test process.
        """
        if self._closed:
            return
        self._closed = True
        for handle in self._workers:
            if handle is None:
                continue
            try:
                handle.connection.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for handle in self._workers:
            if handle is None:
                continue
            handle.process.join(timeout=self.shutdown_grace)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=self.shutdown_grace)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=self.shutdown_grace)
            try:
                handle.connection.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._workers = [None] * self.n_workers

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:  # contracts: disable=RES001 -- interpreter-teardown guard: __del__ must never raise
            pass

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def alive_workers(self) -> int:
        """Number of currently live worker processes (0 for the serial backend)."""
        return sum(
            1
            for handle in self._workers
            if handle is not None and handle.process.is_alive()
        )

    def active_slots(self) -> list[int]:
        """Slots still participating in dispatch (not disabled)."""
        return [slot for slot in range(self.n_workers) if slot not in self._disabled]

    # ------------------------------------------------------------------ execution

    def run_partition(
        self,
        task: Callable[[int], Any],
        partition: Sequence[Sequence[int]],
        label: str = "Pool",
    ) -> TaskRunResult:
        """Execute tasks under an explicit worker partition on the live pool.

        One shard per chunk, duplicate-assignment rejection, results folded
        into a :class:`TaskRunResult`.  The task
        context travels over the persistent workers' pipes instead of relying
        on fork-time inheritance, so one pool serves any number of assemblies.
        Shards beyond the active worker count are queued and dispatched as
        workers free up.  Worker deaths, hangs and corrupted payloads are
        recovered per the pool's :class:`~repro.resilience.RetryPolicy`;
        recoveries are bit-identical to the undisturbed execution because
        block tasks are pure.

        Equivalent to :meth:`submit` + :meth:`service` until done +
        :meth:`result`; use those directly to multiplex several runs over
        one pool.
        """
        run = self.submit(task, partition, label=label)
        while not run.done:
            self.service()
        return self.result(run)

    def submit(
        self,
        task: Callable[[int], Any],
        partition: Sequence[Sequence[int]],
        label: str = "Pool",
        pull: bool = False,
    ) -> _PoolRun:
        """Register a run and queue its shards; returns without blocking.

        The returned handle's ``done`` flag flips once every shard has been
        collected (drive the loop with :meth:`service`); fold it with
        :meth:`result`.  The serial backend executes inline, so the handle
        comes back already done (as does a run with no shards).

        By default shard ``position`` of every run is *pinned*: it prefers
        worker slot ``position % len(active)`` and **waits for that slot**
        rather than stealing an idle one, so per-worker chunk order (and with
        it the fault-injection coordinates and
        :class:`~repro.resilience.PoolHealth` counters) is a function of
        submit order alone, never of completion timing — the determinism
        contract for multiplexed runs.

        ``pull=True`` instead hands each shard, in order, to the first idle
        slot: the OpenMP ``dynamic``/``guided`` work-sharing of the paper's
        column loop.  Which worker runs which shard then depends on timing,
        but the results stay bitwise equal: every shard's output is a pure
        function of its shard, and the caller folds them by task id.
        """
        if self._closed:
            raise ParallelExecutionError("the worker pool is closed")
        chunks, indices = normalize_partition(partition)
        self.metrics.inc("pool.runs")
        self.metrics.inc("pool.chunks_dispatched", len(chunks))
        self.metrics.inc("pool.tasks_executed", len(indices))
        self._context_seq += 1
        run = _PoolRun(self._context_seq, task, label, chunks, indices)
        run.started = wall_clock()
        self._run_start = run.started
        for chunk in chunks:
            job_id = self._job_counter
            self._job_counter += 1
            run.job_ids.append(job_id)
            run.chunk_of[job_id] = chunk

        if self.backend == "serial" or not chunks:
            for job_id, chunk in zip(run.job_ids, run.chunks):
                run.raw[job_id] = _execute_chunk(task, chunk)
            run.untaken = list(run.job_ids)
            run.done = True
            run.wall = wall_clock() - run.started
            return run

        self._runs[run.seq] = run
        active = self.active_slots()
        for position, job_id in enumerate(run.job_ids):
            self._job_run[job_id] = run
            preferred = active[position % len(active)] if active and not pull else None
            self._ready.append((job_id, preferred))
        try:
            self._pump()
        except BaseException:
            self._abort_all()
            raise
        return run

    def service(self, timeout: float = _POLL_SECONDS) -> None:
        """Advance the event loop once: dispatch queued shards, collect replies.

        Waits up to ``timeout`` seconds for any in-flight worker to become
        readable, then drains ready replies, expires chunk deadlines and
        recovers dead workers.  Safe to call with nothing in flight (returns
        immediately).  All recovery (retry, respawn, degradation) happens
        here and in the dispatch path it triggers — callers multiplexing
        several runs just loop ``service()`` until their handles are done.
        """
        if self._closed or self.backend == "serial":
            return
        try:
            self._pump()
            if not self._pending:
                return
            connections: dict[Any, int] = {}
            for slot in self._slot_job:
                handle = self._workers[slot]
                if handle is not None:
                    connections[handle.connection] = slot
            ready = (
                wait_readable(list(connections), timeout=timeout)
                if connections
                else []
            )
            self._expire_deadlines()
            if not ready:
                self._recover_dead_workers()
            for connection in ready:
                self._drain(connections[connection], connection)
            self._pump()
        except BaseException:
            # Whatever aborted the loop (a task error re-raised by a caller,
            # an exhausted budget, an interrupt), workers still owning shards
            # must be replaced before the error propagates — see _fail_run.
            self._abort_all()
            raise

    def take(self, run: _PoolRun) -> list[list[tuple[int, Any, float]]]:
        """Hand over the run's chunk outputs finished since the last take.

        Each chunk comes whole and once, in finishing order, as soon as its
        last frame is recorded: a retried chunk's superseded frames are never
        part of it.  The run keeps only ``(task, seconds)`` of a taken chunk,
        so :meth:`result` still times every task but lists only the values
        nobody took.  Raises the run's error when it failed.
        """
        if run.error is not None:
            raise run.error
        taken = []
        for job_id in run.untaken:
            output = run.raw[job_id]
            run.raw[job_id] = [(task_id, elapsed) for task_id, _, elapsed in output]
            taken.append(output)
        run.untaken = []
        return taken

    def result(self, run: _PoolRun) -> TaskRunResult:
        """Fold a finished run into a :class:`TaskRunResult`.

        Raises the run's stored error when it failed (same exceptions
        :meth:`run_partition` would raise), or
        :class:`~repro.exceptions.ParallelExecutionError` when the run is
        still in flight.
        """
        if not run.done:
            raise ParallelExecutionError("pool run is still in flight")
        if run.error is not None:
            raise run.error
        raw = [run.raw[job_id] for job_id in run.job_ids]
        return collect_chunk_results(
            raw,
            run.indices,
            run.wall,
            len(run.chunks),
            self.n_workers,
            f"{run.label},{len(run.chunks)}",
            f"pool-{self.backend}",
        )

    # ------------------------------------------------------------------ process internals

    def _owns(self, slot: int, connection) -> bool:
        """Whether ``connection`` is still the live pipe of ``slot``."""
        handle = self._workers[slot]
        return handle is not None and handle.connection is connection

    def _drain(self, slot: int, connection) -> None:
        """Handle every frame a readable worker has queued (post-wait drain).

        Stops at the first empty poll, or as soon as handling a frame
        recycled the slot (its old pipe is closed then).
        """
        if not self._owns(slot, connection):
            return  # the slot was recycled while an earlier slot drained
        while True:
            try:
                message = recv_frame(connection, self.retry.verify_payloads)
            except (EOFError, OSError):
                self._fail_slot_job(slot, "worker_died")
                return
            if message is None:
                self._reject_frame(slot)
            else:
                self._handle_message(slot, message)
            if not (self._owns(slot, connection) and connection.poll(0)):
                return

    def _install_context(self, handle: _WorkerHandle, run: _PoolRun) -> None:
        """Ship one run's task context to one worker (if not already held)."""
        if run.seq in handle.context_seqs:
            return
        handle.connection.send(
            ("context", run.seq, run.task, self.fault_plan, self.retry.verify_payloads)
        )
        handle.context_seqs.add(run.seq)
        self.metrics.inc("pool.contexts_shipped")

    def _serial_chunk(self, run: _PoolRun, chunk: list[int]) -> list[tuple[int, Any, float]]:
        """Execute one shard in the master (bottom of the degradation ladder).

        Runs each task through the same :func:`_run_task` a worker does, so
        a degraded chunk is bit-identical to the parallel one.
        """
        return _execute_chunk(run.task, chunk)

    def _pick_slot(self, preferred: int | None, idle: list[int]) -> int:
        """Choose the worker for a dispatchable shard among the ``idle`` slots.

        An enabled ``preferred`` slot (idle: :meth:`_pump` keeps shards
        pinned to a busy slot queued) is honoured; a disabled or absent
        preference takes the first idle slot.
        """
        if preferred is not None and preferred not in self._disabled:
            return preferred
        return idle[0]

    def _pump(self) -> None:
        """Dispatch every queued shard whose worker is free (FIFO scan).

        Shards blocked on a busy preferred slot stay queued; shards with no
        active slot left fall to the degradation ladder (serial in the
        master, or fail the run under ``degrade="raise"``).  The scan stops
        as soon as every active slot is busy, and a shard pinned to a busy
        slot is passed over without a slot choice, so one pump costs what it
        dispatches, not the length of the queue.
        """
        remaining: deque[tuple[int, int | None]] = deque()
        while self._ready:
            active = self.active_slots()
            idle = [slot for slot in active if slot not in self._slot_job]
            if active and not idle:
                break  # every worker is busy: nothing further can dispatch
            job_id, preferred = self._ready.popleft()
            run = self._job_run.get(job_id)
            if run is None:
                continue  # its run already failed; the entry is stale
            if not active:
                if self.retry.degrade == "raise":
                    self._fail_run(
                        run, ParallelExecutionError("no active pool workers left")
                    )
                    continue
                chunk = run.chunk_of[job_id]
                self.health.bump(
                    "serial_fallback_chunks", job=job_id, reason="no_active_workers"
                )
                self._trace_event(
                    "pool.serial_fallback", job=job_id, reason="no_active_workers"
                )
                try:
                    output = self._serial_chunk(run, chunk)
                except Exception as error:
                    self._fail_run(run, error)
                    continue
                self._record_result(run, job_id, output)
                continue
            if preferred in self._slot_job and preferred not in self._disabled:
                # Pinned to a busy slot: wait for it, never steal an idle one
                # (see submit for why).
                remaining.append((job_id, preferred))
                continue
            slot = self._pick_slot(preferred, idle)
            # Bookkeeping lands before the dispatch: a budget-exhaustion
            # raise inside must leave the job pending so _fail_run replaces
            # the slot that owned it, keeping the pool reusable.
            self._pending[job_id] = _Dispatch(
                slot, run.chunk_of[job_id], self._dispatch_counter
            )
            self._dispatch_counter += 1
            self._slot_job[slot] = job_id
            try:
                dispatched = self._dispatch(slot, job_id, run)
            except ParallelExecutionError as error:
                self._fail_run(run, error)
                continue
            if not dispatched:
                # The dispatch disabled the slot; requeue with no preference.
                self._pending.pop(job_id, None)
                if self._slot_job.get(slot) == job_id:
                    del self._slot_job[slot]
                self._ready.append((job_id, None))
                continue
            if self.retry.chunk_timeout is not None:
                self._deadlines[job_id] = wall_clock() + self.retry.chunk_timeout
        remaining.extend(self._ready)
        self._ready = remaining

    def _dispatch(self, slot: int, job_id: int, run: _PoolRun) -> bool:
        """Send one shard to one worker, respawning through send failures.

        Returns ``False`` when the slot got disabled instead (the caller must
        route the shard elsewhere).
        """
        entry = self._pending[job_id]
        while True:
            if slot in self._disabled:
                return False
            handle = self._workers[slot]
            if handle is None or not handle.process.is_alive():
                handle = self._respawn_or_disable(slot)
                if handle is None:
                    return False
            try:
                self._install_context(handle, run)
                handle.connection.send(
                    ("run", job_id, entry.dispatch_id, run.seq, entry.chunk)
                )
                self._trace_event(
                    "pool.dispatch", slot=slot, job=job_id, tasks=len(entry.chunk)
                )
                return True
            except (BrokenPipeError, OSError):
                if handle.process.is_alive():  # pragma: no cover - defensive
                    handle.process.terminate()
                handle.process.join(timeout=self.shutdown_grace)
                continue  # _respawn_or_disable picks it up on the next pass

    def _release_job(self, job_id: int) -> None:
        """Drop one job's in-flight bookkeeping (its slot becomes idle)."""
        entry = self._pending.pop(job_id, None)
        if entry is not None and self._slot_job.get(entry.slot) == job_id:
            del self._slot_job[entry.slot]
        self._deadlines.pop(job_id, None)

    def _record_result(self, run: _PoolRun, job_id: int, output) -> None:
        """Fold one shard's payload; finish the run when it was the last."""
        run.raw[job_id] = output
        run.untaken.append(job_id)
        if len(run.raw) == len(run.job_ids):
            run.done = True
            run.wall = wall_clock() - run.started
            self._runs.pop(run.seq, None)
            for finished in run.job_ids:
                self._job_run.pop(finished, None)
                self._attempts.pop(finished, None)
            self._drop_context(run.seq)

    def _handle_message(self, slot: int, message: tuple) -> None:
        """Route one verified worker frame: a task's part or a task error."""
        kind, job_id, dispatch_id = message[:3]
        entry = self._pending.get(job_id)
        if entry is None or entry.slot != slot or entry.dispatch_id != dispatch_id:
            # A frame of a superseded dispatch (a retried chunk) or of an
            # aborted run: dropped, never folded.
            self._trace_event("pool.stale_frame", job=job_id, slot=slot)
            return
        run = self._job_run[job_id]
        if kind == "error":
            # The reporting worker is healthy and idle again; only workers
            # still *holding* shards of the failed run get replaced.
            self._release_job(job_id)
            self._fail_run(
                run,
                ParallelExecutionError(f"pool worker {slot} failed:\n{message[3]}"),
            )
            return
        entry.parts.extend(message[4])
        if not message[3]:
            return  # more frames of this chunk follow
        self._trace_event("pool.result", job=job_id, slot=slot)
        self._release_job(job_id)
        self._record_result(run, job_id, entry.parts)

    def _reject_frame(self, slot: int) -> None:
        """A frame failed its digest: fail the slot's chunk (retry or degrade).

        The damaged bytes are never unpickled, so the job is the one the
        slot owns (each worker holds at most one chunk).  The worker keeps
        streaming the rest of that dispatch, and the retry is queued behind
        it on the same slot: those frames arrive first and are dropped as
        stale, so the retry's deadline also covers their tail.
        """
        job_id = self._slot_job.get(slot)
        if job_id is None:
            return
        self.health.bump("corrupt_rejections", job=job_id, slot=slot)
        self._trace_event("pool.corrupt", job=job_id, slot=slot)
        self._fail_job(job_id, "corrupt_payload")

    def _fail_job(self, job_id: int, reason: str) -> None:
        """One chunk failed (death, hang, corruption): retry or degrade.

        Retries are requeued toward the failed slot after the policy's
        deterministic backoff; a chunk out of retries is executed serially in
        the master (``degrade="serial"``) or fails its run (``"raise"``).
        """
        entry = self._pending.get(job_id)
        if entry is None:
            return
        slot, chunk = entry.slot, entry.chunk
        run = self._job_run[job_id]
        self._attempts[job_id] = self._attempts.get(job_id, 0) + 1
        failures = self._attempts[job_id]
        if failures > self.retry.max_retries:
            if self.retry.degrade == "raise":
                # The job stays pending so _fail_run replaces the worker
                # that owned it, keeping the pool reusable.
                self._fail_run(
                    run,
                    ParallelExecutionError(
                        f"pool shard (job {job_id}) failed {failures} times "
                        f"(last reason: {reason}); retry budget "
                        f"({self.retry.max_retries}) exhausted"
                    ),
                )
                return
            self._release_job(job_id)
            self.health.bump("serial_fallback_chunks", job=job_id, reason=reason)
            self._trace_event("pool.serial_fallback", job=job_id, reason=reason)
            try:
                output = self._serial_chunk(run, chunk)
            except Exception as error:
                self._fail_run(run, error)
                return
            self._record_result(run, job_id, output)
            return
        self._release_job(job_id)
        self.health.bump("retries", job=job_id, slot=slot, reason=reason, attempt=failures)
        self._trace_event(
            "pool.retry", job=job_id, slot=slot, reason=reason, attempt=failures
        )
        pause(self.retry.backoff_delay(failures - 1))
        self._ready.appendleft((job_id, slot))

    def _fail_run(self, run: _PoolRun, error: BaseException) -> None:
        """Fail one run: purge its jobs and replace workers still holding them.

        A failed run abandons its outstanding shards; their workers would
        eventually block sending large results nobody reads, and a later
        run's blocking context send to such a worker would deadlock.  Fresh
        workers keep the pool serving its *other* in-flight runs and later
        submissions.  These are deliberate replacements, not crash
        recoveries, so they bypass the respawn budget (disabled slots stay
        disabled).
        """
        if run.done:
            return
        run.error = error
        run.done = True
        run.wall = wall_clock() - run.started
        self._runs.pop(run.seq, None)
        owner_slots: set[int] = set()
        for job_id in run.job_ids:
            entry = self._pending.pop(job_id, None)
            if entry is not None:
                owner_slots.add(entry.slot)
                if self._slot_job.get(entry.slot) == job_id:
                    del self._slot_job[entry.slot]
            self._deadlines.pop(job_id, None)
            self._attempts.pop(job_id, None)
            self._job_run.pop(job_id, None)
        if self._ready:
            self._ready = deque(
                item for item in self._ready if item[0] in self._job_run
            )
        for slot in sorted(owner_slots):
            if slot in self._disabled:
                continue
            self._retire_handle(slot)
            self._spawn(slot)
        self._drop_context(run.seq)

    def _fail_slot_job(self, slot: int, reason: str) -> None:
        """Fail the shard owned by one lost worker (at most one per slot)."""
        job_id = self._slot_job.get(slot)
        if job_id is not None and job_id in self._pending:
            self._fail_job(job_id, reason)

    def _kill_hung_worker(self, slot: int) -> None:
        """SIGKILL a worker that held a chunk past its deadline."""
        handle = self._workers[slot]
        if handle is None:
            return
        if handle.process.is_alive():
            self.health.bump("hung_kills", slot=slot)
            handle.process.kill()
        handle.process.join(timeout=self.shutdown_grace)

    def _expire_deadlines(self) -> None:
        """Kill workers holding chunks past their deadline; retry the chunks."""
        now = wall_clock()
        expired = sorted(
            job_id
            for job_id, deadline in self._deadlines.items()
            if deadline <= now and job_id in self._pending
        )
        for job_id in expired:
            if job_id not in self._pending:
                continue  # failed alongside an earlier expiry
            if self._deadlines.get(job_id, now + 1.0) > now:
                continue  # re-dispatched meanwhile: a fresh deadline applies
            slot = self._pending[job_id].slot
            self.health.bump("chunk_timeouts", job=job_id, slot=slot)
            self._trace_event("pool.timeout", job=job_id, slot=slot)
            self._kill_hung_worker(slot)
            self._fail_slot_job(slot, "chunk_timeout")

    def _recover_dead_workers(self) -> None:
        """Fail the shards of workers that died while owning them."""
        for slot in sorted(self._slot_job):
            handle = self._workers[slot]
            if handle is None or not handle.process.is_alive():
                self._fail_slot_job(slot, "worker_died")

    def _drop_context(self, seq: int) -> None:
        """Tell workers to forget a finished run's task context.

        The context captures a whole assembly (assembler arrays, cluster
        tree); without the drop every idle worker would pin that footprint
        until the pool closes.  With no other run in flight the cheaper
        clear-all message resets every worker instead.  Sequence 0 is never
        a real context id (``_context_seq`` pre-increments from 0), so a
        stale ``run`` message can never match a cleared slot.
        """
        if not self._runs:
            self._clear_worker_contexts()
            return
        for handle in self._workers:
            if handle is None or seq not in handle.context_seqs:
                continue
            try:
                handle.connection.send(("drop", seq))
            except (BrokenPipeError, OSError):
                pass  # dead worker: lazily respawned at the next dispatch
            handle.context_seqs.discard(seq)

    def _clear_worker_contexts(self) -> None:
        """Clear every held context on every worker (no run in flight)."""
        for handle in self._workers:
            if handle is None or not handle.context_seqs:
                continue
            try:
                handle.connection.send(("context", 0, None, None, False))
            except (BrokenPipeError, OSError):
                pass  # dead worker: lazily respawned at the next dispatch
            handle.context_seqs.clear()

    def _abort_all(self) -> None:
        """Fail every in-flight run (an exception is propagating past the loop)."""
        for run in list(self._runs.values()):
            self._fail_run(run, ParallelExecutionError("pool run aborted"))
        self._ready.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkerPool(n_workers={self.n_workers}, backend={self.backend!r}, "
            f"alive={self.alive_workers()}, closed={self._closed})"
        )
