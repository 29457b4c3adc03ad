"""Parallel execution of the BEM matrix generation (the paper's Section 6).

The dominant cost of the layered-soil analysis is the generation of the dense
Galerkin matrix, organised as a triangular double loop over element pairs.  The
paper parallelises the *outer* loop (the columns of the triangle) with OpenMP
compiler directives on a 64-processor SGI Origin 2000 and studies how the
static / dynamic / guided schedules and their chunk sizes affect the speed-up.

This sub-package reproduces that study with two complementary back-ends:

* **real execution** (:mod:`repro.parallel.executor`,
  :mod:`repro.parallel.parallel_assembly`) — the outer-loop column tasks are
  distributed over the worker processes of a
  :class:`~repro.parallel.pool.WorkerPool` following the same schedule
  semantics as OpenMP (``static`` chunks pinned to workers, ``dynamic`` /
  ``guided`` chunks pulled by idle workers, with an optional chunk size),
  with the final assembly of the elemental blocks performed serially by the
  master exactly as the paper restructures its loop.  The pool is the one
  process runtime of the package: the hierarchical block builder and the
  campaigns run on it too;
* **simulated execution** (:mod:`repro.parallel.simulator`) — a discrete-event
  simulator of a shared-memory multiprocessor replays the *measured* per-column
  costs under any schedule and any processor count (e.g. the 1–64 processors of
  the paper's Fig. 6.1), so schedule behaviour can be explored beyond the
  physical cores of the host.  The machine model carries the per-chunk dispatch
  overhead that makes ``Dynamic,1`` slightly more expensive to manage than
  larger chunks, as discussed in the paper.

The schedule implementations are shared by both back-ends, so a simulated
result can be validated against a real run on the processor counts available
locally.  The studies that combine them — the paper's Fig. 6.1 and Tables
6.2/6.3, and the hierarchical block builder's worker scaling — live in
:mod:`repro.experiments.scaling`.
"""

from repro.parallel.options import ParallelOptions
from repro.parallel.costs import analytic_column_costs, scale_costs
from repro.parallel.schedule import Schedule, ScheduleKind
from repro.timing import PhaseTimer, Timer
from repro.parallel.machine import MachineModel
from repro.parallel.simulator import ScheduleSimulator, SimulationResult
from repro.parallel.executor import run_scheduled_tasks
from repro.parallel.parallel_assembly import assemble_system_parallel
from repro.parallel.pool import TaskRunResult, WorkerPool

__all__ = [
    "WorkerPool",
    "ParallelOptions",
    "analytic_column_costs",
    "scale_costs",
    "Schedule",
    "ScheduleKind",
    "Timer",
    "PhaseTimer",
    "MachineModel",
    "ScheduleSimulator",
    "SimulationResult",
    "run_scheduled_tasks",
    "TaskRunResult",
    "assemble_system_parallel",
]
