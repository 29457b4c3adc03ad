"""User-facing options describing how to parallelise the matrix generation."""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field

from repro.exceptions import ScheduleError
from repro.parallel.schedule import Schedule

__all__ = ["Backend", "LoopLevel", "ParallelOptions"]


class Backend(str, enum.Enum):
    """Execution backend of the parallel loop."""

    #: Run everything in the calling process (useful as a baseline / debugging).
    SERIAL = "serial"
    #: Worker processes of a :class:`~repro.parallel.pool.WorkerPool`: true
    #: parallelism, the default.
    PROCESS = "process"


class LoopLevel(str, enum.Enum):
    """Which loop of the triangular element-pair structure is parallelised.

    The paper compares both options (Fig. 6.1): parallelising the *outer* loop
    distributes whole columns (much larger granularity and better speed-ups),
    parallelising the *inner* loop distributes the rows of one column at a time
    and pays a synchronisation at every column.  Real execution always runs
    the outer loop; the inner loop is replayed by the schedule simulator
    (:meth:`~repro.parallel.simulator.ScheduleSimulator.run_inner_loop`).
    """

    OUTER = "outer"
    INNER = "inner"


@dataclass(frozen=True)
class ParallelOptions:
    """How to run the matrix-generation loop in parallel.

    Parameters
    ----------
    n_workers:
        Number of workers (processors); defaults to the machine's CPU count.
    schedule:
        Loop schedule (default ``Dynamic,1`` — the best performer in the
        paper's Table 6.2).
    backend:
        ``process`` (default) or ``serial``.
    """

    n_workers: int = 0
    schedule: Schedule = field(default_factory=Schedule)
    backend: Backend = Backend.PROCESS

    def __post_init__(self) -> None:
        workers = int(self.n_workers) if self.n_workers else (os.cpu_count() or 1)
        if workers < 1:
            raise ScheduleError(f"n_workers must be >= 1, got {self.n_workers!r}")
        object.__setattr__(self, "n_workers", workers)
        if not isinstance(self.schedule, Schedule):
            object.__setattr__(self, "schedule", Schedule.parse(str(self.schedule)))
        if not isinstance(self.backend, Backend):
            object.__setattr__(self, "backend", Backend(str(self.backend).lower()))

    def describe(self) -> dict:
        """Compact description stored in result metadata."""
        return {
            "n_workers": self.n_workers,
            "schedule": self.schedule.label(),
            "backend": self.backend.value,
        }
