"""User-facing options describing how to parallelise the matrix generation."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.exceptions import ScheduleError
from repro.parallel.schedule import Schedule, whole_number

__all__ = ["ParallelOptions"]


@dataclass(frozen=True)
class ParallelOptions:
    """How to run the matrix-generation loop in parallel.

    The outer (column) loop always runs on a
    :class:`~repro.parallel.pool.WorkerPool`: in the calling process for one
    worker, on forked worker processes otherwise.  The paper's inner-loop
    alternative is replayed by the schedule simulator
    (:meth:`~repro.parallel.simulator.ScheduleSimulator.run_inner_loop`).

    Parameters
    ----------
    n_workers:
        Number of workers (processors), a whole number; ``0`` (the default)
        means the machine's CPU count.
    schedule:
        Loop schedule (default ``Dynamic,1`` — the best performer in the
        paper's Table 6.2).
    """

    n_workers: int = 0
    schedule: Schedule = field(default_factory=Schedule)

    def __post_init__(self) -> None:
        workers = whole_number(self.n_workers)
        if workers is None or workers < 0:
            raise ScheduleError(
                f"n_workers must be a whole number >= 1 (0: every core), got {self.n_workers!r}"
            )
        object.__setattr__(self, "n_workers", workers or os.cpu_count() or 1)
        if not isinstance(self.schedule, Schedule):
            object.__setattr__(self, "schedule", Schedule.parse(str(self.schedule)))
