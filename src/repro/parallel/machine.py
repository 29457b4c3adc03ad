"""Shared-memory multiprocessor model used by the schedule simulator.

The paper runs on an SGI Origin 2000: 64 MIPS R10000 processors at 250 MHz
organised in 2-processor nodes connected by a hypercube network, programmed as
a shared-memory machine through OpenMP directives.  For the purpose of the
schedule study the relevant machine characteristics are not the
micro-architecture but the *costs of managing the parallel loop*:

* a per-chunk dispatch overhead (grabbing the next chunk from the shared
  iteration counter) — this is why ``Dynamic,1`` "requires the biggest amount
  of parallelization management";
* a fork/join overhead per parallel region;
* an optional per-worker start-up skew.

:class:`MachineModel` captures those knobs; the defaults of
:meth:`MachineModel.origin2000` are chosen so that the simulated Table 6.2
reproduces the paper's qualitative behaviour (near-linear speed-ups for
dynamic/guided schedules with small chunks, visible degradation for static
schedules with large chunks and many processors).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ScheduleError

__all__ = ["MachineModel"]


@dataclass(frozen=True)
class MachineModel:
    """Cost model of a shared-memory multiprocessor running a scheduled loop.

    Parameters
    ----------
    n_processors:
        Number of processors available to the parallel region.
    chunk_dispatch_overhead:
        Seconds charged to a processor every time it grabs a chunk from the
        shared schedule state.
    fork_join_overhead:
        Seconds charged once per parallel region (thread team start + barrier).
    per_task_overhead:
        Seconds charged per loop iteration (bookkeeping inside the chunk).
    relative_speed:
        Multiplier applied to every task cost (1.0 = same speed as the machine
        where the costs were measured).
    """

    n_processors: int
    chunk_dispatch_overhead: float = 5.0e-6
    fork_join_overhead: float = 5.0e-5
    per_task_overhead: float = 0.0
    relative_speed: float = 1.0

    def __post_init__(self) -> None:
        if self.n_processors < 1:
            raise ScheduleError(f"a machine needs at least one processor, got {self.n_processors}")
        overheads = (
            self.chunk_dispatch_overhead,
            self.fork_join_overhead,
            self.per_task_overhead,
        )
        # NaN fails every comparison, so finiteness is checked explicitly.
        if not all(math.isfinite(value) and value >= 0 for value in overheads):
            raise ScheduleError(f"overheads must be finite and non-negative, got {overheads}")
        if not (math.isfinite(self.relative_speed) and self.relative_speed > 0):
            raise ScheduleError(
                f"relative_speed must be finite and positive, got {self.relative_speed}"
            )

    @classmethod
    def origin2000(cls, n_processors: int = 64) -> "MachineModel":
        """A 64-processor Origin-2000-like machine (the paper's platform).

        The overheads are representative of an OpenMP runtime on hardware of
        that era (a few microseconds to grab a chunk, tens of microseconds to
        fork/join a team); they only matter relative to the task durations.
        """
        return cls(
            n_processors=n_processors,
            chunk_dispatch_overhead=8.0e-6,
            fork_join_overhead=1.0e-4,
            per_task_overhead=0.0,
            relative_speed=1.0,
        )

    @classmethod
    def ideal(cls, n_processors: int) -> "MachineModel":
        """A machine with zero scheduling overheads (upper bound on speed-up)."""
        return cls(
            n_processors=n_processors,
            chunk_dispatch_overhead=0.0,
            fork_join_overhead=0.0,
            per_task_overhead=0.0,
        )

    def scaled_cost(self, cost: float) -> float:
        """Task cost on this machine given the measured cost on the reference host."""
        return float(cost) * self.relative_speed

    def with_processors(self, n_processors: int) -> "MachineModel":
        """Same machine with a different processor count."""
        return MachineModel(
            n_processors=int(n_processors),
            chunk_dispatch_overhead=self.chunk_dispatch_overhead,
            fork_join_overhead=self.fork_join_overhead,
            per_task_overhead=self.per_task_overhead,
            relative_speed=self.relative_speed,
        )
