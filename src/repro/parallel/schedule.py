"""OpenMP-style loop schedules (static, dynamic, guided).

The paper's Table 6.2 compares how the iterations of the parallelised outer
assembly loop are distributed among processors using the OpenMP ``schedule``
clause.  This module reimplements those policies in a backend-agnostic way: a
:class:`Schedule` turns a number of tasks (loop cycles) into either

* a fixed per-worker assignment (:meth:`Schedule.static_assignment`), or
* an ordered sequence of chunks that idle workers grab one after the other
  (:meth:`Schedule.chunk_sequence`), which is how both the process-pool
  executor and the discrete-event simulator consume dynamic and guided
  schedules.

Semantics follow the OpenMP 3.0 specification the paper relied on:

``static`` (no chunk)
    Iterations are divided into ``n_workers`` contiguous blocks of (nearly)
    equal size, one per worker.
``static, c``
    Chunks of ``c`` consecutive iterations are assigned to workers round-robin.
``dynamic, c``
    Chunks of ``c`` iterations are handed to whichever worker becomes idle
    (first-come, first-served); default chunk is 1.
``guided, c``
    Like dynamic, but the chunk size is proportional to the remaining
    iterations divided by the number of workers and shrinks exponentially,
    never below ``c`` (default 1).  As in the widely deployed OpenMP runtimes
    of the paper's era (and matching the near-ideal guided speed-ups of the
    paper's Table 6.2), the proportionality factor used here is
    ``remaining / (2 · n_workers)``, which keeps the first chunk safely below
    an even share of the *work* even when the task costs decrease linearly
    across the iteration space, as they do in the BEM assembly triangle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.exceptions import ScheduleError

__all__ = ["ScheduleKind", "Schedule"]


class ScheduleKind(str, enum.Enum):
    """The three OpenMP scheduling policies studied by the paper."""

    STATIC = "static"
    DYNAMIC = "dynamic"
    GUIDED = "guided"


@dataclass(frozen=True)
class Schedule:
    """A loop schedule: policy plus optional chunk size.

    Parameters
    ----------
    kind:
        Scheduling policy.
    chunk:
        Chunk size; ``None`` reproduces the OpenMP default (block partition for
        static, 1 for dynamic and guided).
    """

    kind: ScheduleKind = ScheduleKind.DYNAMIC
    chunk: int | None = 1

    def __post_init__(self) -> None:
        if not isinstance(self.kind, ScheduleKind):
            object.__setattr__(self, "kind", ScheduleKind(str(self.kind).lower()))
        if self.chunk is not None:
            try:
                integral = float(self.chunk).is_integer()
            except (TypeError, ValueError):
                integral = False
            if not integral:
                raise ScheduleError(f"chunk size must be an integer, got {self.chunk!r}")
            chunk = int(float(self.chunk))
            if chunk < 1:
                raise ScheduleError(f"chunk size must be >= 1, got {self.chunk!r}")
            object.__setattr__(self, "chunk", chunk)

    # ------------------------------------------------------------------ constructors

    @classmethod
    def parse(cls, text: str) -> "Schedule":
        """Parse an OpenMP-style specification such as ``"Dynamic,1"`` or ``"Static"``."""
        parts = [p.strip() for p in str(text).split(",")]
        if not parts or not parts[0]:
            raise ScheduleError(f"cannot parse schedule specification {text!r}")
        try:
            kind = ScheduleKind(parts[0].lower())
        except ValueError as exc:
            raise ScheduleError(f"unknown schedule kind {parts[0]!r}") from exc
        chunk: int | None = None
        if len(parts) > 1 and parts[1]:
            try:
                chunk = int(parts[1])
            except ValueError as exc:
                raise ScheduleError(f"invalid chunk value {parts[1]!r}") from exc
        elif kind in (ScheduleKind.DYNAMIC, ScheduleKind.GUIDED):
            chunk = 1
        return cls(kind=kind, chunk=chunk)

    def label(self) -> str:
        """Human readable label in the style of the paper's Table 6.2."""
        name = self.kind.value.capitalize()
        if self.chunk is None:
            return name
        return f"{name},{self.chunk}"

    # ------------------------------------------------------------------ partitioning

    def static_assignment(self, n_tasks: int, n_workers: int) -> list[list[int]]:
        """Fixed task assignment of a static schedule.

        Returns one list of task indices per worker.  Raises for non-static
        schedules (their assignment depends on execution timing).
        """
        self._check_sizes(n_tasks, n_workers)
        if self.kind is not ScheduleKind.STATIC:
            raise ScheduleError("only static schedules have a fixed assignment")
        assignment: list[list[int]] = [[] for _ in range(n_workers)]
        if n_tasks == 0:
            return assignment
        if self.chunk is None:
            # Contiguous blocks of (nearly) equal size, as OpenMP's default static.
            block = int(math.ceil(n_tasks / n_workers))
            for worker in range(n_workers):
                start = worker * block
                stop = min(n_tasks, start + block)
                if start < stop:
                    assignment[worker] = list(range(start, stop))
            return assignment
        # Round-robin over chunks of the requested size.
        for chunk_index, start in enumerate(range(0, n_tasks, self.chunk)):
            worker = chunk_index % n_workers
            assignment[worker].extend(range(start, min(n_tasks, start + self.chunk)))
        return assignment

    def chunk_sequence(self, n_tasks: int, n_workers: int) -> list[list[int]]:
        """Ordered chunks that idle workers grab one after the other.

        For static schedules this still returns the chunk decomposition (in
        round-robin grab order) so that every backend can be driven through a
        single interface, but note that genuinely static execution should use
        :meth:`static_assignment`.
        """
        self._check_sizes(n_tasks, n_workers)
        if n_tasks == 0:
            return []
        if self.kind is ScheduleKind.GUIDED:
            minimum = self.chunk if self.chunk is not None else 1
            chunks: list[list[int]] = []
            next_task = 0
            remaining = n_tasks
            while remaining > 0:
                size = max(minimum, int(math.ceil(remaining / (2 * n_workers))))
                size = min(size, remaining)
                chunks.append(list(range(next_task, next_task + size)))
                next_task += size
                remaining -= size
            return chunks
        chunk = self.chunk if self.chunk is not None else (
            int(math.ceil(n_tasks / n_workers)) if self.kind is ScheduleKind.STATIC else 1
        )
        return [
            list(range(start, min(n_tasks, start + chunk)))
            for start in range(0, n_tasks, chunk)
        ]

    def n_chunks(self, n_tasks: int, n_workers: int) -> int:
        """Number of chunks the schedule produces (management-cost proxy)."""
        return len(self.chunk_sequence(n_tasks, n_workers))

    # ------------------------------------------------------------------ helpers

    @staticmethod
    def _check_sizes(n_tasks: int, n_workers: int) -> None:
        if n_tasks < 0:
            raise ScheduleError(f"the number of tasks cannot be negative, got {n_tasks}")
        if n_workers < 1:
            raise ScheduleError(f"at least one worker is required, got {n_workers}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label()
