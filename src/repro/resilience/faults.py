"""Deterministic fault injection for the worker-pool protocol.

The resilience layer of :mod:`repro.parallel.pool` promises that the
deterministic-reduction contract survives the full failure zoo — crashes,
hangs, slow workers, corrupted payloads, repeated respawn deaths.  Promises
about rare events are worthless without a way to *make* the events happen on
demand, at an exact coordinate, the same way every run.  That is what this
module provides:

* :class:`FaultSpec` — one fault: *which worker*, at *which chunk* of its
  lifetime, does *what* (``crash``, ``hang``, ``delay``, ``corrupt``,
  ``respawn_crash``);
* :class:`FaultPlan` — an immutable, seeded set of specs shipped to the
  workers inside their task context (the same pipe messages real work uses —
  no side channels, no environment variables);
* :class:`FaultInjector` — the worker-side counter that decides, per ``run``
  message, whether a fault fires *now*;
* :func:`corrupt_payload` — seeded, replayable corruption of a result
  frame's task list (truncation or value perturbation), applied *after* the
  frame digest is taken so it models corruption in flight.

Faults fire in the original (generation-0) worker process only, except
``respawn_crash`` which also kills the first ``repeats - 1`` replacements on
their first chunk — the "respawn, then crash again" pattern that exercises
the bounded-respawn budget.  Because the pool dispatches chunks to slots
deterministically, a plan pins each fault to a reproducible point of the
execution, and a faulty run can be replayed bit-for-bit.
"""

from __future__ import annotations

import math
import os
import signal
import time
from dataclasses import dataclass
from hashlib import blake2b
from typing import Any, Iterable

import numpy as np

from repro.exceptions import ResilienceError

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "corrupt_payload",
    "execute_pre_fault",
]

#: Recognised fault kinds.
FAULT_KINDS: tuple[str, ...] = ("crash", "hang", "delay", "corrupt", "respawn_crash")

#: Exit code used by injected crashes (distinguishable from real worker bugs).
CRASH_EXIT_CODE: int = 87

#: How long a ``hang`` fault sleeps when the spec gives no duration.  Long
#: enough that only the master's deadline (or SIGKILL) ends it.
DEFAULT_HANG_SECONDS: float = 3600.0


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault at an exact (worker slot, chunk index) coordinate.

    ``chunk`` counts the ``run`` messages handled by the worker *process* in
    slot ``worker`` over its lifetime (0-based), across every assembly/matvec
    the pool executes — the coordinate system in which pool dispatch is
    deterministic.  ``repeats`` only matters for ``respawn_crash``: the
    original process crashes at ``chunk``, and each of the next
    ``repeats - 1`` replacement processes crashes on its first chunk.
    """

    worker: int
    chunk: int
    kind: str
    seconds: float = 0.0
    repeats: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ResilienceError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.worker < 0:
            raise ResilienceError(f"fault worker slot must be >= 0, got {self.worker}")
        if self.chunk < 0:
            raise ResilienceError(f"fault chunk index must be >= 0, got {self.chunk}")
        if not (math.isfinite(self.seconds) and self.seconds >= 0.0):
            raise ResilienceError(
                f"fault seconds must be finite and >= 0, got {self.seconds}"
            )
        if self.repeats < 1:
            raise ResilienceError(f"fault repeats must be >= 1, got {self.repeats}")
        if self.kind == "delay" and self.seconds <= 0.0:
            raise ResilienceError("a 'delay' fault needs seconds > 0")


@dataclass(frozen=True)
class FaultPlan:
    """Immutable, seeded set of fault specs shipped with the task context.

    At most one spec per (worker, chunk) coordinate — overlapping faults would
    make the injected behaviour order-dependent, which is exactly what the
    harness exists to rule out.
    """

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        coordinates = [(spec.worker, spec.chunk) for spec in self.faults]
        if len(set(coordinates)) != len(coordinates):
            raise ResilienceError(
                "fault plan assigns more than one fault to the same "
                "(worker, chunk) coordinate"
            )

    @classmethod
    def single(
        cls,
        worker: int,
        chunk: int,
        kind: str,
        seconds: float = 0.0,
        repeats: int = 1,
        seed: int = 0,
    ) -> "FaultPlan":
        """Convenience constructor for the common one-fault plan."""
        return cls(
            faults=(FaultSpec(worker, chunk, kind, seconds=seconds, repeats=repeats),),
            seed=seed,
        )

    @property
    def is_empty(self) -> bool:
        return not self.faults

    def for_worker(self, worker: int) -> tuple[FaultSpec, ...]:
        """The specs targeting one worker slot."""
        return tuple(spec for spec in self.faults if spec.worker == worker)

    def describe(self) -> str:
        if self.is_empty:
            return "FaultPlan(empty)"
        parts = ", ".join(
            f"{spec.kind}@(w{spec.worker},c{spec.chunk})" for spec in self.faults
        )
        return f"FaultPlan({parts}, seed={self.seed})"


class FaultInjector:
    """Worker-side fault trigger: counts ``run`` messages, fires the plan.

    One injector lives per worker *process*; it survives context re-ships (the
    chunk counter spans every run the pool executes) and is rebuilt with the
    process generation when the master respawns the slot.  The decision rule:

    * generation 0 (the originally spawned process): a spec fires when the
      lifetime chunk counter equals ``spec.chunk``;
    * generation ``g`` with ``1 <= g < spec.repeats`` and ``spec.kind ==
      "respawn_crash"``: the replacement crashes on its first chunk.

    Both inputs are deterministic, so a plan replays identically.
    """

    def __init__(self, plan: FaultPlan, worker: int, generation: int) -> None:
        self.plan = plan
        self.worker = int(worker)
        self.generation = int(generation)
        self._counter = -1
        self._specs = plan.for_worker(self.worker)

    @property
    def chunks_seen(self) -> int:
        """Number of ``run`` messages this process has handled so far."""
        return self._counter + 1

    def next_chunk(self) -> FaultSpec | None:
        """Advance the chunk counter; return the spec firing on this chunk."""
        self._counter += 1
        for spec in self._specs:
            if self.generation == 0 and self._counter == spec.chunk:
                return spec
            if (
                spec.kind == "respawn_crash"
                and 1 <= self.generation < spec.repeats
                and self._counter == 0
            ):
                return spec
        return None


def execute_pre_fault(spec: FaultSpec) -> None:
    """Carry out the pre-execution side of a firing spec (worker process).

    ``crash``/``respawn_crash`` exit the process immediately (no result, the
    master sees a broken pipe).  ``hang`` makes the process unresponsive —
    SIGTERM is ignored so only SIGKILL (the master's hung-worker escalation)
    ends it.  ``delay`` sleeps and returns so the chunk completes late.
    ``corrupt`` is a no-op here: it damages the chunk's first result frame
    after execution (see :func:`corrupt_payload`).
    """
    if spec.kind in ("crash", "respawn_crash"):
        os._exit(CRASH_EXIT_CODE)
    if spec.kind == "hang":
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(spec.seconds or DEFAULT_HANG_SECONDS)
        # If the sleep ever runs out, die rather than send a stale result.
        os._exit(CRASH_EXIT_CODE)
    if spec.kind == "delay":
        time.sleep(spec.seconds)


def _perturb_value(value: Any) -> Any:
    """Deterministically damage one task result value (keeping it picklable)."""
    if isinstance(value, np.ndarray) and value.size and value.dtype.kind == "f":
        damaged = value.copy()
        flat = damaged.reshape(-1)
        flat[0] = flat[0] + 1.0 if np.isfinite(flat[0]) else 1.0
        return damaged
    if isinstance(value, tuple):
        items = list(value)
        for position, item in enumerate(items):
            replacement = _perturb_value(item)
            if replacement is not item:
                items[position] = replacement
                return tuple(items)
        return ("__corrupted__",) + value
    if isinstance(value, float):
        return value + 1.0
    if isinstance(value, (int, np.integer)):
        return int(value) + 1
    return ("__corrupted__", value)


def corrupt_payload(
    output: list[tuple[int, Any, float]],
    seed: int,
    worker: int,
    chunk: int,
) -> list[tuple[int, Any, float]]:
    """Seeded, replayable corruption of a result frame's task list.

    Models in-flight damage: depending on the (seed, worker, chunk) hash the
    list is either *truncated* (last task result dropped; lists of two or
    more) or *perturbed* (one value changed).  The worker takes the frame
    digest over the intact bytes before this runs, so the master's
    verification catches both.
    """
    digest = blake2b(
        f"{seed}:{worker}:{chunk}".encode(), digest_size=2
    ).digest()
    if len(output) > 1 and digest[0] % 2 == 0:
        return output[:-1]
    corrupted = list(output)
    if not corrupted:
        return [(0, ("__corrupted__",), 0.0)]
    task_id, value, seconds = corrupted[-1]
    corrupted[-1] = (task_id, _perturb_value(value), seconds)
    return corrupted


def iter_fault_matrix(
    kinds: Iterable[str] = ("crash", "hang", "corrupt"),
    workers: Iterable[int] = (0, 1),
    chunk: int = 0,
    seed: int = 0,
) -> Iterable[FaultPlan]:
    """Yield single-fault plans over a kind × worker matrix (chaos suites)."""
    for kind in kinds:
        for worker in workers:
            yield FaultPlan.single(worker, chunk, kind, seed=seed)
