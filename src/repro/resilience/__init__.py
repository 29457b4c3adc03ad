"""Deterministic fault injection + resilience policy for the parallel layer.

Three pieces, consumed by :mod:`repro.parallel.pool` and
:mod:`repro.campaign`:

* :mod:`repro.resilience.faults` — seeded, replayable fault plans
  (:class:`FaultPlan`) that workers load from their shipped task context and
  fire at exact (worker, chunk) coordinates: crash, hang, delayed response,
  corrupted payload, respawn-then-crash-again.
* :mod:`repro.resilience.policy` — :class:`RetryPolicy`: per-chunk deadlines,
  bounded deterministic backoff, payload verification, and the graceful
  degradation ladder (retry → shrink pool → serial fallback).
* :mod:`repro.resilience.health` — :class:`PoolHealth`, the structured record
  of every recovery action a pool took.

:mod:`repro.resilience.channel` holds the deadline-bounded IPC primitives
(the RES001 contract companions) plus the digest-headed result frames.

All fault handling flows through the pool's single dispatch loop — no
helper threads, no signal-handler side channels — so faulty runs stay
deterministic and the bit-identical reduction contract extends to them.
"""

from repro.resilience.channel import frame_digest
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    corrupt_payload,
    iter_fault_matrix,
)
from repro.resilience.health import PoolHealth
from repro.resilience.policy import DEFAULT_RETRY_POLICY, RetryPolicy

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "PoolHealth",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "corrupt_payload",
    "frame_digest",
    "iter_fault_matrix",
]
