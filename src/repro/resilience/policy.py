"""Retry/backoff/degradation policy for the resilient worker pool.

One frozen dataclass holds every knob of the pool's fault handling, so a
policy can be passed around, logged, and compared, and so the backoff
schedule is a pure function — deterministic, monotone non-decreasing and
bounded, properties the hypothesis suite in ``tests/resilience`` pins down.

The degradation ladder the policy drives (see :mod:`repro.parallel.pool`):

1. **retry** — a failed chunk (worker death, hung-worker kill, corrupted
   payload) is re-dispatched after ``backoff_delay(attempt)`` seconds, up to
   ``max_retries`` times; block tasks are pure, so a retried chunk is
   bit-identical to the lost one.
2. **shrink** — a slot whose respawn budget is exhausted is disabled and its
   work redistributed over the remaining workers.
3. **serial fallback** — a chunk out of retries (or a pool out of workers)
   is executed in the master process through the exact same
   ``_execute_chunk`` path, preserving results at the price of parallelism.

``degrade="raise"`` switches steps 2–3 off and restores fail-fast behaviour
(the pre-resilience pool semantics) for callers that prefer a loud abort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ResilienceError

__all__ = ["RetryPolicy", "DEFAULT_RETRY_POLICY"]

#: Accepted values of :attr:`RetryPolicy.degrade`.
DEGRADE_MODES: tuple[str, ...] = ("serial", "raise")


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the pool's resilience behaviour (immutable, comparable).

    Parameters
    ----------
    max_retries:
        Re-dispatches tolerated per chunk before the degradation ladder takes
        over (0 disables retries).
    backoff_base / backoff_factor / backoff_max:
        The deterministic backoff schedule ``min(backoff_max, backoff_base *
        backoff_factor ** attempt)`` — geometric growth capped at
        ``backoff_max`` seconds.  ``backoff_factor`` must be >= 1 so the
        schedule is monotone non-decreasing.
    chunk_timeout:
        Per-chunk deadline in seconds.  A worker that holds a chunk past the
        deadline is treated as hung: SIGKILLed, respawned, the chunk retried.
        ``None`` disables deadlines (hangs then only end with the pool).
    verify_payloads:
        Digest every result frame's bytes and reject (and retry) corrupted
        ones before unpickling, instead of folding them into the operator.
    degrade:
        ``"serial"`` (default) walks the degradation ladder — shrink the pool,
        then fall back to in-master serial execution; ``"raise"`` aborts the
        run instead, restoring fail-fast semantics.
    """

    max_retries: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    chunk_timeout: float | None = None
    verify_payloads: bool = True
    degrade: str = "serial"

    def __post_init__(self) -> None:
        # A NaN passes every ordered comparison below, and a NaN deadline or
        # backoff never expires or never pauses: reject non-finite values first.
        for name in ("backoff_base", "backoff_factor", "backoff_max", "chunk_timeout"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ResilienceError(f"{name} must be finite, got {value}")
        if self.max_retries < 0:
            raise ResilienceError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0.0:
            raise ResilienceError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ResilienceError(
                f"backoff_factor must be >= 1 (monotone schedule), got {self.backoff_factor}"
            )
        if self.backoff_max < self.backoff_base:
            raise ResilienceError(
                f"backoff_max ({self.backoff_max}) must be >= backoff_base "
                f"({self.backoff_base})"
            )
        if self.chunk_timeout is not None and self.chunk_timeout <= 0.0:
            raise ResilienceError(
                f"chunk_timeout must be > 0 (or None), got {self.chunk_timeout}"
            )
        if self.degrade not in DEGRADE_MODES:
            raise ResilienceError(
                f"degrade must be one of {DEGRADE_MODES}, got {self.degrade!r}"
            )

    def backoff_delay(self, attempt: int) -> float:
        """Seconds to wait before re-dispatching after failure ``attempt`` (0-based).

        A pure function of (policy, attempt): deterministic, monotone
        non-decreasing in ``attempt`` and bounded by ``backoff_max``.
        """
        if attempt < 0:
            raise ResilienceError(f"backoff attempt must be >= 0, got {attempt}")
        return min(self.backoff_max, self.backoff_base * self.backoff_factor**attempt)

    def backoff_schedule(self, n: int | None = None) -> tuple[float, ...]:
        """The first ``n`` backoff delays (defaults to ``max_retries``)."""
        count = self.max_retries if n is None else n
        return tuple(self.backoff_delay(attempt) for attempt in range(count))


#: The pool's defaults when no policy is passed explicitly.
DEFAULT_RETRY_POLICY = RetryPolicy()
