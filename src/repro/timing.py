"""The sanctioned timing module of the whole tree.

The static contract rule **DET002** (:mod:`repro.contracts`) forbids direct
clock access inside ``repro.bem``, ``repro.cluster``, ``repro.kernels`` and
``repro.parallel``: a clock-dependent value that leaks into a numeric result
or into work partitioning silently breaks the bit-identical-for-any-worker-
count contract.  Observability timing — phase timings, executor walls,
benchmark metadata — instead calls :func:`wall_clock`, which keeps every
clock read in the tree greppable and the analyzer's allowlist at exactly one
module.  The rule of thumb enforced across the tree:

* **allowed** — ``wall_clock()`` deltas recorded through the
  :class:`Timer` / :class:`PhaseTimer` helpers here or the span/metric
  runtime of :mod:`repro.observe`, never feeding back into numbers or
  schedules;
* **forbidden** — clock values used in numeric expressions, seeds, keys,
  orderings or partitioning decisions (those must come from the
  deterministic cost models of :mod:`repro.parallel.costs`).

This module also hosts the elapsed-time bookkeeping helpers (:class:`Timer`,
:class:`PhaseTimer`); the companion contract rule **OBS001** steers new
phase bookkeeping through these helpers (or :mod:`repro.observe`) instead of
hand-rolled ``timings[...] += wall_clock() - start`` dicts.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["PhaseTimer", "Timer", "cpu_clock", "wall_clock"]


def wall_clock() -> float:
    """Monotonic wall-clock seconds (``time.perf_counter``).

    Use only for observability: elapsed-time metadata, progress reporting,
    benchmark tables.  Never let the returned value feed a numeric result.
    """
    return time.perf_counter()


def cpu_clock() -> float:
    """Process CPU seconds (``time.process_time``).

    The CPU-side companion of :func:`wall_clock`, used by the opt-in
    resource profiler (:class:`repro.observe.profile.ResourceProfiler`) to
    split a span's wall time into compute vs wait.  Same rule as
    ``wall_clock``: observability only — the returned value must never feed
    a numeric result, a seed or a scheduling decision.
    """
    return time.process_time()


@dataclass
class Timer:
    """A simple start/stop wall-clock timer.

    Can be used manually (:meth:`start` / :meth:`stop`) or as a context
    manager; the elapsed time accumulates across repeated uses.
    """

    elapsed: float = 0.0
    _started_at: float | None = field(default=None, repr=False)

    def start(self) -> "Timer":
        """Start (or restart) the timer."""
        self._started_at = wall_clock()
        return self

    def stop(self) -> float:
        """Stop the timer and return the total elapsed time."""
        if self._started_at is None:
            raise RuntimeError("Timer.stop() called before start()")
        self.elapsed += wall_clock() - self._started_at
        self._started_at = None
        return self.elapsed

    @property
    def running(self) -> bool:
        """Whether the timer is currently running."""
        return self._started_at is not None

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class PhaseTimer:
    """Accumulates wall-clock time per named phase (the paper's Table 6.1 rows)."""

    def __init__(self) -> None:
        self._phases: dict[str, float] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a ``with`` block under the given phase name."""
        start = wall_clock()
        try:
            yield
        finally:
            self.add(name, wall_clock() - start)

    def add(self, name: str, seconds: float) -> None:
        """Add seconds to a phase (creating it if needed)."""
        self._phases[name] = self._phases.get(name, 0.0) + float(seconds)

    def as_dict(self) -> dict[str, float]:
        """Phase timings in insertion order."""
        return dict(self._phases)

    @property
    def total(self) -> float:
        """Total time across all phases."""
        return float(sum(self._phases.values()))

    def fraction(self, name: str) -> float:
        """Fraction of the total spent in one phase (0 when nothing recorded)."""
        total = self.total
        if total <= 0.0:
            return 0.0
        return self._phases.get(name, 0.0) / total

    def __getitem__(self, name: str) -> float:
        return self._phases[name]

    def __contains__(self, name: str) -> bool:
        return name in self._phases

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v:.3f}s" for k, v in self._phases.items())
        return f"PhaseTimer({inner})"
