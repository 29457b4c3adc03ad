"""Resilience-policy tests of the worker pool (fault injection, per kind).

Each test arms a deterministic :class:`~repro.resilience.FaultPlan`, runs a
partition, and asserts the two halves of the resilience contract:

* the results are **bit-identical** to a fault-free run (block tasks are
  pure, recoveries re-execute them exactly);
* the :class:`~repro.resilience.PoolHealth` report proves the fault actually
  fired (the counters are non-zero).

The chaos *matrix* over assembly/matvec/campaign lives in
``tests/resilience/test_chaos_matrix.py``; this file exercises the pool
mechanics in isolation where failures are cheap to localise.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.exceptions import ParallelExecutionError
from repro.parallel.pool import WorkerPool
from repro.resilience import FaultPlan, RetryPolicy

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


class SquareTask:
    """Deterministic picklable task returning a small float array."""

    def __call__(self, index: int) -> np.ndarray:
        return np.arange(6.0) * (index + 1) ** 2


class SigtermProofSleeper:
    """Ignores SIGTERM then sleeps (unless the flag file says stand down).

    Used by the close() escalation test: a worker stuck in this task ignores
    both the ``stop`` message (it never reads it) and SIGTERM, so only the
    SIGKILL escalation can end it.  The flag file keeps any *re-execution*
    (respawn, serial fallback) from sleeping again.
    """

    def __init__(self, flag_path: str, seconds: float = 60.0) -> None:
        self.flag_path = flag_path
        self.seconds = seconds

    def __call__(self, index: int) -> int:
        if not os.path.exists(self.flag_path):
            with open(self.flag_path, "w", encoding="utf-8"):
                pass
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            time.sleep(self.seconds)
        return index


def reference_run(partition):
    with WorkerPool(2, backend="serial") as pool:
        return pool.run_partition(SquareTask(), partition)


def assert_results_identical(outcome, reference):
    assert sorted(outcome.results) == sorted(reference.results)
    for key in reference.results:
        np.testing.assert_array_equal(outcome.results[key], reference.results[key])


PARTITION = [[0, 2], [1, 3], [4], [5]]


class TestInjectedFaults:
    def test_crash_recovered_bit_identical(self):
        reference = reference_run(PARTITION)
        with WorkerPool(2, fault_plan=FaultPlan.single(0, 0, "crash")) as pool:
            outcome = pool.run_partition(SquareTask(), PARTITION)
            health = pool.health
        assert_results_identical(outcome, reference)
        assert health.respawns >= 1
        assert health.retries >= 1

    def test_crash_at_later_chunk_coordinate(self):
        """The (worker, chunk) coordinate is honoured: worker 1's second
        chunk (index 1) is the crashing one."""
        reference = reference_run(PARTITION)
        with WorkerPool(2, fault_plan=FaultPlan.single(1, 1, "crash")) as pool:
            outcome = pool.run_partition(SquareTask(), PARTITION)
            assert pool.health.respawns >= 1
        assert_results_identical(outcome, reference)

    def test_hang_killed_and_retried(self):
        reference = reference_run(PARTITION)
        retry = RetryPolicy(chunk_timeout=0.6, backoff_base=0.01)
        with WorkerPool(
            2, retry=retry, fault_plan=FaultPlan.single(0, 0, "hang")
        ) as pool:
            outcome = pool.run_partition(SquareTask(), PARTITION)
            health = pool.health
        assert_results_identical(outcome, reference)
        assert health.chunk_timeouts >= 1
        assert health.hung_kills >= 1
        assert health.respawns >= 1

    def test_delay_within_deadline_is_tolerated(self):
        reference = reference_run(PARTITION)
        retry = RetryPolicy(chunk_timeout=5.0)
        plan = FaultPlan.single(1, 0, "delay", seconds=0.3)
        with WorkerPool(2, retry=retry, fault_plan=plan) as pool:
            outcome = pool.run_partition(SquareTask(), PARTITION)
            health = pool.health
        assert_results_identical(outcome, reference)
        assert health.chunk_timeouts == 0
        assert health.retries == 0

    def test_corrupt_payload_rejected_and_retried(self):
        reference = reference_run(PARTITION)
        with WorkerPool(2, fault_plan=FaultPlan.single(0, 0, "corrupt")) as pool:
            outcome = pool.run_partition(SquareTask(), PARTITION)
            health = pool.health
        assert_results_identical(outcome, reference)
        assert health.corrupt_rejections >= 1
        assert health.retries >= 1
        assert health.respawns == 0  # the worker itself is healthy

    def test_corrupt_unverified_is_folded(self):
        """verify_payloads=False documents the risk: the corruption lands."""
        reference = reference_run(PARTITION)
        retry = RetryPolicy(verify_payloads=False)
        with WorkerPool(
            2, retry=retry, fault_plan=FaultPlan.single(0, 0, "corrupt")
        ) as pool:
            outcome = pool.run_partition(SquareTask(), PARTITION)
            assert pool.health.corrupt_rejections == 0
        different = any(
            outcome.results[key].shape != reference.results[key].shape
            or not np.array_equal(outcome.results[key], reference.results[key])
            for key in reference.results
            if key in outcome.results
        )
        assert different or sorted(outcome.results) != sorted(reference.results)

    def test_respawn_crash_exhausts_and_degrades(self):
        """respawn-then-crash-again: generation 0 crashes at its chunk and
        the first replacements crash on arrival; the ladder finishes the
        run anyway."""
        reference = reference_run(PARTITION)
        plan = FaultPlan.single(0, 0, "respawn_crash", repeats=3)
        retry = RetryPolicy(max_retries=4, backoff_base=0.01)
        with WorkerPool(2, retry=retry, fault_plan=plan) as pool:
            outcome = pool.run_partition(SquareTask(), PARTITION)
            health = pool.health
        assert_results_identical(outcome, reference)
        assert health.respawns >= 2  # the original death plus repeat deaths

    def test_faulty_run_replays_identically(self):
        """Seeded and replayable: two pools with the same plan take the same
        recovery path and produce the same health counters."""
        plan = FaultPlan.single(0, 0, "corrupt", seed=7)
        counters = []
        outcomes = []
        for _ in range(2):
            with WorkerPool(2, fault_plan=plan) as pool:
                outcomes.append(pool.run_partition(SquareTask(), PARTITION))
                counters.append(pool.health.counters())
        assert counters[0] == counters[1]
        assert_results_identical(outcomes[0], outcomes[1])


class TestDegradationLadder:
    def test_retry_budget_exhaustion_falls_back_to_serial(self):
        """A chunk whose worker keeps dying lands in the master serially."""
        plan = FaultPlan.single(0, 0, "respawn_crash", repeats=10)
        retry = RetryPolicy(max_retries=2, backoff_base=0.01)
        reference = reference_run(PARTITION)
        with WorkerPool(
            2, max_respawns=3, retry=retry, fault_plan=plan
        ) as pool:
            outcome = pool.run_partition(SquareTask(), PARTITION)
            health = pool.health
        assert_results_identical(outcome, reference)
        assert health.serial_fallback_chunks >= 1 or health.disabled_slots >= 1

    def test_raise_mode_aborts_instead(self):
        plan = FaultPlan.single(0, 0, "respawn_crash", repeats=10)
        retry = RetryPolicy(max_retries=1, backoff_base=0.01, degrade="raise")
        with WorkerPool(2, max_respawns=1, retry=retry, fault_plan=plan) as pool:
            with pytest.raises(ParallelExecutionError):
                pool.run_partition(SquareTask(), PARTITION)


class TestCloseEscalation:
    def test_close_sigkills_hung_worker(self, tmp_path):
        """A worker stuck in a SIGTERM-ignoring task must not block close():
        the stop message is never read, SIGTERM is ignored, and the SIGKILL
        escalation (bounded by shutdown_grace per step) ends it."""
        pool = WorkerPool(1)
        pool.shutdown_grace = 0.5
        task = SigtermProofSleeper(str(tmp_path / "slept.flag"))
        handle = pool._workers[0]
        handle.connection.send(("context", 1, task, None, False))
        handle.connection.send(("run", 999, 0, 1, [0]))
        deadline = time.monotonic() + 5.0
        while not (tmp_path / "slept.flag").exists():
            assert time.monotonic() < deadline, "worker never entered the task"
            time.sleep(0.02)
        process = handle.process
        start = time.monotonic()
        pool.close()
        elapsed = time.monotonic() - start
        assert not process.is_alive()
        assert pool.alive_workers() == 0
        assert elapsed < 5.0  # three grace steps of 0.5 s, not a 60 s hang
