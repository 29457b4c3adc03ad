"""Tests of the persistent worker pool (spawn-once, respawn, serial fallback).

The death-recovery tests assert the contract the campaign engine rests on:
a killed worker is respawned, its shard re-executed, and — because block
tasks are pure functions of the block — the final results are bit-identical
to an undisturbed run.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.exceptions import ParallelExecutionError
from repro.parallel.pool import WorkerPool
from repro.resilience import RetryPolicy


class AffineTask:
    """Deterministic picklable task: ``scale * index + offset`` as an array."""

    def __init__(self, scale: float, offset: float = 0.0) -> None:
        self.scale = scale
        self.offset = offset

    def __call__(self, index: int) -> np.ndarray:
        return self.scale * np.arange(4.0) + self.offset + index


class SlowTask:
    """Task slow enough for a mid-run kill to land while it executes."""

    def __call__(self, index: int) -> int:
        time.sleep(0.4)
        return index * 3


class FailingTask:
    """Task that always raises (error-propagation test; must be picklable)."""

    def __call__(self, index: int):
        raise ValueError("boom")


class FailFastOrBigSlowTask:
    """Index 0 raises immediately; other indices return a large payload late.

    Reproduces the abort-reuse hazard: the run raises on index 0 while
    another worker is still computing a result far larger than the pipe
    buffer — without the abort cleanup, that worker would block in ``send``
    forever and deadlock the next run's context shipping.
    """

    def __call__(self, index: int):
        if index == 0:
            raise ValueError("fail fast")
        time.sleep(0.3)
        return np.ones(1_000_000) * index  # ~8 MB, far above the pipe buffer


class KillOnceTask:
    """Kills its own worker on the first call, then behaves like ``inner``.

    The kill happens at most once per flag file, so the respawned worker
    re-executes the same chunk to completion — the deterministic mid-run
    death used by the recovery tests.
    """

    def __init__(self, inner, flag_path: str) -> None:
        self.inner = inner
        self.flag_path = flag_path

    def __call__(self, index: int):
        if not os.path.exists(self.flag_path):
            with open(self.flag_path, "w", encoding="utf-8"):
                pass
            os.kill(os.getpid(), signal.SIGKILL)
        return self.inner(index)


class TestWorkerPoolProtocol:
    def test_process_results_match_serial(self):
        task = AffineTask(10.0)
        partition = [[0, 2], [1, 3]]
        with WorkerPool(2) as pool:
            parallel = pool.run_partition(task, partition)
        with WorkerPool(2, backend="serial") as pool:
            serial = pool.run_partition(task, partition)
        assert sorted(parallel.results) == [0, 1, 2, 3]
        for key in parallel.results:
            np.testing.assert_array_equal(parallel.results[key], serial.results[key])
        assert parallel.backend == "pool-process"
        assert serial.backend == "pool-serial"

    def test_pool_survives_context_changes(self):
        """One pool serves many assemblies: each run ships a fresh context."""
        with WorkerPool(2) as pool:
            first = pool.run_partition(AffineTask(1.0), [[0], [1]])
            second = pool.run_partition(AffineTask(100.0), [[0], [1]])
            assert pool.stats["runs"] == 2
            assert pool.stats["contexts_shipped"] >= 2
        np.testing.assert_array_equal(first.results[0], np.arange(4.0))
        np.testing.assert_array_equal(second.results[0], 100.0 * np.arange(4.0))

    def test_more_chunks_than_workers_round_robin(self):
        with WorkerPool(2) as pool:
            outcome = pool.run_partition(AffineTask(2.0), [[0], [1], [2], [3], [4]])
        assert sorted(outcome.results) == [0, 1, 2, 3, 4]
        assert outcome.n_chunks == 5

    def test_duplicate_assignment_rejected(self):
        with WorkerPool(2, backend="serial") as pool:
            with pytest.raises(ParallelExecutionError, match="more than one shard"):
                pool.run_partition(AffineTask(1.0), [[0, 1], [1, 2]])

    def test_task_error_propagates(self):
        with WorkerPool(1) as pool:
            with pytest.raises(ParallelExecutionError, match="boom"):
                pool.run_partition(FailingTask(), [[0]])

    def test_empty_shards_skipped(self):
        with WorkerPool(2) as pool:
            outcome = pool.run_partition(AffineTask(1.0), [[], [0], []])
        assert sorted(outcome.results) == [0]
        assert outcome.n_chunks == 1

    @pytest.mark.parametrize("pull", [False, True])
    def test_dispatch_cost_is_linear_in_chunks(self, monkeypatch, pull):
        """One pump must cost what it dispatches, not the queue length: a
        rescan of every queued chunk on every call made many-chunk runs
        (the paper's Dynamic,1 column loop) quadratic in the chunk count."""
        n_chunks = 400
        calls = 0
        pick_slot = WorkerPool._pick_slot

        def counting_pick_slot(self, preferred, idle):
            nonlocal calls
            calls += 1
            return pick_slot(self, preferred, idle)

        monkeypatch.setattr(WorkerPool, "_pick_slot", counting_pick_slot)
        partition = [[index] for index in range(n_chunks)]
        with WorkerPool(2) as pool:
            run = pool.submit(AffineTask(1.0), partition, pull=pull)
            while not run.done:
                pool.service()
            outcome = pool.result(run)
        assert sorted(outcome.results) == list(range(n_chunks))
        assert calls <= 4 * n_chunks

    def test_pulled_dispatch_matches_pinned(self):
        partition = [[index, index + 20] for index in range(20)]
        with WorkerPool(2) as pool:
            pinned = pool.run_partition(AffineTask(3.0, 1.0), partition)
            run = pool.submit(AffineTask(3.0, 1.0), partition, pull=True)
            while not run.done:
                pool.service()
            pulled = pool.result(run)
        assert sorted(pulled.results) == sorted(pinned.results) == list(range(40))
        for key in pinned.results:
            np.testing.assert_array_equal(pulled.results[key], pinned.results[key])

    def test_validation(self):
        with pytest.raises(ParallelExecutionError):
            WorkerPool(0)
        with pytest.raises(ParallelExecutionError):
            WorkerPool(1, backend="thread")


class TestWorkerPoolLifecycle:
    def test_close_is_idempotent_and_final(self):
        pool = WorkerPool(2)
        assert pool.alive_workers() == 2
        pool.close()
        pool.close()
        assert pool.closed
        assert pool.alive_workers() == 0
        with pytest.raises(ParallelExecutionError, match="closed"):
            pool.run_partition(AffineTask(1.0), [[0]])

    def test_context_manager_closes(self):
        with WorkerPool(2) as pool:
            assert pool.alive_workers() == 2
        assert pool.closed

    def test_negative_respawn_budget_rejected(self):
        with pytest.raises(ParallelExecutionError, match="max_respawns"):
            WorkerPool(2, backend="serial", max_respawns=-3)

    def test_serial_backend_spawns_nothing(self):
        with WorkerPool(3, backend="serial") as pool:
            assert pool.alive_workers() == 0
            outcome = pool.run_partition(AffineTask(1.0), [[0, 1, 2]])
        assert sorted(outcome.results) == [0, 1, 2]


class TestWorkerDeathRecovery:
    def test_death_between_runs_respawns(self):
        task = AffineTask(5.0)
        with WorkerPool(2) as pool:
            before = pool.run_partition(task, [[0], [1]])
            os.kill(pool._workers[0].process.pid, signal.SIGKILL)
            time.sleep(0.05)
            after = pool.run_partition(task, [[0], [1]])
            assert pool.stats["respawns"] >= 1
            assert pool.alive_workers() == 2
        for key in before.results:
            np.testing.assert_array_equal(before.results[key], after.results[key])

    def test_death_mid_run_bit_identical(self, tmp_path):
        """A worker killed *while executing its shard* is respawned and the
        shard re-executed with bit-identical results."""
        inner = AffineTask(3.0, offset=0.25)
        partition = [[0, 2], [1, 3]]
        with WorkerPool(2, backend="serial") as pool:
            reference = pool.run_partition(inner, partition)
        killer = KillOnceTask(inner, str(tmp_path / "killed.flag"))
        with WorkerPool(2) as pool:
            recovered = pool.run_partition(killer, partition)
            assert pool.stats["respawns"] >= 1
        assert (tmp_path / "killed.flag").exists()
        assert sorted(recovered.results) == sorted(reference.results)
        for key in reference.results:
            np.testing.assert_array_equal(recovered.results[key], reference.results[key])

    def test_sigkill_during_sleepy_chunk(self):
        """An asynchronous SIGKILL mid-chunk is also detected and recovered."""
        pool = WorkerPool(2)
        try:
            import threading

            target_pid = pool._workers[1].process.pid

            def _kill() -> None:
                time.sleep(0.15)
                os.kill(target_pid, signal.SIGKILL)

            thread = threading.Thread(target=_kill)
            thread.start()
            outcome = pool.run_partition(SlowTask(), [[0], [1]])
            thread.join()
        finally:
            pool.close()
        assert outcome.results == {0: 0, 1: 3}
        assert pool.stats["respawns"] >= 1

    def test_pool_reusable_after_aborted_run(self):
        """A run that raises on one worker's error must not poison the pool:
        workers still owning shards are replaced, so the next run cannot
        deadlock against a worker stuck sending an unread oversized result."""
        with WorkerPool(2) as pool:
            with pytest.raises(ParallelExecutionError, match="fail fast"):
                pool.run_partition(FailFastOrBigSlowTask(), [[0], [1]])
            outcome = pool.run_partition(AffineTask(2.0), [[0], [1]])
            assert sorted(outcome.results) == [0, 1]
            assert pool.alive_workers() == 2

    def test_respawn_budget_exhausted_raises(self):
        """``degrade="raise"`` restores the fail-fast pre-resilience semantics."""
        pool = WorkerPool(1, max_respawns=0, retry=RetryPolicy(degrade="raise"))
        try:
            os.kill(pool._workers[0].process.pid, signal.SIGKILL)
            time.sleep(0.05)
            with pytest.raises(ParallelExecutionError, match="respawn budget"):
                pool.run_partition(AffineTask(1.0), [[0]])
        finally:
            pool.close()

    def test_respawn_budget_exhausted_degrades_to_serial(self):
        """Default policy: an exhausted respawn budget disables the slot and
        the run completes through the master-side serial fallback, with the
        degradation recorded in the pool health report."""
        pool = WorkerPool(1, max_respawns=0)
        try:
            os.kill(pool._workers[0].process.pid, signal.SIGKILL)
            time.sleep(0.05)
            outcome = pool.run_partition(AffineTask(7.0), [[0, 1]])
            np.testing.assert_array_equal(
                outcome.results[1], 7.0 * np.arange(4.0) + 1
            )
            assert pool.health.disabled_slots == 1
            assert pool.health.serial_fallback_chunks >= 1
            assert pool.active_slots() == []
            # The degraded pool keeps serving runs (serially).
            again = pool.run_partition(AffineTask(2.0), [[0], [1]])
            assert sorted(again.results) == [0, 1]
        finally:
            pool.close()

    def test_budget_exhaustion_mid_run_does_not_poison_pool(self):
        """When the budget trips while another worker still owns a large
        outstanding shard, that worker is replaced too — the pool must not
        deadlock a subsequent run on a worker stuck sending an unread result."""
        import threading

        pool = WorkerPool(2, max_respawns=0, retry=RetryPolicy(degrade="raise"))
        try:
            # Both shards are slow (~0.3 s) and return ~8 MB payloads (indices
            # != 0 of FailFastOrBigSlowTask).  Killing worker 0 mid-run trips
            # the zero respawn budget while worker 1's oversized result is
            # still outstanding.
            target_pid = pool._workers[0].process.pid
            thread = threading.Timer(0.1, os.kill, (target_pid, signal.SIGKILL))
            thread.start()
            with pytest.raises(ParallelExecutionError, match="respawn budget"):
                pool.run_partition(FailFastOrBigSlowTask(), [[1], [2]])
            thread.join()
            outcome = pool.run_partition(AffineTask(4.0), [[0], [1]])
            assert sorted(outcome.results) == [0, 1]
            assert pool.alive_workers() == 2
        finally:
            pool.close()
