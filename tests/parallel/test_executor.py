"""Tests for the scheduled executor on its in-process and process pools."""

from __future__ import annotations

import math
import os
import pickle

import numpy as np
import pytest

from repro.exceptions import ParallelExecutionError
from repro.parallel.executor import ScheduledExecutor, run_scheduled_tasks
from repro.parallel.schedule import Schedule, ScheduleKind


def square(indices: list[int]) -> list[int]:
    return [i * i for i in indices]


def tiny_work(indices: list[int]) -> list[float]:
    # A small but non-trivial numpy task so worker processes have real work.
    return [float(np.sqrt(np.arange(1, 200 + i % 7)).sum()) for i in indices]


def array_task(indices: list[int]) -> list[np.ndarray]:
    return [np.full(3, float(i)) for i in indices]


def heavy(indices: list[int]) -> list[float]:
    return [math.fsum(1.0 / (k + 1) for k in range(1000 + i)) for i in indices]


def short_by_one(indices: list[int]) -> list[int]:
    return list(indices)[:-1]


class Collect(dict):
    """Consumer of :meth:`ScheduledExecutor.run` keeping every result by task id."""

    def __call__(self, task_id, value, seconds) -> None:
        assert task_id not in self, f"task {task_id} handed over twice"
        self[task_id] = value


def schedule_chunk_count(schedule: Schedule, n_tasks: int, n_workers: int) -> int:
    if schedule.kind is ScheduleKind.STATIC:
        return sum(1 for tasks in schedule.static_assignment(n_tasks, n_workers) if tasks)
    return len(schedule.chunk_sequence(n_tasks, n_workers))


#: One worker runs on the in-process pool, more than one on forked workers;
#: the ids name the pool backend each count selects.
WORKER_COUNTS = [pytest.param(1, id="serial"), pytest.param(3, id="process")]


class TestCorrectness:
    @pytest.mark.parametrize("n_workers", WORKER_COUNTS)
    @pytest.mark.parametrize("label", ["Static", "Static,2", "Dynamic,1", "Guided,1"])
    def test_all_results_present_and_correct(self, n_workers, label):
        outcome = run_scheduled_tasks(square, 23, Schedule.parse(label), n_workers=n_workers)
        assert sorted(outcome.results) == list(range(23))
        assert outcome.ordered_results() == [i * i for i in range(23)]
        assert outcome.n_workers == n_workers
        assert outcome.backend == ("serial" if n_workers == 1 else "process")
        assert outcome.schedule == Schedule.parse(label).label()

    @pytest.mark.parametrize("n_workers", WORKER_COUNTS)
    def test_zero_tasks(self, n_workers):
        outcome = run_scheduled_tasks(square, 0, Schedule.parse("Dynamic,1"), n_workers=n_workers)
        assert outcome.results == {}
        assert outcome.n_chunks == 0

    def test_negative_task_count_rejected(self):
        with pytest.raises(ParallelExecutionError):
            run_scheduled_tasks(square, -1, Schedule.parse("Dynamic,1"), n_workers=2)

    def test_single_worker_falls_back_to_serial_path(self):
        outcome = run_scheduled_tasks(
            square, 10, Schedule.parse("Dynamic,1"), n_workers=1
        )
        assert outcome.ordered_results() == [i * i for i in range(10)]

    def test_invalid_worker_count(self):
        with pytest.raises(ParallelExecutionError):
            ScheduledExecutor(square, n_workers=0)

    @pytest.mark.parametrize(
        "n_workers",
        [
            pytest.param(2.5, id="non_integral"),
            pytest.param(float("nan"), id="nan"),
            pytest.param(float("inf"), id="inf"),
            pytest.param(True, id="bool"),
        ],
    )
    def test_non_whole_worker_count(self, n_workers):
        with pytest.raises(ParallelExecutionError, match="whole number"):
            ScheduledExecutor(square, n_workers=n_workers)


class TestChunkAccounting:
    def test_dynamic_chunk_count(self):
        outcome = run_scheduled_tasks(
            square, 12, Schedule.parse("Dynamic,1"), n_workers=2
        )
        assert outcome.n_chunks == 12

    def test_dynamic_chunk_four(self):
        outcome = run_scheduled_tasks(
            square, 12, Schedule.parse("Dynamic,4"), n_workers=2
        )
        assert outcome.n_chunks == 3

    def test_static_chunks_at_most_workers(self):
        outcome = run_scheduled_tasks(
            square, 12, Schedule.parse("Static"), n_workers=4
        )
        assert outcome.n_chunks == 4

    def test_task_seconds_recorded(self):
        outcome = run_scheduled_tasks(
            tiny_work, 8, Schedule.parse("Dynamic,1"), n_workers=2
        )
        assert outcome.task_seconds.shape == (8,)
        assert np.all(outcome.task_seconds >= 0.0)
        assert outcome.sequential_seconds >= 0.0
        assert outcome.speedup > 0.0


class TestReuse:
    def test_executor_can_run_multiple_batches(self):
        first, second = Collect(), Collect()
        with ScheduledExecutor(square, n_workers=2) as executor:
            executor.run(range(5), Schedule.parse("Dynamic,1"), first)
            executor.run(range(5, 9), Schedule.parse("Static"), second)
        assert sorted(first) == [0, 1, 2, 3, 4]
        assert sorted(second) == [5, 6, 7, 8]

    def test_process_backend_requires_context_manager(self):
        executor = ScheduledExecutor(square, n_workers=2)
        with pytest.raises(ParallelExecutionError):
            executor.run(range(4), Schedule.parse("Dynamic,1"), Collect())

    @pytest.mark.parametrize("n_workers", WORKER_COUNTS)
    def test_close_shuts_pools_down_deterministically(self, n_workers):
        """close() is the explicit counterpart of leaving the with-block, so
        pool-backed executors never rely on interpreter atexit ordering."""
        executor = ScheduledExecutor(square, n_workers=n_workers)
        executor.__enter__()
        results = Collect()
        executor.run(range(4), Schedule.parse("Dynamic,1"), results)
        assert sorted(results) == [0, 1, 2, 3]
        executor.close()
        assert executor.pool.closed and executor.pool.alive_workers() == 0
        executor.close()  # idempotent
        with pytest.raises(ParallelExecutionError):
            executor.run(range(4), Schedule.parse("Dynamic,1"), Collect())


class TestBatchedChunks:
    @pytest.mark.parametrize("n_workers", WORKER_COUNTS)
    @pytest.mark.parametrize("label", ["Static", "Static,2", "Dynamic,1", "Dynamic,4", "Guided,1"])
    def test_batch_results_match_per_task(self, n_workers, label):
        outcome = run_scheduled_tasks(square, 23, Schedule.parse(label), n_workers=n_workers)
        assert outcome.ordered_results() == [square([i])[0] for i in range(23)]

    @pytest.mark.parametrize("label", ["Static", "Static,3", "Dynamic,1", "Guided,2"])
    def test_one_pool_task_per_schedule_chunk(self, label):
        schedule = Schedule.parse(label)
        expected = schedule_chunk_count(schedule, 23, 2)
        results = Collect()
        with ScheduledExecutor(square, n_workers=2) as executor:
            outcome = executor.run(range(23), schedule, results)
        assert outcome.n_chunks == expected
        assert executor.pool.stats["chunks_dispatched"] == expected
        assert executor.pool.stats["tasks_executed"] == expected
        assert [results[i] for i in range(23)] == square(list(range(23)))

    def test_chunk_time_apportioned_by_cost_hint(self):
        def slow_chunk(indices):
            import time as _time

            _time.sleep(0.01)
            return list(indices)

        cost_hint = np.array([3.0, 1.0])
        outcome = run_scheduled_tasks(
            slow_chunk,
            2,
            Schedule.parse("Dynamic,2"),
            n_workers=1,
            cost_hint=cost_hint,
        )
        # Task 0 carries three quarters of the (single) chunk's wall time.
        assert outcome.task_seconds[0] == pytest.approx(3.0 * outcome.task_seconds[1], rel=1e-6)
        assert outcome.sequential_seconds >= 0.01

    def test_batch_size_mismatch_raises(self):
        with pytest.raises(ParallelExecutionError):
            run_scheduled_tasks(
                short_by_one,
                4,
                Schedule.parse("Dynamic,4"),
                n_workers=1,
            )

    def test_equal_apportioning_without_hint(self):
        outcome = run_scheduled_tasks(
            tiny_work, 6, Schedule.parse("Dynamic,3"), n_workers=2
        )
        assert outcome.task_seconds.shape == (6,)
        assert np.all(outcome.task_seconds >= 0.0)
        for chunk in ([0, 1, 2], [3, 4, 5]):
            assert np.ptp(outcome.task_seconds[chunk]) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.skipif(os.cpu_count() is not None and os.cpu_count() < 2, reason="needs >= 2 CPUs")
class TestProcessBackend:
    def test_closure_task_raises_before_any_chunk_runs(self, tmp_path):
        """Tasks travel to the pool by pickle, so a closure fails at dispatch
        (contract MSG001 enforced at runtime), before any chunk executes."""
        marker = tmp_path / "ran"

        def with_closure(indices: list[int]) -> list[int]:
            marker.touch()
            return list(indices)

        executor = ScheduledExecutor(with_closure, n_workers=2)
        with pytest.raises((AttributeError, pickle.PicklingError)):
            with executor:
                executor.run(range(6), Schedule.parse("Dynamic,1"), Collect())
        assert not marker.exists()
        assert executor.pool.closed and executor.pool.alive_workers() == 0

    def test_numpy_results_supported(self):
        outcome = run_scheduled_tasks(
            array_task, 5, Schedule.parse("Guided,1"), n_workers=2
        )
        assert np.allclose(outcome.results[4], 4.0)

    def test_math_heavy_tasks(self):
        outcome = run_scheduled_tasks(
            heavy, 10, Schedule.parse("Dynamic,2"), n_workers=4
        )
        assert len(outcome.results) == 10
        assert outcome.results[0] == pytest.approx(heavy([0])[0])
