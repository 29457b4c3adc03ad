"""Tests for the scheduled executor on its serial and process pools."""

from __future__ import annotations

import math
import os
import pickle

import numpy as np
import pytest

from repro.exceptions import ParallelExecutionError
from repro.parallel.executor import ScheduledExecutor, run_scheduled_tasks
from repro.parallel.options import Backend
from repro.parallel.schedule import Schedule


def square(index: int) -> int:
    return index * index


def tiny_work(index: int) -> float:
    # A small but non-trivial numpy task so worker processes have real work.
    values = np.arange(1, 200 + index % 7)
    return float(np.sqrt(values).sum())


def tiny_work_batch(indices):
    return [(int(i), tiny_work(int(i))) for i in indices]


def array_task(index: int) -> np.ndarray:
    return np.full(3, float(index))


def heavy(index: int) -> float:
    return math.fsum(1.0 / (k + 1) for k in range(1000 + index))


BACKENDS = [Backend.SERIAL, Backend.PROCESS]


class TestCorrectness:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("label", ["Static", "Static,2", "Dynamic,1", "Guided,1"])
    def test_all_results_present_and_correct(self, backend, label):
        outcome = run_scheduled_tasks(
            square, 23, Schedule.parse(label), n_workers=3, backend=backend
        )
        assert sorted(outcome.results) == list(range(23))
        assert outcome.ordered_results() == [i * i for i in range(23)]
        assert outcome.n_workers == 3
        assert outcome.schedule == Schedule.parse(label).label()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_tasks(self, backend):
        outcome = run_scheduled_tasks(
            square, 0, Schedule.parse("Dynamic,1"), n_workers=2, backend=backend
        )
        assert outcome.results == {}
        assert outcome.n_chunks == 0

    def test_negative_task_count_rejected(self):
        with pytest.raises(ParallelExecutionError):
            run_scheduled_tasks(square, -1, Schedule.parse("Dynamic,1"), n_workers=2)

    def test_single_worker_falls_back_to_serial_path(self):
        outcome = run_scheduled_tasks(
            square, 10, Schedule.parse("Dynamic,1"), n_workers=1, backend=Backend.PROCESS
        )
        assert outcome.ordered_results() == [i * i for i in range(10)]

    def test_invalid_worker_count(self):
        with pytest.raises(ParallelExecutionError):
            ScheduledExecutor(square, n_workers=0)


class TestChunkAccounting:
    def test_dynamic_chunk_count(self):
        outcome = run_scheduled_tasks(
            square, 12, Schedule.parse("Dynamic,1"), n_workers=2, backend=Backend.PROCESS
        )
        assert outcome.n_chunks == 12

    def test_dynamic_chunk_four(self):
        outcome = run_scheduled_tasks(
            square, 12, Schedule.parse("Dynamic,4"), n_workers=2, backend=Backend.PROCESS
        )
        assert outcome.n_chunks == 3

    def test_static_chunks_at_most_workers(self):
        outcome = run_scheduled_tasks(
            square, 12, Schedule.parse("Static"), n_workers=4, backend=Backend.PROCESS
        )
        assert outcome.n_chunks == 4

    def test_task_seconds_recorded(self):
        outcome = run_scheduled_tasks(
            tiny_work, 8, Schedule.parse("Dynamic,1"), n_workers=2, backend=Backend.PROCESS
        )
        assert outcome.task_seconds.shape == (8,)
        assert np.all(outcome.task_seconds >= 0.0)
        assert outcome.sequential_seconds >= 0.0
        assert outcome.speedup > 0.0


class TestReuse:
    def test_executor_can_run_multiple_batches(self):
        with ScheduledExecutor(square, n_workers=2, backend=Backend.PROCESS) as executor:
            first = executor.run(range(5), Schedule.parse("Dynamic,1"))
            second = executor.run(range(5, 9), Schedule.parse("Static"))
        assert sorted(first.results) == [0, 1, 2, 3, 4]
        assert sorted(second.results) == [5, 6, 7, 8]

    def test_process_backend_requires_context_manager(self):
        executor = ScheduledExecutor(square, n_workers=2, backend=Backend.PROCESS)
        with pytest.raises(ParallelExecutionError):
            executor.run(range(4), Schedule.parse("Dynamic,1"))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_close_shuts_pools_down_deterministically(self, backend):
        """close() is the explicit counterpart of leaving the with-block, so
        pool-backed executors never rely on interpreter atexit ordering."""
        executor = ScheduledExecutor(square, n_workers=2, backend=backend)
        executor.__enter__()
        outcome = executor.run(range(4), Schedule.parse("Dynamic,1"))
        assert sorted(outcome.results) == [0, 1, 2, 3]
        executor.close()
        assert executor.pool.closed and executor.pool.alive_workers() == 0
        executor.close()  # idempotent
        with pytest.raises(ParallelExecutionError):
            executor.run(range(4), Schedule.parse("Dynamic,1"))


def square_batch(indices):
    return [(int(i), i * i) for i in indices]


class TestBatchedChunks:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("label", ["Static", "Static,2", "Dynamic,1", "Dynamic,4", "Guided,1"])
    def test_batch_results_match_per_task(self, backend, label):
        outcome = run_scheduled_tasks(
            square,
            23,
            Schedule.parse(label),
            n_workers=3,
            backend=backend,
            batch_fn=square_batch,
        )
        assert outcome.ordered_results() == [i * i for i in range(23)]

    def test_chunk_time_apportioned_by_cost_hint(self):
        import numpy as np

        def slow_batch(indices):
            import time as _time

            _time.sleep(0.01)
            return [(int(i), i) for i in indices]

        cost_hint = np.array([3.0, 1.0])
        outcome = run_scheduled_tasks(
            square,
            2,
            Schedule.parse("Dynamic,2"),
            n_workers=1,
            backend=Backend.SERIAL,
            batch_fn=slow_batch,
            cost_hint=cost_hint,
        )
        # Task 0 carries three quarters of the (single) chunk's wall time.
        assert outcome.task_seconds[0] == pytest.approx(3.0 * outcome.task_seconds[1], rel=1e-6)
        assert outcome.sequential_seconds >= 0.01

    def test_batch_size_mismatch_raises(self):
        def broken_batch(indices):
            return [(int(i), i) for i in list(indices)[:-1]]

        with pytest.raises(ParallelExecutionError):
            run_scheduled_tasks(
                square,
                4,
                Schedule.parse("Dynamic,4"),
                n_workers=1,
                backend=Backend.SERIAL,
                batch_fn=broken_batch,
            )

    def test_equal_apportioning_without_hint(self):
        outcome = run_scheduled_tasks(
            tiny_work,
            6,
            Schedule.parse("Dynamic,3"),
            n_workers=2,
            backend=Backend.PROCESS,
            batch_fn=tiny_work_batch,
        )
        assert outcome.task_seconds.shape == (6,)
        assert np.all(outcome.task_seconds >= 0.0)


@pytest.mark.skipif(os.cpu_count() is not None and os.cpu_count() < 2, reason="needs >= 2 CPUs")
class TestProcessBackend:
    def test_closure_task_raises_before_any_chunk_runs(self, tmp_path):
        """Tasks travel to the pool by pickle, so a closure fails at dispatch
        (contract MSG001 enforced at runtime), before any chunk executes."""
        marker = tmp_path / "ran"

        def with_closure(index: int) -> int:
            marker.touch()
            return index

        executor = ScheduledExecutor(with_closure, n_workers=2, backend=Backend.PROCESS)
        with pytest.raises((AttributeError, pickle.PicklingError)):
            with executor:
                executor.run(range(6), Schedule.parse("Dynamic,1"))
        assert not marker.exists()
        assert executor.pool.closed and executor.pool.alive_workers() == 0

    def test_numpy_results_supported(self):
        outcome = run_scheduled_tasks(
            array_task, 5, Schedule.parse("Guided,1"), n_workers=2, backend=Backend.PROCESS
        )
        assert np.allclose(outcome.results[4], 4.0)

    def test_math_heavy_tasks(self):
        outcome = run_scheduled_tasks(
            heavy, 10, Schedule.parse("Dynamic,2"), n_workers=4, backend=Backend.PROCESS
        )
        assert len(outcome.results) == 10
        assert outcome.results[0] == pytest.approx(heavy(0))
