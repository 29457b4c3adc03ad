"""Unit and property tests for the OpenMP-style schedules."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ScheduleError
from repro.parallel.schedule import Schedule, ScheduleKind

n_tasks_strategy = st.integers(min_value=0, max_value=300)
n_workers_strategy = st.integers(min_value=1, max_value=32)
chunk_strategy = st.one_of(st.none(), st.integers(min_value=1, max_value=64))
kind_strategy = st.sampled_from(list(ScheduleKind))


class TestParsing:
    def test_parse_with_chunk(self):
        schedule = Schedule.parse("Dynamic,1")
        assert schedule.kind is ScheduleKind.DYNAMIC
        assert schedule.chunk == 1

    def test_parse_without_chunk_static(self):
        schedule = Schedule.parse("Static")
        assert schedule.kind is ScheduleKind.STATIC
        assert schedule.chunk is None

    def test_parse_without_chunk_dynamic_defaults_to_one(self):
        assert Schedule.parse("dynamic").chunk == 1
        assert Schedule.parse("guided").chunk == 1

    def test_parse_case_insensitive_and_spaces(self):
        schedule = Schedule.parse(" GUIDED , 16 ")
        assert schedule.kind is ScheduleKind.GUIDED
        assert schedule.chunk == 16

    def test_parse_errors(self):
        with pytest.raises(ScheduleError):
            Schedule.parse("")
        with pytest.raises(ScheduleError):
            Schedule.parse("roundrobin,2")
        with pytest.raises(ScheduleError):
            Schedule.parse("static,abc")

    def test_label_round_trip(self):
        for text in ("Static", "Static,64", "Dynamic,1", "Guided,16"):
            assert Schedule.parse(text).label() == text

    def test_invalid_chunk(self):
        with pytest.raises(ScheduleError):
            Schedule(kind=ScheduleKind.DYNAMIC, chunk=0)

    @pytest.mark.parametrize("chunk", [1.5, 0.5, float("nan"), float("inf"), "two"])
    def test_non_integral_chunk(self, chunk):
        with pytest.raises(ScheduleError):
            Schedule(kind=ScheduleKind.DYNAMIC, chunk=chunk)

    def test_integral_float_chunk_accepted(self):
        assert Schedule(kind=ScheduleKind.DYNAMIC, chunk=4.0).label() == "Dynamic,4"

    def test_kind_from_string(self):
        assert Schedule(kind="static", chunk=None).kind is ScheduleKind.STATIC


class TestStaticAssignment:
    def test_default_static_blocks(self):
        schedule = Schedule(ScheduleKind.STATIC, None)
        assignment = schedule.static_assignment(10, 3)
        assert assignment == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_static_chunked_round_robin(self):
        schedule = Schedule(ScheduleKind.STATIC, 2)
        assignment = schedule.static_assignment(10, 2)
        assert assignment == [[0, 1, 4, 5, 8, 9], [2, 3, 6, 7]]

    def test_static_chunk_one_interleaves(self):
        schedule = Schedule(ScheduleKind.STATIC, 1)
        assignment = schedule.static_assignment(6, 3)
        assert assignment == [[0, 3], [1, 4], [2, 5]]

    def test_zero_tasks(self):
        schedule = Schedule(ScheduleKind.STATIC, 1)
        assert schedule.static_assignment(0, 4) == [[], [], [], []]

    def test_non_static_raises(self):
        with pytest.raises(ScheduleError):
            Schedule(ScheduleKind.DYNAMIC, 1).static_assignment(10, 2)

    def test_more_workers_than_tasks(self):
        schedule = Schedule(ScheduleKind.STATIC, None)
        assignment = schedule.static_assignment(2, 8)
        flat = [i for worker in assignment for i in worker]
        assert sorted(flat) == [0, 1]

    @given(n_tasks=n_tasks_strategy, n_workers=n_workers_strategy, chunk=chunk_strategy)
    @settings(max_examples=100, deadline=None)
    def test_static_assignment_partitions_tasks(self, n_tasks, n_workers, chunk):
        schedule = Schedule(ScheduleKind.STATIC, chunk)
        assignment = schedule.static_assignment(n_tasks, n_workers)
        assert len(assignment) == n_workers
        flat = sorted(i for worker in assignment for i in worker)
        assert flat == list(range(n_tasks))


class TestChunkSequence:
    def test_dynamic_chunks(self):
        schedule = Schedule(ScheduleKind.DYNAMIC, 4)
        chunks = schedule.chunk_sequence(10, 3)
        assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_guided_chunks_shrink(self):
        schedule = Schedule(ScheduleKind.GUIDED, 1)
        chunks = schedule.chunk_sequence(100, 4)
        sizes = [len(c) for c in chunks]
        # First chunk is remaining / (2 P) = 100 / 8, rounded up.
        assert sizes[0] == 13
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] >= 1

    def test_guided_respects_minimum_chunk(self):
        schedule = Schedule(ScheduleKind.GUIDED, 8)
        sizes = [len(c) for c in schedule.chunk_sequence(100, 4)]
        assert all(size >= 8 for size in sizes[:-1])

    def test_zero_tasks_empty(self):
        assert Schedule(ScheduleKind.DYNAMIC, 1).chunk_sequence(0, 4) == []

    def test_invalid_sizes(self):
        with pytest.raises(ScheduleError):
            Schedule(ScheduleKind.DYNAMIC, 1).chunk_sequence(-1, 2)
        with pytest.raises(ScheduleError):
            Schedule(ScheduleKind.DYNAMIC, 1).chunk_sequence(5, 0)

    def test_n_chunks(self):
        assert Schedule(ScheduleKind.DYNAMIC, 1).n_chunks(10, 4) == 10
        assert Schedule(ScheduleKind.DYNAMIC, 4).n_chunks(10, 4) == 3

    @given(
        n_tasks=n_tasks_strategy,
        n_workers=n_workers_strategy,
        chunk=chunk_strategy,
        kind=kind_strategy,
    )
    @settings(max_examples=100, deadline=None)
    def test_chunk_sequence_covers_all_tasks_once(self, n_tasks, n_workers, chunk, kind):
        schedule = Schedule(kind, chunk)
        chunks = schedule.chunk_sequence(n_tasks, n_workers)
        flat = [i for chunk_ in chunks for i in chunk_]
        assert sorted(flat) == list(range(n_tasks))
        # Chunks contain consecutive iterations (OpenMP semantics).
        for chunk_ in chunks:
            assert chunk_ == list(range(chunk_[0], chunk_[0] + len(chunk_)))

    @given(n_tasks=st.integers(min_value=1, max_value=300), n_workers=n_workers_strategy)
    @settings(max_examples=50, deadline=None)
    def test_dynamic_one_produces_one_chunk_per_task(self, n_tasks, n_workers):
        schedule = Schedule(ScheduleKind.DYNAMIC, 1)
        assert schedule.n_chunks(n_tasks, n_workers) == n_tasks
