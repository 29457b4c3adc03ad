"""Tests for ParallelOptions, the timers and the machine model."""

from __future__ import annotations

import dataclasses
import os
import time

import pytest

from repro.exceptions import ScheduleError
from repro.parallel.machine import MachineModel
from repro.parallel.options import ParallelOptions
from repro.parallel.schedule import ScheduleKind
from repro.timing import PhaseTimer, Timer


class TestParallelOptions:
    def test_defaults(self):
        options = ParallelOptions()
        assert options.n_workers == (os.cpu_count() or 1)
        assert options.schedule.kind is ScheduleKind.DYNAMIC

    def test_string_coercion(self):
        options = ParallelOptions(n_workers=4, schedule="static,2")
        assert options.schedule.label() == "Static,2"

    def test_fields_are_workers_and_schedule(self):
        assert [f.name for f in dataclasses.fields(ParallelOptions)] == [
            "n_workers",
            "schedule",
        ]

    def test_rejects_bad_workers(self):
        with pytest.raises(ScheduleError):
            ParallelOptions(n_workers=-2)

    @pytest.mark.parametrize(
        "n_workers",
        [
            pytest.param(2.5, id="non_integral"),
            pytest.param(float("nan"), id="nan"),
            pytest.param(float("inf"), id="inf"),
            pytest.param(True, id="bool"),
        ],
    )
    def test_rejects_non_whole_workers(self, n_workers):
        with pytest.raises(ScheduleError, match="whole number"):
            ParallelOptions(n_workers=n_workers)

    def test_zero_and_integral_float_workers(self):
        assert ParallelOptions(n_workers=0).n_workers == (os.cpu_count() or 1)
        assert ParallelOptions(n_workers=2.0).n_workers == 2


class TestTimer:
    def test_context_manager_accumulates(self):
        timer = Timer()
        with timer:
            time.sleep(0.01)
        first = timer.elapsed
        with timer:
            time.sleep(0.01)
        assert timer.elapsed > first
        assert not timer.running

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_running_flag(self):
        timer = Timer().start()
        assert timer.running
        timer.stop()
        assert not timer.running


class TestPhaseTimer:
    def test_phases_recorded_in_order(self):
        timer = PhaseTimer()
        with timer.phase("a"):
            pass
        with timer.phase("b"):
            pass
        assert list(timer.as_dict()) == ["a", "b"]

    def test_add_and_total(self):
        timer = PhaseTimer()
        timer.add("x", 1.0)
        timer.add("x", 0.5)
        timer.add("y", 2.5)
        assert timer["x"] == pytest.approx(1.5)
        assert timer.total == pytest.approx(4.0)
        assert timer.fraction("y") == pytest.approx(0.625)
        assert "x" in timer

    def test_fraction_of_empty_timer(self):
        assert PhaseTimer().fraction("anything") == 0.0


class TestMachineModel:
    def test_validation(self):
        with pytest.raises(ScheduleError):
            MachineModel(n_processors=0)
        with pytest.raises(ScheduleError):
            MachineModel(n_processors=2, chunk_dispatch_overhead=-1.0)
        with pytest.raises(ScheduleError):
            MachineModel(n_processors=2, relative_speed=0.0)

    @pytest.mark.parametrize(
        "field",
        ["chunk_dispatch_overhead", "fork_join_overhead", "per_task_overhead", "relative_speed"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ScheduleError):
            MachineModel(n_processors=4, **{field: value})

    def test_origin2000_defaults(self):
        machine = MachineModel.origin2000()
        assert machine.n_processors == 64
        assert machine.chunk_dispatch_overhead > 0.0

    def test_ideal_has_no_overheads(self):
        machine = MachineModel.ideal(8)
        assert machine.chunk_dispatch_overhead == 0.0
        assert machine.fork_join_overhead == 0.0

    def test_with_processors(self):
        machine = MachineModel.origin2000(64).with_processors(8)
        assert machine.n_processors == 8
        assert machine.chunk_dispatch_overhead == MachineModel.origin2000().chunk_dispatch_overhead

    def test_scaled_cost(self):
        machine = MachineModel(n_processors=4, relative_speed=2.0)
        assert machine.scaled_cost(1.5) == pytest.approx(3.0)
