"""Tests that parallel matrix generation reproduces the sequential matrix."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bem.assembly import AssemblyOptions, assemble_system
from repro.bem.elements import DofManager, ElementType
from repro.bem.influence import ColumnAssembler
from repro.kernels.base import kernel_for_soil
from repro.parallel.options import Backend, ParallelOptions
from repro.parallel.parallel_assembly import assemble_system_parallel, generate_columns_parallel
from repro.parallel.schedule import Schedule
from repro.parallel.speedup import SpeedupStudy, measure_speedup, simulate_speedup_curve


@pytest.fixture(scope="module")
def reference_system(small_mesh, uniform_soil):
    return assemble_system(small_mesh, uniform_soil, gpr=1000.0)


class TestOuterLoopParallelAssembly:
    @pytest.mark.parametrize("backend", [Backend.SERIAL, Backend.PROCESS])
    def test_matches_sequential_matrix(self, small_mesh, uniform_soil, reference_system, backend):
        parallel = ParallelOptions(
            n_workers=1 if backend is Backend.SERIAL else 2,
            schedule=Schedule.parse("Dynamic,1"),
            backend=backend,
        )
        system = assemble_system_parallel(
            small_mesh, uniform_soil, gpr=1000.0, parallel=parallel
        )
        assert np.allclose(system.matrix, reference_system.matrix, rtol=1e-14)
        assert np.allclose(system.rhs, reference_system.rhs)
        assert system.metadata["backend"] == backend.value
        assert system.metadata["n_workers"] == parallel.n_workers

    @pytest.mark.parametrize("label", ["Static", "Static,4", "Guided,1"])
    def test_schedule_does_not_change_result(
        self, small_mesh, uniform_soil, reference_system, label
    ):
        parallel = ParallelOptions(
            n_workers=3, schedule=Schedule.parse(label), backend=Backend.PROCESS
        )
        system = assemble_system_parallel(
            small_mesh, uniform_soil, gpr=1000.0, parallel=parallel
        )
        assert np.allclose(system.matrix, reference_system.matrix, rtol=1e-14)

    def test_two_layer_problem_with_process_pool(self, rodded_mesh, two_layer_soil):
        sequential = assemble_system(rodded_mesh, two_layer_soil, gpr=500.0)
        parallel = ParallelOptions(
            n_workers=4, schedule=Schedule.parse("Dynamic,1"), backend=Backend.PROCESS
        )
        system = assemble_system_parallel(
            rodded_mesh, two_layer_soil, gpr=500.0, parallel=parallel
        )
        assert np.allclose(system.matrix, sequential.matrix, rtol=1e-14)

    def test_default_parallel_options_is_serial_single_worker(self, small_mesh, uniform_soil):
        system = assemble_system_parallel(small_mesh, uniform_soil, gpr=1000.0)
        assert system.metadata["backend"] == "serial"
        assert system.metadata["n_workers"] == 1

    def test_metadata_contains_timings(self, small_mesh, uniform_soil):
        parallel = ParallelOptions(n_workers=2, backend=Backend.PROCESS)
        system = assemble_system_parallel(
            small_mesh, uniform_soil, gpr=1000.0, parallel=parallel
        )
        assert system.metadata["parallel_wall_seconds"] > 0.0
        assert len(system.metadata["column_seconds"]) == small_mesh.n_elements
        assert system.metadata["n_chunks"] == small_mesh.n_elements  # Dynamic,1


class TestGenerateColumns:
    def test_column_results_cover_all_columns(self, small_mesh, uniform_soil):
        kernel = kernel_for_soil(uniform_soil)
        dofs = DofManager(small_mesh, ElementType.LINEAR)
        assembler = ColumnAssembler(small_mesh, kernel, dofs, n_gauss=4)
        columns, metadata = generate_columns_parallel(
            assembler, ParallelOptions(n_workers=2, backend=Backend.PROCESS)
        )
        assert [c.source_index for c in columns] == list(range(small_mesh.n_elements))
        assert metadata["parallel_wall_seconds"] > 0.0
        sizes = [c.targets.size for c in columns]
        assert sizes == list(range(small_mesh.n_elements, 0, -1))


class TestSpeedupHelpers:
    def test_measure_speedup_rows(self, small_mesh, uniform_soil):
        study = measure_speedup(
            small_mesh,
            uniform_soil,
            options=AssemblyOptions(),
            processor_counts=(1, 2),
            schedules=[Schedule.parse("Dynamic,1")],
            backend=Backend.PROCESS,
            problem="small",
        )
        assert isinstance(study, SpeedupStudy)
        assert study.reference_seconds > 0.0
        assert len(study.rows) == 2
        matrix = study.speedup_matrix()
        assert matrix["Dynamic,1"][1] == pytest.approx(1.0)
        assert study.best_schedule(2) == "Dynamic,1"
        assert study.column_seconds is not None

    def test_simulate_speedup_curve(self):
        column_seconds = np.linspace(1e-3, 1e-1, 50)[::-1]
        results = simulate_speedup_curve(column_seconds, processor_counts=[1, 2, 4, 8])
        assert [r.n_processors for r in results] == [1, 2, 4, 8]
        speedups = [r.speedup for r in results]
        # The 1-processor simulation still pays the (tiny) scheduling overheads,
        # so its speed-up is marginally below one.
        assert speedups[0] == pytest.approx(1.0, rel=1e-3)
        assert all(b >= a - 1e-9 for a, b in zip(speedups, speedups[1:]))
