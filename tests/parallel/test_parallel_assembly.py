"""Tests that parallel matrix generation reproduces the sequential matrix.

:class:`TestGoldenDeterminism` is the dense paper loop's part of the golden
determinism suite (the hierarchical builder's is in ``test_block_backend.py``):
with the exact engine, the serial driver and every worker count and schedule
give one matrix and right-hand side, bit for bit; with the default adaptive
engine, so do the serial driver and every one-worker schedule, and the runs
that evaluate one column per call.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.bem.assembly import AssemblyOptions, assemble_system
from repro.bem.elements import DofManager, ElementType
from repro.bem.influence import ColumnAssembler
from repro.kernels.base import kernel_for_soil
from repro.parallel.executor import ScheduledExecutor
from repro.parallel.options import ParallelOptions
from repro.parallel.parallel_assembly import _ColumnChunk, assemble_system_parallel
from repro.parallel.schedule import Schedule

SCHEDULES = ("Static", "Static,3", "Dynamic,1", "Dynamic,4", "Guided,2")


@pytest.fixture(scope="module")
def reference_system(small_mesh, uniform_soil):
    return assemble_system(small_mesh, uniform_soil, gpr=1000.0)


class TestOuterLoopParallelAssembly:
    @pytest.mark.parametrize(
        "n_workers", [pytest.param(1, id="serial"), pytest.param(2, id="process")]
    )
    def test_matches_sequential_matrix(
        self, small_mesh, uniform_soil, reference_system, n_workers
    ):
        parallel = ParallelOptions(n_workers=n_workers, schedule=Schedule.parse("Dynamic,1"))
        system = assemble_system_parallel(
            small_mesh, uniform_soil, gpr=1000.0, parallel=parallel
        )
        assert np.allclose(system.matrix, reference_system.matrix, rtol=1e-14)
        assert np.allclose(system.rhs, reference_system.rhs)
        # One worker runs in process; more report the pool the run used.
        assert system.metadata["backend"] == ("sequential" if n_workers == 1 else "process")
        assert system.metadata["n_workers"] == parallel.n_workers

    @pytest.mark.parametrize("label", ["Static", "Static,4", "Guided,1"])
    def test_schedule_does_not_change_result(
        self, small_mesh, uniform_soil, reference_system, label
    ):
        parallel = ParallelOptions(n_workers=3, schedule=Schedule.parse(label))
        system = assemble_system_parallel(
            small_mesh, uniform_soil, gpr=1000.0, parallel=parallel
        )
        assert np.allclose(system.matrix, reference_system.matrix, rtol=1e-14)

    def test_two_layer_problem_with_process_pool(self, rodded_mesh, two_layer_soil):
        sequential = assemble_system(rodded_mesh, two_layer_soil, gpr=500.0)
        parallel = ParallelOptions(n_workers=4, schedule=Schedule.parse("Dynamic,1"))
        system = assemble_system_parallel(
            rodded_mesh, two_layer_soil, gpr=500.0, parallel=parallel
        )
        assert np.allclose(system.matrix, sequential.matrix, rtol=1e-14)

    def test_default_parallel_options_is_serial_single_worker(self, small_mesh, uniform_soil):
        system = assemble_system_parallel(small_mesh, uniform_soil, gpr=1000.0)
        assert system.metadata["backend"] == "sequential"
        assert system.metadata["n_workers"] == 1

    def test_metadata_contains_timings(self, small_mesh, uniform_soil):
        parallel = ParallelOptions(n_workers=2)
        system = assemble_system_parallel(
            small_mesh, uniform_soil, gpr=1000.0, parallel=parallel, collect_column_times=True
        )
        assert system.metadata["parallel_wall_seconds"] > 0.0
        assert len(system.metadata["column_seconds"]) == small_mesh.n_elements
        assert system.metadata["n_chunks"] == small_mesh.n_elements  # Dynamic,1


class TestGenerateColumns:
    def test_column_results_cover_all_columns(self, small_mesh, uniform_soil):
        kernel = kernel_for_soil(uniform_soil)
        dofs = DofManager(small_mesh, ElementType.LINEAR)
        assembler = ColumnAssembler(small_mesh, kernel, dofs, n_gauss=4)
        m = small_mesh.n_elements
        results: dict = {}
        with ScheduledExecutor(_ColumnChunk(assembler), n_workers=2) as executor:
            outcome = executor.run(
                range(m),
                Schedule.parse("Static,3"),
                lambda index, pair, _: results.__setitem__(index, pair),
            )
        assert sorted(results) == list(range(m))
        assert outcome.wall_seconds > 0.0
        sizes = [results[index][0].size for index in range(m)]
        assert sizes == list(range(m, 0, -1))


def _sha256(system) -> str:
    digest = hashlib.sha256(system.matrix.tobytes())
    digest.update(system.rhs.tobytes())
    return digest.hexdigest()


class TestGoldenDeterminism:
    def test_one_hash_across_drivers_workers_and_schedules(self, full_barbera):
        """Serial ``assemble_system`` and ``assemble_system_parallel`` at
        {1, 2} workers x five schedules fold the same column groups in the
        same order: one sha256 of matrix + rhs on the full Barberá mesh."""
        mesh, soil, gpr = full_barbera
        exact = AssemblyOptions(adaptive=None)
        hashes = {"serial": _sha256(assemble_system(mesh, soil, gpr=gpr, options=exact))}
        for n_workers in (1, 2):
            for label in SCHEDULES:
                parallel = ParallelOptions(n_workers=n_workers, schedule=Schedule.parse(label))
                system = assemble_system_parallel(
                    mesh, soil, gpr=gpr, options=exact, parallel=parallel
                )
                hashes[(n_workers, label)] = _sha256(system)
        assert len(set(hashes.values())) == 1, hashes

    def test_adaptive_one_worker_matches_serial_for_every_schedule(self, full_barbera):
        """Default engine: one worker evaluates one fold group per call, as the
        serial driver does, whatever the schedule: one sha256."""
        mesh, soil, gpr = full_barbera
        serial = assemble_system(mesh, soil, gpr=gpr)
        assert serial.metadata["n_chunks"] == 51  # one per 8-column fold group
        hashes = {"serial": _sha256(serial)}
        for label in SCHEDULES:
            parallel = ParallelOptions(n_workers=1, schedule=Schedule.parse(label))
            system = assemble_system_parallel(
                mesh, soil, gpr=gpr, parallel=parallel, collect_column_times=False
            )
            assert system.metadata["n_chunks"] == 51
            hashes[label] = _sha256(system)
        assert len(set(hashes.values())) == 1, hashes

    def test_adaptive_one_column_per_call_runs_agree(self, full_barbera):
        """Default engine: timed serial, timed one-worker and two-worker
        ``Dynamic,1`` all evaluate one column per call: one sha256."""
        mesh, soil, gpr = full_barbera
        dynamic = Schedule.parse("Dynamic,1")
        hashes = {
            "serial": _sha256(assemble_system(mesh, soil, gpr=gpr, collect_column_times=True))
        }
        for n_workers in (1, 2):
            parallel = ParallelOptions(n_workers=n_workers, schedule=dynamic)
            system = assemble_system_parallel(
                mesh, soil, gpr=gpr, parallel=parallel, collect_column_times=True
            )
            hashes[n_workers] = _sha256(system)
        assert len(set(hashes.values())) == 1, hashes


def _traced_peak(assemble) -> int:
    assemble()  # warm the caches: measure the second call
    tracemalloc.start()
    try:
        assemble()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOneWorkerMemory:
    def test_one_worker_peak_matches_serial(self, full_barbera):
        """One worker streams its fold groups as the serial driver does; it
        never holds every column (13x the serial peak when it did)."""
        mesh, soil, gpr = full_barbera
        serial = _traced_peak(lambda: assemble_system(mesh, soil, gpr=gpr))
        parallel = ParallelOptions(n_workers=1)
        one_worker = _traced_peak(
            lambda: assemble_system_parallel(
                mesh, soil, gpr=gpr, parallel=parallel, collect_column_times=False
            )
        )
        assert one_worker <= 1.5 * serial, (one_worker / 1e6, serial / 1e6)


class TestTwoWorkerMemory:
    def test_master_peak_stays_below_the_stored_columns(self, full_barbera):
        """Two workers, ``Dynamic,1``: the master folds each chunk as it
        arrives, so its traced peak stays under 1.25x the bytes of every
        column's blocks (32 B per element pair, 2.68 MB here).

        Measured 2.25 MB (0.84x), against 5.32 MB (1.99x) when the executor
        stored every column until the run ended; the bound is 1.48x the
        measurement and trips once about 40 % of the columns are held at once.
        """
        mesh, soil, gpr = full_barbera
        m = mesh.n_elements
        stored = m * (m + 1) // 2 * 4 * 8  # one 2x2 float64 block per element pair
        parallel = ParallelOptions(n_workers=2, schedule=Schedule.parse("Dynamic,1"))
        peak = _traced_peak(
            lambda: assemble_system_parallel(
                mesh, soil, gpr=gpr, parallel=parallel, collect_column_times=False
            )
        )
        assert peak <= 1.25 * stored, (peak / 1e6, stored / 1e6)
