"""Chaos matrix: {crash, hang, corrupt} × {assembly, matvec, campaign, dense}.

The acceptance contract of the resilience layer: for every fault kind fired
into every pool-served stage, the recovered run is **bit-identical** to the
fault-free run (equal PCG iterate counts included) and the
:class:`~repro.resilience.PoolHealth` counters prove the fault actually
fired.  All runs use a 2-worker process pool — the smallest pool where
"kill one worker" and "keep the other working" are distinct events.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bem.assembly import AssemblyOptions, assemble_system
from repro.campaign import Campaign, GeometryVariant, ScenarioSpec, run_campaign
from repro.cluster import HierarchicalControl
from repro.parallel import executor
from repro.parallel.options import ParallelOptions
from repro.parallel.parallel_assembly import assemble_system_parallel
from repro.parallel.pool import WorkerPool
from repro.resilience import FaultPlan, RetryPolicy
from repro.soil.two_layer import TwoLayerSoil
from repro.solvers import solve_system

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

FAULT_KINDS = ("crash", "hang", "corrupt")

#: Deadline for the hang tests: generous against slow CI hosts, small enough
#: to keep the suite fast.  Crash/corrupt faults need no deadline at all.
HANG_TIMEOUT = 2.5

LEAF_SIZE = 8


def _retry(kind: str) -> RetryPolicy:
    timeout = HANG_TIMEOUT if kind == "hang" else None
    return RetryPolicy(chunk_timeout=timeout, backoff_base=0.01)


def _assert_fault_fired(health, kind: str) -> None:
    if kind == "crash":
        assert health.respawns >= 1
    elif kind == "hang":
        assert health.chunk_timeouts >= 1 and health.hung_kills >= 1
    else:
        assert health.corrupt_rejections >= 1
    assert health.retries >= 1


# --------------------------------------------------------------------------- assembly


def _assemble_on_pool(mesh, soil, pool):
    return assemble_system(
        mesh,
        soil,
        gpr=10_000.0,
        options=AssemblyOptions(
            hierarchical=HierarchicalControl(leaf_size=LEAF_SIZE)
        ),
        pool=pool,
    )


@pytest.fixture(scope="module")
def assembly_reference(small_mesh, uniform_soil):
    with WorkerPool(2) as pool:
        system = _assemble_on_pool(small_mesh, uniform_soil, pool)
    solved = solve_system(system.matrix, system.rhs, method="pcg", tolerance=1e-12)
    return system, solved


class TestAssemblyChaos:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_faulty_assembly_bit_identical(
        self, kind, small_mesh, uniform_soil, assembly_reference
    ):
        reference_system, reference_solved = assembly_reference
        plan = FaultPlan.single(0, 0, kind)
        with WorkerPool(2, retry=_retry(kind), fault_plan=plan) as pool:
            system = _assemble_on_pool(small_mesh, uniform_soil, pool)
            _assert_fault_fired(pool.health, kind)
        np.testing.assert_array_equal(
            system.matrix.todense(), reference_system.matrix.todense()
        )
        np.testing.assert_array_equal(system.rhs, reference_system.rhs)
        solved = solve_system(system.matrix, system.rhs, method="pcg", tolerance=1e-12)
        np.testing.assert_array_equal(solved.solution, reference_solved.solution)
        assert solved.iterations == reference_solved.iterations


# --------------------------------------------------------------------------- matvec


class RowDotTask:
    """Pool-level matvec shard: one matrix row dotted with a fixed operand."""

    def __init__(self, matrix: np.ndarray, operand: np.ndarray) -> None:
        self.matrix = matrix
        self.operand = operand

    def __call__(self, row: int) -> float:
        return float(self.matrix[int(row)] @ self.operand)


def _matvec_inputs() -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
    n = 12
    matrix = np.arange(float(n * n)).reshape(n, n) / 7.0
    operand = np.linspace(-1.0, 1.0, n)
    partition = [[0, 4, 8], [1, 5, 9], [2, 6, 10], [3, 7, 11]]
    return matrix, operand, partition


class TestMatvecChaos:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_faulty_matvec_bit_identical(self, kind):
        matrix, operand, partition = _matvec_inputs()
        task = RowDotTask(matrix, operand)
        # Reference: the same per-row reduction, computed in-process — the
        # contract is "recovered run == undisturbed run", not "== BLAS gemv".
        expected = np.array([task(row) for row in range(matrix.shape[0])])
        plan = FaultPlan.single(1, 0, kind)
        with WorkerPool(2, retry=_retry(kind), fault_plan=plan) as pool:
            outcome = pool.run_partition(task, partition)
            _assert_fault_fired(pool.health, kind)
        result = np.array([outcome.results[row] for row in range(matrix.shape[0])])
        np.testing.assert_array_equal(result, expected)


# --------------------------------------------------------------------------- campaign


def _chaos_campaign() -> Campaign:
    geometry = GeometryVariant(name="g", width=24.0, height=24.0, nx=4, ny=4)
    soil = TwoLayerSoil(0.005, 0.016, 1.0)
    return Campaign(
        name="chaos",
        scenarios=(
            ScenarioSpec(name="base", geometry=geometry, soil=soil),
            ScenarioSpec(name="hot", geometry=geometry, soil=soil, gpr=15_000.0),
        ),
        hierarchical=HierarchicalControl(leaf_size=LEAF_SIZE),
        solver_tolerance=1.0e-12,
        assess_safety=False,
    )


@pytest.fixture(scope="module")
def campaign_reference():
    return run_campaign(_chaos_campaign(), workers=2)


class TestCampaignChaos:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_faulty_campaign_bit_identical(self, kind, campaign_reference):
        plan = FaultPlan.single(0, 0, kind)
        result = run_campaign(
            _chaos_campaign(), workers=2, retry=_retry(kind), fault_plan=plan
        )
        assert not result.is_partial
        counters = result.cache_stats["pool"]
        if kind == "crash":
            assert counters["respawns"] >= 1
        elif kind == "hang":
            assert counters["chunk_timeouts"] >= 1
        else:
            assert counters["corrupt_rejections"] >= 1
        assert counters["retries"] >= 1
        for name in ("base", "hot"):
            faulty = result.scenario(name)
            clean = campaign_reference.scenario(name)
            np.testing.assert_array_equal(faulty.dof_values, clean.dof_values)
            assert faulty.solver_iterations == clean.solver_iterations


# --------------------------------------------------------------------------- dense column loop

DENSE_SCHEDULES = ("Static", "Dynamic,1")


def _assemble_dense(mesh, soil, schedule: str):
    return assemble_system_parallel(
        mesh,
        soil,
        gpr=10_000.0,
        parallel=ParallelOptions(n_workers=2, schedule=schedule),
    )


@pytest.fixture(scope="module")
def dense_reference(rodded_mesh, two_layer_soil):
    return {
        schedule: _assemble_dense(rodded_mesh, two_layer_soil, schedule)
        for schedule in DENSE_SCHEDULES
    }


class TestDenseChaos:
    """The paper's column loop runs on a transient pool the executor opens;
    a pool subclass carrying the fault plan stands in for it."""

    @pytest.mark.parametrize("schedule", DENSE_SCHEDULES)
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_faulty_dense_assembly_bit_identical(
        self, kind, schedule, monkeypatch, rodded_mesh, two_layer_soil, dense_reference
    ):
        pools: list[WorkerPool] = []

        class FaultyPool(WorkerPool):
            def __init__(self, n_workers, **kwargs):
                super().__init__(
                    n_workers,
                    retry=_retry(kind),
                    fault_plan=FaultPlan.single(0, 0, kind),
                    **kwargs,
                )
                pools.append(self)

        monkeypatch.setattr(executor, "WorkerPool", FaultyPool)
        system = _assemble_dense(rodded_mesh, two_layer_soil, schedule)
        assert len(pools) == 1 and pools[0].closed
        _assert_fault_fired(pools[0].health, kind)
        reference = dense_reference[schedule]
        np.testing.assert_array_equal(system.matrix, reference.matrix)
        np.testing.assert_array_equal(system.rhs, reference.rhs)
