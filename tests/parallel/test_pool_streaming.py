"""Streamed pool results: one digest-headed frame per finished task.

A worker answers a chunk with one frame per task, ``blake2b-16 digest ‖
pickle(("part", job, dispatch, is_last, [(index, value, seconds)]))``, and
the master checks the digest on the bytes before it unpickles anything.  The
chunk stays the unit of retry: a damaged frame fails its whole dispatch, the
worker's remaining frames of that dispatch are dropped as stale, and the
retried chunk is bitwise equal to a fault-free run.  Because blocks arrive
and fold one at a time, the master's transient memory during a pooled
hierarchical assembly stays within a small multiple of the operator it
builds.
"""

from __future__ import annotations

import gc
import time
import tracemalloc

import numpy as np
import pytest

from repro.bem.assembly import AssemblyOptions, assemble_system
from repro.cluster import HierarchicalControl
from repro.cluster.operator import assemble_hierarchical_steps
from repro.geometry.builder import GridBuilder
from repro.geometry.discretize import discretize_grid
from repro.observe import Tracer
from repro.parallel.pool import WorkerPool
from repro.resilience import FaultPlan, RetryPolicy
from repro.soil import TwoLayerSoil

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


class SlowSquareTask:
    """Deterministic picklable task that takes a little while per index."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds

    def __call__(self, index: int) -> np.ndarray:
        time.sleep(self.seconds)
        return np.arange(5.0) * (index + 1) ** 3


def events_named(tracer: Tracer, name: str) -> list:
    return [node for root in tracer.roots for node in root.walk() if node.name == name]


class TestCorruptFrameRetry:
    #: Worker 0's first chunk holds four tasks; its first frame is damaged.
    PARTITION = [[0, 2, 4, 6], [1, 3]]

    def run(self, fault_plan, tracer=None):
        # No backoff: the retry is dispatched while the worker is still
        # streaming the damaged dispatch, so its later frames arrive stale.
        retry = RetryPolicy(backoff_base=0.0)
        with WorkerPool(2, retry=retry, fault_plan=fault_plan, tracer=tracer) as pool:
            outcome = pool.run_partition(SlowSquareTask(0.05), self.PARTITION)
            return outcome, pool.health

    def test_first_frame_rejected_once_stale_frames_dropped(self):
        reference, clean = self.run(None)
        assert not clean.faults_survived
        tracer = Tracer()
        outcome, health = self.run(FaultPlan.single(0, 0, "corrupt"), tracer)
        assert health.corrupt_rejections == 1
        assert health.retries == 1
        assert health.respawns == 0  # the worker itself is healthy
        # The three intact frames after the damaged one belong to the
        # superseded dispatch: none of them is folded.
        assert len(events_named(tracer, "pool.stale_frame")) == 3
        assert sorted(outcome.results) == sorted(reference.results)
        for key, value in reference.results.items():
            assert outcome.results[key].tobytes() == value.tobytes()

    def test_unverified_damage_lands_in_the_first_task_only(self):
        """verify_payloads=False sends zero digests: the damage is folded."""
        reference, _ = self.run(None)
        retry = RetryPolicy(verify_payloads=False)
        with WorkerPool(2, retry=retry, fault_plan=FaultPlan.single(0, 0, "corrupt")) as pool:
            outcome = pool.run_partition(SlowSquareTask(0.0), self.PARTITION)
            assert pool.health.corrupt_rejections == 0
        damaged = [
            key
            for key in reference.results
            if not np.array_equal(outcome.results[key], reference.results[key])
        ]
        assert damaged == [0]


class TestTake:
    """``WorkerPool.take`` hands a run's finished chunks over while it is in flight."""

    #: Worker 0's first chunk holds four tasks, worker 1's two.
    PARTITION = [[0, 2, 4, 6], [1, 3]]

    def drain(self, pool, run):
        """Take chunks until the run is done; each value must come once."""
        values: dict[int, np.ndarray] = {}
        taken_in_flight = 0
        while True:
            for chunk_output in pool.take(run):
                taken_in_flight += not run.done
                for task_id, value, seconds in chunk_output:
                    assert task_id not in values, f"task {task_id} handed over twice"
                    assert seconds > 0.0
                    values[task_id] = value
            if run.done:
                break
            pool.service()
        assert pool.take(run) == []  # nothing is handed over twice
        return values, taken_in_flight

    def reference(self):
        with WorkerPool(2) as pool:
            return pool.run_partition(SlowSquareTask(0.05), self.PARTITION).results

    def test_pulled_run_hands_every_value_over_once(self):
        reference = self.reference()
        with WorkerPool(2) as pool:
            run = pool.submit(SlowSquareTask(0.05), self.PARTITION, pull=True)
            values, taken_in_flight = self.drain(pool, run)
            outcome = pool.result(run)
        assert taken_in_flight >= 1  # the short chunk came before the run ended
        assert sorted(values) == sorted(reference) == [0, 1, 2, 3, 4, 6]
        for key, value in reference.items():
            assert values[key].tobytes() == value.tobytes()
        # The run kept every task's time and none of the values it handed over.
        assert outcome.results == {}
        assert outcome.task_seconds.shape == (6,)
        assert np.all(outcome.task_seconds > 0.0)

    @pytest.mark.parametrize("kind", ["crash", "corrupt"])
    def test_retried_chunk_is_handed_over_once(self, kind):
        """A fault on worker 0's four-task chunk retries it; the consumer
        still sees each of its values once, equal to the undisturbed run."""
        reference = self.reference()
        retry = RetryPolicy(backoff_base=0.0)
        with WorkerPool(2, retry=retry, fault_plan=FaultPlan.single(0, 0, kind)) as pool:
            run = pool.submit(SlowSquareTask(0.05), self.PARTITION)
            values, _ = self.drain(pool, run)
            outcome = pool.result(run)
            assert pool.health.retries == 1
        assert sorted(values) == sorted(reference)
        for key, value in reference.items():
            assert values[key].tobytes() == value.tobytes()
        assert outcome.results == {}
        assert np.all(outcome.task_seconds > 0.0)


def _grid_case():
    """The pooled 32 x 32 grid of the ``hier-grid`` workload: mesh, soil, options."""
    soil = TwoLayerSoil(0.005, 0.016, 1.0)
    grid = GridBuilder(depth=0.8, conductor_radius=6.0e-3).rectangular_mesh(
        160.0, 160.0, 32, 32
    )
    mesh = discretize_grid(grid, soil=soil)
    return mesh, soil, AssemblyOptions(hierarchical=HierarchicalControl(workers=2))


class TestMasterPeak:
    @pytest.fixture(scope="class")
    def traced_peak(self):
        """The master's traced peak during a pooled 32 x 32 grid assembly, and
        the bytes of the operator it returns."""
        mesh, soil, options = _grid_case()
        # Fork the workers before tracing starts so they run untraced; the
        # first assembly warms the master's caches for this mesh.
        with WorkerPool(2) as pool:
            assemble_system(mesh, soil, gpr=1000.0, options=options, pool=pool)
            gc.collect()
            tracemalloc.start()
            try:
                system = assemble_system(mesh, soil, gpr=1000.0, options=options, pool=pool)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        return peak, system.matrix.memory_bytes()

    def test_pooled_hierarchical_assembly_peak_is_bounded(self, traced_peak):
        """The master's traced peak stays within 3.75x the operator it
        returns (2.59x when blocks stream and fold one at a time, far factors
        summed per dof in the workers and the near field folded first: 17.1
        MB against a 6.6 MB operator; 2.99x when the master summed the far
        factors and folded them first; 4.33x when each worker shipped its
        whole shard as one message, verified by re-pickling it)."""
        peak, operator_bytes = traced_peak
        assert peak <= 3.75 * operator_bytes, (peak / 1e6, operator_bytes / 1e6)

    def test_master_peak_with_far_factors_summed_in_workers(self, traced_peak):
        """Workers ship far factors summed per dof and the master folds the
        near field first: 2.59x the operator (2.99x, 19.7 MB, when the master
        summed each far block itself and folded the far field first)."""
        peak, operator_bytes = traced_peak
        assert peak <= 2.75 * operator_bytes, (peak / 1e6, operator_bytes / 1e6)

    def test_far_payload_is_no_larger_than_the_far_field(self):
        """The far outcomes the master receives — int32 dofs and their
        per-dof factor rows — take no more bytes than the far field packed
        from them (4.2 against 4.6 MB here).  Far factors over element basis
        rows took 12.6 MB, plus 0.7 MB of dof index arrays the master built."""
        mesh, soil, options = _grid_case()
        with WorkerPool(2) as pool:
            steps = assemble_hierarchical_steps(mesh, soil, 1000.0, options, pool=pool)
            outcome = next(steps).run(pool)
            far = [block for block in outcome.results.values() if block.kind == "far"]
            assert far
            payload = sum(
                array.nbytes
                for block in far
                for array in (block.rows, block.cols, block.u, block.v)
            )
            with pytest.raises(StopIteration) as stop:
                steps.send(outcome)
        far_bytes = stop.value.value.matrix.far.memory_bytes()
        assert payload <= far_bytes, (payload / 1e6, far_bytes / 1e6)
