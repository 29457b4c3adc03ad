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


class TestMasterPeak:
    def test_pooled_hierarchical_assembly_peak_is_bounded(self):
        """The master's traced peak during a pooled 32 x 32 grid assembly
        stays within 3.75x the operator it returns (3.17x when blocks stream
        and fold one at a time; 4.33x when each worker shipped its whole
        shard as one message, verified by re-pickling it)."""
        soil = TwoLayerSoil(0.005, 0.016, 1.0)
        grid = GridBuilder(depth=0.8, conductor_radius=6.0e-3).rectangular_mesh(
            160.0, 160.0, 32, 32
        )
        mesh = discretize_grid(grid, soil=soil)
        options = AssemblyOptions(hierarchical=HierarchicalControl(workers=2))
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
        operator_bytes = system.matrix.memory_bytes()
        assert peak <= 3.75 * operator_bytes, (peak / 1e6, operator_bytes / 1e6)
