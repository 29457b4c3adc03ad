"""Unit tests of the fault-injection harness (plans, injector, corruption)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.exceptions import ResilienceError
from repro.resilience import FaultPlan, FaultSpec, corrupt_payload, frame_digest
from repro.resilience.faults import FaultInjector, iter_fault_matrix


def digest(parts):
    """The frame digest of a task list, over the bytes a worker would send."""
    return frame_digest(pickle.dumps(parts, protocol=pickle.HIGHEST_PROTOCOL))


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ResilienceError, match="unknown fault kind"):
            FaultSpec(0, 0, "explode")

    def test_negative_coordinates_rejected(self):
        with pytest.raises(ResilienceError, match="worker slot"):
            FaultSpec(-1, 0, "crash")
        with pytest.raises(ResilienceError, match="chunk index"):
            FaultSpec(0, -1, "crash")

    def test_delay_needs_a_duration(self):
        with pytest.raises(ResilienceError, match="seconds > 0"):
            FaultSpec(0, 0, "delay")
        FaultSpec(0, 0, "delay", seconds=0.1)  # fine

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf")])
    def test_non_finite_seconds_rejected(self, seconds):
        with pytest.raises(ResilienceError, match="finite"):
            FaultSpec(0, 0, "delay", seconds=seconds)

    def test_repeats_must_be_positive(self):
        with pytest.raises(ResilienceError, match="repeats"):
            FaultSpec(0, 0, "respawn_crash", repeats=0)


class TestFaultPlan:
    def test_duplicate_coordinates_rejected(self):
        with pytest.raises(ResilienceError, match="same"):
            FaultPlan(faults=(FaultSpec(0, 1, "crash"), FaultSpec(0, 1, "hang")))

    def test_for_worker_filters_by_slot(self):
        plan = FaultPlan(faults=(FaultSpec(0, 1, "crash"), FaultSpec(1, 0, "hang")))
        assert [s.kind for s in plan.for_worker(0)] == ["crash"]
        assert [s.kind for s in plan.for_worker(1)] == ["hang"]
        assert plan.for_worker(2) == ()

    def test_single_and_describe(self):
        plan = FaultPlan.single(1, 3, "corrupt", seed=7)
        assert not plan.is_empty
        assert "corrupt@(w1,c3)" in plan.describe()
        assert FaultPlan().is_empty

    def test_fault_matrix_covers_kinds_times_workers(self):
        plans = list(iter_fault_matrix(kinds=("crash", "corrupt"), workers=(0, 1)))
        coordinates = {
            (plan.faults[0].kind, plan.faults[0].worker) for plan in plans
        }
        assert coordinates == {
            ("crash", 0), ("crash", 1), ("corrupt", 0), ("corrupt", 1)
        }


class TestFaultInjector:
    def test_fires_at_the_exact_chunk_index(self):
        plan = FaultPlan.single(0, 2, "crash")
        injector = FaultInjector(plan, worker=0, generation=0)
        firings = [injector.next_chunk() for _ in range(5)]
        assert [f.kind if f else None for f in firings] == [
            None, None, "crash", None, None
        ]
        assert injector.chunks_seen == 5

    def test_other_slots_never_fire(self):
        plan = FaultPlan.single(0, 0, "crash")
        injector = FaultInjector(plan, worker=1, generation=0)
        assert all(injector.next_chunk() is None for _ in range(4))

    def test_replay_is_deterministic(self):
        plan = FaultPlan(faults=(FaultSpec(0, 1, "delay", seconds=0.1),))
        runs = []
        for _ in range(2):
            injector = FaultInjector(plan, worker=0, generation=0)
            runs.append([injector.next_chunk() for _ in range(4)])
        assert runs[0] == runs[1]

    def test_respawn_crash_kills_replacements_on_first_chunk(self):
        plan = FaultPlan.single(0, 1, "respawn_crash", repeats=3)
        # Generation 0 crashes at its second chunk...
        original = FaultInjector(plan, worker=0, generation=0)
        assert original.next_chunk() is None
        assert original.next_chunk().kind == "respawn_crash"
        # ...generations 1 and 2 crash immediately, generation 3 survives.
        for generation, expect_fire in ((1, True), (2, True), (3, False)):
            replacement = FaultInjector(plan, worker=0, generation=generation)
            firing = replacement.next_chunk()
            assert (firing is not None) == expect_fire, generation

    def test_plain_crash_does_not_follow_the_respawn(self):
        plan = FaultPlan.single(0, 0, "crash")
        replacement = FaultInjector(plan, worker=0, generation=1)
        assert all(replacement.next_chunk() is None for _ in range(3))


class TestCorruptPayload:
    def payload(self):
        return [(0, np.arange(4.0), 0.1), (1, np.arange(3.0) + 10.0, 0.2)]

    def test_corruption_changes_the_checksum(self):
        intact = self.payload()
        damaged = corrupt_payload(intact, seed=0, worker=0, chunk=0)
        assert digest(damaged) != digest(intact)

    def test_corruption_is_seeded_and_replayable(self):
        one = corrupt_payload(self.payload(), seed=3, worker=1, chunk=2)
        two = corrupt_payload(self.payload(), seed=3, worker=1, chunk=2)
        assert digest(one) == digest(two)

    def test_scalar_and_tuple_values_are_damaged_too(self):
        for value in (1.5, 7, (2.0, 3.0), "opaque"):
            intact = [(0, value, 0.0)]
            damaged = corrupt_payload(intact, seed=1, worker=0, chunk=0)
            assert digest(damaged) != digest(intact)

    def test_empty_payload_still_corrupts_detectably(self):
        damaged = corrupt_payload([], seed=0, worker=0, chunk=0)
        assert digest(damaged) != digest([])

    def test_digest_is_16_bytes_of_the_exact_bytes(self):
        raw = pickle.dumps(self.payload(), protocol=pickle.HIGHEST_PROTOCOL)
        assert len(frame_digest(raw)) == 16
        assert frame_digest(raw) == frame_digest(bytes(raw))
        assert frame_digest(raw) != frame_digest(raw[:-1])
