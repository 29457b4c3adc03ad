"""Tests of the adaptive column-evaluation engine and the geometry cache."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.bem.assembly import AssemblyOptions, assemble_system
from repro.bem.elements import DofManager, ElementType
from repro.bem.geometry_cache import GeometryCache, array_fingerprint, default_geometry_cache
from repro.bem.influence import ColumnAssembler
from repro.geometry.discretize import discretize_grid
from repro.kernels.base import kernel_for_soil
from repro.kernels.truncation import AdaptiveControl


@pytest.fixture(scope="module")
def flat_mesh(small_grid, barbera_like_soil):
    return discretize_grid(small_grid, soil=barbera_like_soil)


@pytest.fixture(scope="module")
def rodded_mesh(rodded_grid, two_layer_soil):
    return discretize_grid(rodded_grid, soil=two_layer_soil)


def _assembler(mesh, soil, adaptive=None):
    kernel = kernel_for_soil(soil)
    dofs = DofManager(mesh, ElementType.LINEAR)
    return ColumnAssembler(mesh, kernel, dofs, adaptive=adaptive)


class TestAdaptiveColumns:
    def test_matches_exact_engine_within_tolerance(self, flat_mesh, barbera_like_soil):
        exact = _assembler(flat_mesh, barbera_like_soil)
        adaptive = _assembler(flat_mesh, barbera_like_soil, AdaptiveControl())
        scale = 0.0
        pairs = []
        for source in range(flat_mesh.n_elements):
            [(_, exact_blocks)] = exact.column_batch([source])
            [(_, adaptive_blocks)] = adaptive.column_batch([source])
            scale = max(scale, float(np.abs(exact_blocks).max()))
            pairs.append((exact_blocks, adaptive_blocks))
        for exact_blocks, adaptive_blocks in pairs:
            assert np.allclose(
                adaptive_blocks, exact_blocks, rtol=0.0, atol=1e-8 * max(scale, 1.0)
            )

    def test_rodded_mesh_matches_exact_engine(self, rodded_mesh, two_layer_soil):
        """Vertical rods: no merging, mixed layers, conservative intervals."""
        # adaptive=None pins the exact full-series engine (the adaptive fast
        # path became the assembly default).
        exact = assemble_system(
            rodded_mesh, two_layer_soil, gpr=1000.0, options=AssemblyOptions(adaptive=None)
        )
        adaptive = assemble_system(
            rodded_mesh,
            two_layer_soil,
            gpr=1000.0,
            options=AssemblyOptions(adaptive=AdaptiveControl()),
        )
        scale = float(np.abs(exact.matrix).max())
        assert np.allclose(
            adaptive.matrix, exact.matrix, rtol=0.0, atol=1e-8 * max(scale, 1.0)
        )

    def test_batching_is_result_invariant(self, flat_mesh, barbera_like_soil):
        """Identical columns no matter how sources are grouped into batches."""
        assembler = _assembler(flat_mesh, barbera_like_soil, AdaptiveControl())
        m = flat_mesh.n_elements
        one_by_one = [assembler.column_batch([s])[0] for s in range(m)]
        all_at_once = assembler.column_batch(list(range(m)))
        for (t1, b1), (t2, b2) in zip(one_by_one, all_at_once):
            assert np.array_equal(t1, t2)
            assert np.array_equal(b1, b2)

    def test_shared_target_mode(self, flat_mesh, barbera_like_soil):
        assembler = _assembler(flat_mesh, barbera_like_soil, AdaptiveControl())
        exact = _assembler(flat_mesh, barbera_like_soil)
        targets = np.array([2, 5, 9])
        [(t_a, b_a)] = assembler.column_batch([3], [targets])
        [(t_e, b_e)] = exact.column_batch([3], [targets])
        assert np.array_equal(t_a, t_e)
        scale = float(np.abs(b_e).max())
        assert np.allclose(b_a, b_e, rtol=0.0, atol=1e-8 * max(scale, 1.0))
        # Empty target list mirrors the exact engine's contract.
        [(t_empty, b_empty)] = assembler.column_batch([3], [np.array([], dtype=int)])
        assert t_empty.size == 0 and b_empty.shape == (0, 2, 2)

    def test_target_lists_match_single_source_calls(self, rodded_mesh, two_layer_soil):
        """All pairs of a lists batch flatten into one pass: values agree with
        one-source calls to BLAS round-off."""
        assembler = _assembler(rodded_mesh, two_layer_soil, AdaptiveControl())
        sources = [0, 3, 5]
        lists = [np.array([0, 2, 9]), np.array([4, 6]), np.array([5, 7, 8, 10])]
        batch = assembler.column_batch(sources, lists)
        for source, targets, (got_targets, blocks) in zip(sources, lists, batch):
            [(_, expected)] = assembler.column_batch([source], [targets])
            assert np.array_equal(got_targets, targets)
            assert np.allclose(blocks, expected, rtol=0.0, atol=1e-12)

    def test_uniform_soil_short_series_falls_back(self, flat_mesh, uniform_soil):
        """Series shorter than min_series_terms route through the exact engine
        and must agree bit-for-bit."""
        exact = _assembler(flat_mesh, uniform_soil)
        adaptive = _assembler(flat_mesh, uniform_soil, AdaptiveControl())
        [(_, exact_blocks)] = exact.column_batch([0])
        [(_, adaptive_blocks)] = adaptive.column_batch([0])
        assert np.array_equal(exact_blocks, adaptive_blocks)

    def test_assemble_system_adaptive_option(self, flat_mesh, barbera_like_soil):
        exact = assemble_system(
            flat_mesh, barbera_like_soil, gpr=1000.0, options=AssemblyOptions(adaptive=None)
        )
        # The adaptive engine is the default since the hierarchical PR.
        adaptive = assemble_system(flat_mesh, barbera_like_soil, gpr=1000.0)
        scale = float(np.abs(exact.matrix).max())
        assert np.allclose(
            adaptive.matrix, exact.matrix, rtol=0.0, atol=1e-8 * max(scale, 1.0)
        )
        assert adaptive.metadata["adaptive"]["tolerance"] == AdaptiveControl().tolerance
        assert exact.metadata["adaptive"] is None

    def test_adaptive_cost_estimate(self, flat_mesh, barbera_like_soil):
        from repro.parallel.costs import analytic_column_costs

        assembler = _assembler(flat_mesh, barbera_like_soil, AdaptiveControl())
        costs = assembler.adaptive_column_costs()
        assert costs.shape == (flat_mesh.n_elements,)
        assert np.all(costs > 0.0)
        # Adaptive columns never cost more than the uniform full-series model.
        uniform = analytic_column_costs(
            flat_mesh.element_layers(), assembler.kernel, assembler.n_gauss
        )
        assert np.all(costs <= uniform + 1e-9)
        # The assembler's estimate dispatches to the adaptive profile.
        assert np.allclose(assembler.column_cost_estimate(), costs)

    def test_adaptive_cost_estimate_requires_adaptive(self, flat_mesh, barbera_like_soil):
        from repro.exceptions import AssemblyError

        with pytest.raises(AssemblyError):
            _assembler(flat_mesh, barbera_like_soil).adaptive_column_costs()

    def test_pickling_drops_and_restores_cache(self, flat_mesh, barbera_like_soil):
        assembler = _assembler(flat_mesh, barbera_like_soil, AdaptiveControl())
        clone = pickle.loads(pickle.dumps(assembler))
        [(_, original)] = assembler.column_batch([1])
        [(_, restored)] = clone.column_batch([1])
        assert np.array_equal(original, restored)

    def test_pickling_a_warm_assembler(self, flat_mesh, barbera_like_soil):
        """A warm plan cache must survive the pickle round trip.

        Regression: plan evaluation scalars were once keyed by ``id(plan)``,
        which restored plans no longer matched — spawn-style workers (and any
        warm clone) crashed on their first adaptive evaluation.
        """
        assembler = _assembler(flat_mesh, barbera_like_soil, AdaptiveControl())
        [(_, original)] = assembler.column_batch([1])  # warms self._plans
        clone = pickle.loads(pickle.dumps(assembler))
        [(_, restored)] = clone.column_batch([1])
        assert np.array_equal(original, restored)


class TestGeometryCache:
    def test_put_get_roundtrip(self):
        cache = GeometryCache(max_bytes=1 << 20)
        arrays = (np.arange(6.0), np.ones((2, 3)))
        stored = cache.put(("k",), arrays)
        assert all(not a.flags.writeable for a in stored)
        hit = cache.get(("k",))
        assert hit is not None
        assert np.array_equal(hit[0], arrays[0])
        assert cache.stats()["hits"] == 1

    def test_byte_budget_evicts_lru(self):
        item = np.zeros(128)  # 1 KiB
        cache = GeometryCache(max_bytes=3 * item.nbytes)
        for name in "abc":
            cache.put((name,), (item.copy(),))
        cache.get(("a",))  # refresh "a"
        cache.put(("d",), (item.copy(),))  # evicts "b" (LRU)
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) is not None
        assert cache.nbytes <= cache.max_bytes

    def test_oversized_entry_served_uncached(self):
        cache = GeometryCache(max_bytes=64)
        cache.put(("big",), (np.zeros(1024),))
        assert cache.get(("big",)) is None
        assert cache.n_entries == 0

    def test_clear(self):
        cache = GeometryCache()
        cache.put(("x",), (np.zeros(4),))
        cache.clear()
        assert cache.n_entries == 0 and cache.nbytes == 0

    def test_fingerprint_sensitivity(self):
        a = np.arange(12.0).reshape(3, 4)
        assert array_fingerprint(a) == array_fingerprint(a.copy())
        assert array_fingerprint(a) != array_fingerprint(a.T)
        assert array_fingerprint(a) != array_fingerprint(a + 1e-12)

    def test_dense_assembly_stores_no_geometry(self, flat_mesh, barbera_like_soil):
        """Column geometry is computed per batch: no assembly path touches the cache."""
        cache = default_geometry_cache()
        cache.clear()
        before = cache.stats()
        assemble_system(flat_mesh, barbera_like_soil, gpr=1000.0)
        assert cache.n_entries == 0
        assert cache.stats() == before  # not even a lookup
        first = _assembler(flat_mesh, barbera_like_soil, AdaptiveControl())
        second = _assembler(flat_mesh, barbera_like_soil, AdaptiveControl())
        every = list(range(flat_mesh.n_elements))
        for (_, a), (_, b) in zip(first.column_batch(every), second.column_batch(every)):
            assert np.array_equal(a, b)

    def test_put_does_not_freeze_caller_array(self):
        """Regression: caller-owned arrays must stay writable after put()."""
        cache = GeometryCache()
        mine = np.arange(8.0)
        cache.put(("mine",), (mine,))
        mine[0] = 42.0  # must not raise
        assert cache.get(("mine",))[0][0] == 0.0
