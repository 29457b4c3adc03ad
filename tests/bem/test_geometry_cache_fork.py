"""Fork-isolation and eviction-determinism tests of the GeometryCache.

The cache is process-local: the worker pool forks processes that inherit a
copy-on-write snapshot of the process-wide geometry cache.  The contract
under test:

* eviction is a deterministic function of the access sequence (same sequence,
  same survivors — on any process);
* a forked worker's cache churn never leaks back into the parent's LRU state
  (copy-on-write isolation);
* a forked worker's inherited cache stays usable for reads and writes.
"""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest

from repro.bem.geometry_cache import GeometryCache, default_geometry_cache


def _filler(key_id: int, kbytes: int = 1) -> tuple[np.ndarray, ...]:
    return (np.full(kbytes * 128, float(key_id)),)  # 1 KiB per 128 float64


class TestEvictionDeterminism:
    def test_same_sequence_same_survivors(self):
        sequence = [(("k", i % 7),) for i in range(40)]
        caches = [GeometryCache(max_bytes=4 * 1024) for _ in range(2)]
        for cache in caches:
            for (key,) in sequence:
                if cache.get(key) is None:
                    cache.put(key, _filler(key[1]))
        assert caches[0].keys() == caches[1].keys()
        assert caches[0].nbytes == caches[1].nbytes
        assert caches[0].stats()["hits"] == caches[1].stats()["hits"]

    def test_lru_evicts_oldest_first(self):
        cache = GeometryCache(max_bytes=3 * 1024)
        for i in range(3):
            cache.put(("k", i), _filler(i))
        cache.get(("k", 0))  # refresh 0: 1 becomes the eviction candidate
        cache.put(("k", 3), _filler(3))
        assert cache.keys() == [("k", 2), ("k", 0), ("k", 3)]

    def test_oversized_entry_served_uncached(self):
        cache = GeometryCache(max_bytes=512)
        stored = cache.put(("big",), _filler(0, kbytes=4))
        assert stored[0].flags.writeable is False
        assert cache.n_entries == 0


def _child_churn(n_entries: int) -> dict:
    """Runs inside a forked worker: churn the default cache, return its view."""
    cache = default_geometry_cache()
    before = cache.keys()
    for i in range(n_entries):
        cache.put(("child", i), (np.full(256, float(i)),))
    return {
        "inherited_keys": before,
        "keys_after": cache.keys(),
        "stats": cache.stats(),
    }


def _child_uses_lock(_: int) -> bool:
    """Runs inside a forked worker: the inherited cache must be usable."""
    cache = default_geometry_cache()
    cache.put(("fork-probe",), (np.zeros(8),))
    return cache.get(("fork-probe",)) is not None


@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="fork start method unavailable"
)
class TestForkIsolation:
    def test_children_inherit_but_never_corrupt_the_parent(self):
        parent = default_geometry_cache()
        parent.clear()
        parent.put(("parent", 1), (np.arange(16.0),))
        parent.put(("parent", 2), (np.arange(8.0),))
        parent_keys = parent.keys()
        parent_stats = parent.stats()

        context = mp.get_context("fork")
        with context.Pool(processes=2) as pool:
            reports = pool.map(_child_churn, [50, 80])

        for report in reports:
            # The fork snapshot carried the parent's warm entries...
            assert report["inherited_keys"] == parent_keys
            # ...and the child's churn stayed in the child.
            assert ("child", 0) in report["keys_after"]
        assert parent.keys() == parent_keys
        assert parent.stats() == parent_stats
        assert all(("child", i) not in parent.keys() for i in range(80))
        parent.clear()

    def test_child_lock_usable_after_fork(self):
        context = mp.get_context("fork")
        with context.Pool(processes=2) as pool:
            assert pool.map(_child_uses_lock, [0, 1]) == [True, True]

