"""Byte-budgeted LRU cache for in-plane pair geometry.

The image transforms of a layered-soil kernel only move the *z* coordinate of
a source segment, so the in-plane part of the pair geometry — the axial
projection of the field points and their squared in-plane distance to the
segment axis — is identical for every image term *and* for every repeated
evaluation of the same (mesh, field points) combination.  Sweeps that
re-assemble the same mesh (soil-model comparisons such as the Balaídos A/B/C
study, repeated GPR/fault-scenario analyses in the design optimiser, or
benchmark rounds) therefore recompute arrays that never change.

:class:`GeometryCache` stores those arrays keyed by content fingerprints.  It
is a plain LRU with a byte budget: entries are evicted oldest-first once the
budget is exceeded, so the cache can be left enabled for arbitrarily long
sweeps.  The cache is process-local; forked workers inherit a copy-on-write
snapshot, and their later entries stay private to each worker.  Cached arrays
are returned as read-only views and must not be mutated by callers.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

__all__ = ["GeometryCache", "default_geometry_cache", "array_fingerprint"]

#: Default byte budget of the process-wide cache (64 MiB keeps the working set
#: of a few paper-size meshes without competing with the assembly itself).
DEFAULT_CACHE_BYTES: int = 64 * 1024 * 1024


def array_fingerprint(*arrays: np.ndarray) -> str:
    """Stable content fingerprint of a sequence of arrays."""
    digest = hashlib.blake2b(digest_size=16)
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


class GeometryCache:
    """Process-local LRU cache of geometry arrays with a byte budget."""

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[tuple, tuple[np.ndarray, ...]]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> tuple[np.ndarray, ...] | None:
        """The cached arrays of ``key`` (marking it most recently used)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: tuple, arrays: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
        """Store ``arrays`` under ``key`` and return the read-only views."""
        frozen = []
        size = 0
        for array in arrays:
            contiguous = np.ascontiguousarray(array)
            if contiguous is array:
                # Never freeze an object the caller may still own.
                contiguous = array.copy()
            contiguous.setflags(write=False)
            frozen.append(contiguous)
            size += contiguous.nbytes
        stored = tuple(frozen)
        if size > self.max_bytes:
            return stored  # larger than the whole budget: serve uncached
        previous = self._entries.pop(key, None)
        if previous is not None:
            self._bytes -= sum(a.nbytes for a in previous)
        self._entries[key] = stored
        self._bytes += size
        while self._bytes > self.max_bytes and self._entries:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= sum(a.nbytes for a in evicted)
        return stored

    def keys(self) -> list[tuple]:
        """Cached keys in eviction order, oldest first (deterministic)."""
        return list(self._entries)

    def clear(self) -> None:
        """Drop every entry (the statistics survive)."""
        self._entries.clear()
        self._bytes = 0

    @property
    def n_entries(self) -> int:
        """Number of cached entries."""
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Bytes currently held."""
        return self._bytes

    def stats(self) -> dict:
        """Hit/miss counters and occupancy."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
            "bytes": self._bytes,
            "max_bytes": self.max_bytes,
        }


_default_cache: GeometryCache | None = None


def default_geometry_cache() -> GeometryCache:
    """The process-wide shared cache (created on first use)."""
    global _default_cache
    if _default_cache is None:
        _default_cache = GeometryCache()
    return _default_cache
