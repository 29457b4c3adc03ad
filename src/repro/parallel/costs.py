"""Deterministic analytic cost model of the assembly columns.

The scaling experiments of the paper's Section 6 replay *per-column task
costs* through the schedule simulator.  Measuring those costs with wall-clock
timers ties the experiment to the host: on slow or 1-core machines the coarse
profiles are dominated by scheduler jitter and warm-up noise, which made the
Fig. 6.1 / Table 6.2 reproductions flaky.  This module provides an *analytic*
cost profile instead — the amount of numerical work of column ``α`` is known
exactly:

    ``cost(α) ∝ Σ_{β ≥ α} n_gauss · L(layer(α), layer(β))``

where ``L(b, c)`` is the truncated image-series length of the kernel ``k_bc``
(the number of ``1/r`` integrals evaluated per Gauss point).  The profile is
deterministic, host-independent, and reproduces the linearly decreasing
triangle workload that drives the schedule comparison of Table 6.2.

:func:`scale_costs` scales the profile to a wall-clock total.  The adaptive
engine's matching profile is
:meth:`repro.bem.influence.ColumnAssembler.adaptive_column_costs`.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.constants import DEFAULT_GAUSS_POINTS
from repro.exceptions import ScheduleError
from repro.timing import wall_clock

__all__ = [
    "analytic_column_costs",
    "hierarchical_block_costs",
    "partition_block_work",
    "cost_shares",
    "timed_batch",
    "scale_costs",
]

#: Default rank assumed for far-field blocks by the deterministic block-cost
#: model (the measured mean ACA rank on the scaling benchmark grids).
DEFAULT_RANK_ESTIMATE: int = 12


def cost_shares(cost_hint, indices: Sequence[int]) -> np.ndarray:
    """Relative cost shares of a set of tasks, normalised to sum to one.

    ``cost_hint`` may be ``None`` (uniform shares), an array indexed by task
    id, or a mapping from task id to cost.  Non-finite or non-positive totals
    fall back to uniform shares.  Used by :func:`timed_batch` to apportion
    the wall time of a batch to its individual tasks.
    """
    n = len(indices)
    if cost_hint is None or n == 0:
        return np.full(max(n, 1), 1.0 / max(n, 1))
    if hasattr(cost_hint, "get"):
        shares = np.asarray([float(cost_hint.get(int(i), 0.0)) for i in indices])
    else:
        hint = np.asarray(cost_hint, dtype=float)
        shares = hint[np.asarray(indices, dtype=int)]
    total = shares.sum()
    if not np.isfinite(total) or total <= 0.0 or not np.all(np.isfinite(shares)):
        return np.full(n, 1.0 / n)
    return shares / total


def timed_batch(
    fn: Callable[[list[int]], Any], indices: Sequence[int], cost_hint=None
) -> tuple[Any, np.ndarray]:
    """Call ``fn(indices)`` once and split its wall time by cost share.

    Returns ``(fn's result, per-task seconds)``: the batch wall time
    apportioned to the tasks with :func:`cost_shares`.  The dense column
    driver's in-process chunks and the scheduled executor's chunk tasks both
    time their batches through here.
    """
    indices = [int(i) for i in indices]
    start = wall_clock()
    results = fn(indices)
    elapsed = wall_clock() - start
    return results, elapsed * cost_shares(cost_hint, indices)


def analytic_column_costs(
    element_layers: Sequence[int] | np.ndarray,
    kernel,
    n_gauss: int = DEFAULT_GAUSS_POINTS,
) -> np.ndarray:
    """Analytic per-column work estimate (targets × image terms × Gauss points).

    Parameters
    ----------
    element_layers:
        Soil layer of every mesh element, shape ``(M,)`` (1-based, as stored by
        the mesh).
    kernel:
        Any object with a ``series_length(source_layer, field_layer)`` method —
        normally a :class:`repro.kernels.base.LayeredKernel`.
    n_gauss:
        Gauss points of the outer (test) integral.

    Returns
    -------
    numpy.ndarray
        Work units of every column of the triangular assembly loop, shape
        ``(M,)``.  Only *relative* values matter to the schedule simulator.
    """
    layers = np.asarray(element_layers, dtype=int)
    if layers.ndim != 1 or layers.size == 0:
        raise ScheduleError("element_layers must be a non-empty 1D sequence")
    if n_gauss < 1:
        raise ScheduleError(f"n_gauss must be at least 1, got {n_gauss}")

    m = layers.size
    unique_layers = np.unique(layers)
    # suffix_counts[c][i] = number of elements j >= i lying in layer c.
    suffix_counts = {
        int(c): np.cumsum((layers == c)[::-1])[::-1] for c in unique_layers
    }
    series_lengths = {
        (int(b), int(c)): int(kernel.series_length(int(b), int(c)))
        for b in unique_layers
        for c in unique_layers
    }

    costs = np.zeros(m)
    for b in unique_layers:
        sources = layers == b
        terms = np.zeros(m)
        for c in unique_layers:
            terms[sources] += (
                suffix_counts[int(c)][sources] * series_lengths[(int(b), int(c))]
            )
        costs[sources] = terms[sources]
    return costs * float(n_gauss)


def hierarchical_block_costs(
    row_sizes: Sequence[int] | np.ndarray,
    col_sizes: Sequence[int] | np.ndarray,
    admissible: Sequence[bool] | np.ndarray,
    series_length: int,
    n_gauss: int = DEFAULT_GAUSS_POINTS,
    rank_estimate: int = DEFAULT_RANK_ESTIMATE,
    basis_per_element: int = 2,
) -> np.ndarray:
    """Deterministic per-block work estimate of a hierarchical assembly.

    The block cluster tree replaces the paper's per-column task decomposition
    with per-*block* tasks; this is the matching cost profile, the unit a
    schedule partitions when distributing cluster-pair work:

    * an inadmissible (near-field) block evaluates every element pair densely:
      ``rows * cols * L * n_gauss`` kernel terms;
    * an admissible (far-field) block samples ``~rank`` rows and columns for
      the ACA factorisation: ``min(rank_estimate * basis, min_side) *
      (rows + cols) * L * n_gauss`` terms.

    Only relative values matter.  Host-independent, like
    :func:`analytic_column_costs`.
    """
    rows = np.asarray(row_sizes, dtype=float)
    cols = np.asarray(col_sizes, dtype=float)
    far = np.asarray(admissible, dtype=bool)
    if rows.shape != cols.shape or rows.shape != far.shape or rows.ndim != 1:
        raise ScheduleError("row_sizes, col_sizes and admissible must be equal-length 1D")
    if rows.size == 0:
        return np.zeros(0)
    if np.any(rows < 1) or np.any(cols < 1):
        raise ScheduleError("block cluster sizes must be at least 1")
    if series_length < 1 or n_gauss < 1 or rank_estimate < 1 or basis_per_element < 1:
        raise ScheduleError("series_length, n_gauss, rank_estimate and basis must be >= 1")

    per_pair = float(series_length) * float(n_gauss)
    costs = rows * cols * per_pair
    sampled = np.minimum(
        float(rank_estimate) * float(basis_per_element),
        np.minimum(rows, cols) * float(basis_per_element),
    )
    costs[far] = sampled[far] * (rows[far] + cols[far]) * per_pair
    return costs


def partition_block_work(
    costs: Sequence[float] | np.ndarray, n_workers: int
) -> list[list[int]]:
    """Greedy longest-processing-time partition of block tasks among workers.

    Deterministic: blocks are assigned in descending cost order (ties broken
    by index) to the currently least-loaded worker — load ties broken by the
    smaller shard, then the lower worker index, so zero-cost blocks still
    spread round-robin and no worker idles while blocks outnumber workers.
    Used by the block-level scheduling tests and as the static work split the
    sharded hierarchical block backend starts from.
    """
    profile = np.asarray(costs, dtype=float)
    if profile.ndim != 1:
        raise ScheduleError("costs must be a 1D sequence")
    if n_workers < 1:
        raise ScheduleError(f"n_workers must be at least 1, got {n_workers}")
    if np.any(~np.isfinite(profile)) or np.any(profile < 0.0):
        raise ScheduleError("block costs must be finite and non-negative")
    assignment: list[list[int]] = [[] for _ in range(n_workers)]
    loads = np.zeros(n_workers)
    counts = np.zeros(n_workers, dtype=int)
    order = np.lexsort((np.arange(profile.size), -profile))
    for index in order:
        worker = int(np.lexsort((counts, loads))[0])
        assignment[worker].append(int(index))
        loads[worker] += profile[index]
        counts[worker] += 1
    return assignment


def scale_costs(costs: Sequence[float] | np.ndarray, total_seconds: float) -> np.ndarray:
    """Scale a cost profile so it sums to ``total_seconds``.

    Turns the dimensionless analytic work units into a wall-clock profile the
    schedule simulator can mix with real machine overheads.
    """
    profile = np.asarray(costs, dtype=float)
    if profile.ndim != 1 or profile.size == 0:
        raise ScheduleError("costs must be a non-empty 1D sequence")
    if not np.isfinite(total_seconds) or total_seconds <= 0.0:
        raise ScheduleError(f"total_seconds must be positive, got {total_seconds}")
    current = profile.sum()
    if current <= 0.0:
        raise ScheduleError("cannot scale a profile with non-positive total cost")
    return profile * (float(total_seconds) / current)
