"""Self-contained assembly of single cluster blocks (near-field and far-field).

The hierarchical engine decomposes the Galerkin matrix into the blocks of a
:class:`~repro.cluster.blocks.BlockClusterTree`.  This module provides the
*per-block* assembly routines the hierarchical block builder of
:mod:`repro.parallel.block_backend` runs inside its workers:

* :func:`compress_far_block` — ACA low-rank factors of one admissible block
  (or ``None`` when the block must fall back to dense near-field assembly);
* :func:`near_block_pair_columns` — the dense-engine pair columns of one
  inadmissible (or fallback) block;
* :func:`near_block_triplets` — the sparse upper-triangle COO triplets of one
  near-field block, evaluated through
  :meth:`~repro.bem.influence.ColumnAssembler.column_batch`, the column
  kernel of the dense engine;
* :func:`upper_triangle_scatter` — the dense engine's symmetric scatter of
  one evaluated column, keeping only the upper triangle.

Determinism contract: every routine evaluates **one block at a time** with a
batch composition that depends only on the block itself (never on which shard
or worker processes it, nor on what else sits in the same dispatch chunk).
Per-pair kernel decisions are pure functions of the pair, so a block's output
is bit-identical no matter how the block set is partitioned across workers —
the property the builder's cross-worker-count determinism rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.aca import LowRankFactors, aca_lowrank
from repro.cluster.blocks import BlockClusterTree
from repro.cluster.tree import ClusterTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bem.influence import ColumnAssembler
    from repro.cluster.operator import HierarchicalControl

__all__ = [
    "BlockAssemblyProfile",
    "ClusterPlanCache",
    "build_block_profile",
    "compress_far_block",
    "emit_block_plan_span",
    "emit_far_block_spans",
    "far_factor_entries",
    "near_block_pair_columns",
    "near_block_triplets",
    "upper_triangle_scatter",
]

#: Upper bound on the (source, target) pairs evaluated per near-field kernel
#: call, bounding the transient work arrays to a few megabytes.  Leaf-sized
#: near blocks stay far below it; only large ACA-fallback blocks are split.
#: The chunk boundaries are a pure function of the block's own pair columns,
#: so chunking preserves the per-block determinism contract.
_NEAR_BATCH_PAIRS: int = 200_000


@dataclass(frozen=True)
class BlockAssemblyProfile:
    """Everything a hierarchical block assembly derives before touching blocks.

    Built once per assembly by :func:`build_block_profile` in the master of
    the block builder (:mod:`repro.parallel.block_backend`).
    """

    tree: ClusterTree
    partition: BlockClusterTree
    scale: float
    stopping: float
    dof_matrix: np.ndarray
    n_dofs: int
    nb: int
    costs: np.ndarray


class ClusterPlanCache:
    """Cache of ``(cluster tree, block partition)`` keyed by geometry.

    The binary cluster tree and its admissibility block partition depend only
    on the element geometry and the partition knobs (``leaf_size``, ``eta``) —
    never on the soil model, the injection current or the tolerance.  A
    campaign analysing many soil/injection variants of the same grid therefore
    rebuilds identical trees; this cache (one per
    :func:`repro.campaign.run_campaign`, or user-held) reuses them.  Both
    cached objects are immutable once built, so sharing across assemblies is
    safe.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, tuple[ClusterTree, BlockClusterTree]] = {}
        self.hits = 0
        self.misses = 0

    def get_or_build(self, assembler, control) -> tuple[ClusterTree, BlockClusterTree]:
        """The (tree, partition) of an assembler's geometry, built on first use."""
        # Local import: repro.bem.geometry_cache is independent of the cluster
        # machinery; the fingerprint keys on element endpoint content.
        from repro.bem.geometry_cache import array_fingerprint

        key = (
            array_fingerprint(assembler._p0, assembler._p1),
            int(control.leaf_size),
            float(control.eta),
        )
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            return entry
        self.misses += 1
        tree = ClusterTree.build(assembler._p0, assembler._p1, control.leaf_size)
        partition = BlockClusterTree.build(tree, control.eta)
        self._entries[key] = (tree, partition)
        return tree, partition

    def stats(self) -> dict:
        """Hit/miss counters and occupancy."""
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._entries)}


def build_block_profile(
    assembler: "ColumnAssembler",
    control: "HierarchicalControl",
    cluster_cache: ClusterPlanCache | None = None,
) -> BlockAssemblyProfile:
    """Cluster tree, block partition, stopping threshold and cost profile.

    ``cluster_cache`` optionally reuses the geometry-determined (tree,
    partition) pair across repeated assemblies of the same mesh (campaigns,
    sweeps); everything soil- or tolerance-dependent is still derived fresh.
    """
    # Local import: repro.parallel imports repro.bem at package load time.
    from repro.parallel.costs import hierarchical_block_costs

    if cluster_cache is not None:
        tree, partition = cluster_cache.get_or_build(assembler, control)
    else:
        tree = ClusterTree.build(assembler._p0, assembler._p1, control.leaf_size)
        partition = BlockClusterTree.build(tree, control.eta)
    scale = assembler.reference_entry_scale()
    stopping = control.tolerance * scale / control.safety
    dof_matrix = assembler.dof_manager.element_dof_matrix()
    layers = np.unique(assembler.mesh.element_layers())
    series_length = max(
        assembler.kernel.series_length(int(b), int(c)) for b in layers for c in layers
    )
    shapes = partition.block_shapes()
    admissible = np.array([b.admissible for b in partition.blocks], dtype=bool)
    costs = hierarchical_block_costs(
        shapes[:, 0],
        shapes[:, 1],
        admissible,
        series_length=series_length,
        n_gauss=assembler.n_gauss,
        basis_per_element=assembler.basis_per_element,
    )
    return BlockAssemblyProfile(
        tree=tree,
        partition=partition,
        scale=scale,
        stopping=stopping,
        dof_matrix=dof_matrix,
        n_dofs=assembler.dof_manager.n_dofs,
        nb=assembler.basis_per_element,
        costs=costs,
    )


def emit_block_plan_span(tracer, profile: "BlockAssemblyProfile", control, seconds: float) -> None:
    """Record the ``blocks.plan`` span of one hierarchical assembly.

    The plan attributes are deterministic: the plan is a pure function of
    geometry and partition knobs — never of scheduling.
    """
    summary = profile.partition.summary()
    tracer.record_span(
        "blocks.plan",
        duration_seconds=seconds,
        n_blocks=int(summary["n_blocks"]),
        n_near_blocks=int(summary["n_near_blocks"]),
        n_far_blocks=int(summary["n_far_blocks"]),
        tree_depth=int(profile.tree.depth()),
        leaf_size=int(control.leaf_size),
    )


def emit_far_block_spans(
    tracer,
    entries: list[tuple[int, int, int, int, float]],
    far_seconds: float,
    total_rank: int,
) -> None:
    """Record the ``blocks.far`` span with one child span per admissible block.

    ``entries`` are ``(block_index, rows, cols, rank, seconds)`` tuples with
    ``rank < 0`` marking an ACA fallback; they may arrive in any order —
    emission sorts by block index, so the trace tree is a canonical
    function of the block partition, not of scheduling.  Per-block attributes
    are deterministic: stopping iterations and sampled entries derive from
    the accepted rank (one rank-1 term, one sampled row+column, per
    iteration); only the durations are run-dependent, and durations are
    excluded from the canonical trace projection.
    """
    ordered = sorted(entries)
    n_fallback = sum(1 for entry in ordered if entry[3] < 0)
    with tracer.span(
        "blocks.far",
        n_blocks=len(ordered),
        n_fallback=n_fallback,
        total_rank=int(total_rank),
    ) as far_span:
        for index, rows, cols, rank, seconds in ordered:
            if rank < 0:
                tracer.record_span(
                    "block",
                    duration_seconds=seconds,
                    index=index,
                    rows=rows,
                    cols=cols,
                    kind="fallback",
                )
            else:
                tracer.record_span(
                    "block",
                    duration_seconds=seconds,
                    index=index,
                    rows=rows,
                    cols=cols,
                    kind="far",
                    rank=rank,
                    iterations=rank,
                    sampled_entries=rank * (rows + cols),
                )
    # The span context measured only the emission; the real wall belongs to
    # the far-field work that produced the entries.
    far_span.duration_seconds = far_seconds


def far_factor_entries(
    u: np.ndarray,
    v: np.ndarray,
    row_dofs: np.ndarray,
    col_dofs: np.ndarray,
    base_term: int,
) -> tuple[np.ndarray, ...]:
    """COO entries of one far block's factors in the aggregated ``U``/``V``.

    ``base_term`` is the first free column of the aggregate; returns
    ``(u_rows, u_cols, u_vals, v_rows, v_cols, v_vals)``; used by the
    block builder's segment construction.
    """
    rank = int(u.shape[1])
    term_ids = base_term + np.arange(rank)
    return (
        np.repeat(row_dofs, rank),
        np.tile(term_ids, row_dofs.size),
        u.ravel(),
        np.repeat(col_dofs, rank),
        np.tile(term_ids, col_dofs.size),
        v.ravel(),
    )


def compress_far_block(
    assembler,
    tree,
    block,
    control,
    stopping: float,
) -> LowRankFactors | None:
    """ACA low-rank factors of one admissible (far-field) block.

    With the adaptive layer active (the default), rows and columns are fetched
    through :meth:`~repro.bem.influence.ColumnAssembler.adaptive_far_column` —
    one *single-source* mixed-precision evaluation under the one distance bin
    selected by the block separation, so the sampled entries are smooth across
    the block.  Without the adaptive layer, the exact orientation-matched
    :meth:`~repro.bem.influence.ColumnAssembler.pair_block_row` sampler (with
    the block-truncated series) is used instead.

    Returns ``None`` when the block is not worth factorising (its affordable
    rank is below 2, or ACA hit the rank cap before converging); the caller
    must then assemble the block densely into the near field.
    """
    nb = assembler.basis_per_element
    rows_e = tree.elements_of(block.row)
    cols_e = tree.elements_of(block.col)
    # Admissibility uses the 3D box distance, but the truncation-plan
    # machinery is keyed on the *in-plane* pair separation (vertical gaps are
    # analysed per image term) — pass the horizontal box distance so
    # rod-bearing meshes keep the entrywise contract.
    distance = tree.clusters[block.row].inplane_distance_to(tree.clusters[block.col])
    row_cache: dict[int, np.ndarray] = {}
    col_cache: dict[int, np.ndarray] = {}
    use_adaptive = assembler.adaptive is not None
    m_rows, m_cols = rows_e.size * nb, cols_e.size * nb
    # The ACA error inside a block is low-rank (coherent), so a fixed
    # entrywise threshold would let large high-level blocks contribute
    # spectral-norm errors growing with their side.  Scaling the threshold
    # with the geometric-mean side (relative to a leaf block) equalises every
    # block's Frobenius contribution, keeping the solution error
    # size-independent; only the handful of big blocks pay the few extra ranks.
    block_stopping = stopping / max(
        1.0, np.sqrt(float(m_rows) * float(m_cols)) / (nb * control.leaf_size)
    )

    def _fetch(
        element: int, others: np.ndarray, distance=distance, cutoff=block_stopping
    ) -> np.ndarray:
        if use_adaptive:
            return assembler.adaptive_far_column(element, others, distance)
        # (nb, T, nb) -> (T, nb_target, nb_source)
        return np.transpose(
            assembler.pair_block_row(
                element, others, min_distance=distance, drop_cutoff=cutoff
            ),
            (1, 2, 0),
        )

    def _row(k: int, rows_e=rows_e, cols_e=cols_e, cache=row_cache) -> np.ndarray:
        t, j = divmod(int(k), nb)
        fetched = cache.get(t)
        if fetched is None:
            fetched = cache[t] = _fetch(int(rows_e[t]), cols_e)
        return fetched[:, :, j].ravel()

    def _col(k: int, rows_e=rows_e, cols_e=cols_e, cache=col_cache) -> np.ndarray:
        s, i = divmod(int(k), nb)
        fetched = cache.get(s)
        if fetched is None:
            fetched = cache[s] = _fetch(int(cols_e[s]), rows_e)
        return fetched[:, :, i].ravel()

    # A factorisation only pays off while it stores clearly less than the
    # dense block (3/5 here: a fallback block is costlier than its factor
    # bytes suggest, since its pairs move into the near field); capping the
    # rank there lets hopeless (tiny) blocks abort after a few sampled rows
    # instead of being fully factorised first.
    affordable_rank = (3 * m_rows * m_cols) // (5 * (m_rows + m_cols))
    if affordable_rank < 2:
        return None
    factors = aca_lowrank(
        _row,
        _col,
        m_rows,
        m_cols,
        absolute_tolerance=block_stopping,
        max_rank=min(control.max_rank, affordable_rank),
        row_groups=np.repeat(np.arange(rows_e.size), nb),
        col_groups=np.repeat(np.arange(cols_e.size), nb),
    )
    if not factors.converged:
        return None
    return factors


def near_block_pair_columns(
    rows_e: np.ndarray, cols_e: np.ndarray, diagonal: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Dense-engine pair columns of one near-field (or fallback) block.

    Every unordered element pair of the block is oriented with the lower
    original index as the source — exactly the dense assembly's convention —
    and the pairs are sorted by (source, target), so the result is a canonical
    function of the block alone.  Returns ``(sources, targets)``.
    """
    if diagonal:
        i, j = np.triu_indices(rows_e.size)
        first, second = rows_e[i], rows_e[j]
    else:
        first = np.repeat(rows_e, cols_e.size)
        second = np.tile(cols_e, rows_e.size)
    sources = np.minimum(first, second)
    targets = np.maximum(first, second)
    order = np.lexsort((targets, sources))
    return sources[order], targets[order]


def upper_triangle_scatter(
    source: int,
    targets_k: np.ndarray,
    values: np.ndarray,
    dof_matrix: np.ndarray,
    nb: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric upper-triangle scatter of one evaluated pair column.

    ``values`` has shape ``(T, nb_target, nb_source)`` — the output of the
    batched column kernels for ``(source, targets_k)``.  Self pairs are halved
    (they are mirrored onto themselves); of the dense engine's (value,
    mirrored value) scatter pair, only whichever lands on ``row <= col`` is
    kept — both when they coincide on the diagonal, exactly reproducing the
    dense diagonal accumulation.  Returns COO ``(rows, cols, vals)``.
    """
    source_dofs = dof_matrix[source]  # (nb,)
    target_dofs = dof_matrix[targets_k]  # (T, nb)
    weights = np.where(targets_k == source, 0.5, 1.0)  # halve self pairs
    values = values * weights[:, None, None]  # (T, nb_j, nb_i)
    rr = np.repeat(target_dofs.ravel(), nb)
    cc = np.tile(source_dofs, targets_k.size * nb)
    flat = values.ravel()
    forward = rr <= cc
    mirror = cc <= rr
    return (
        np.concatenate((rr[forward], cc[mirror])),
        np.concatenate((cc[forward], rr[mirror])),
        np.concatenate((flat[forward], flat[mirror])),
    )


def near_block_triplets(
    assembler,
    rows_e: np.ndarray,
    cols_e: np.ndarray,
    diagonal: bool,
    dof_matrix: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upper-triangle COO triplets of one near-field (or fallback) block.

    The block's pair columns run through
    :meth:`~repro.bem.influence.ColumnAssembler.column_batch` (one target
    list per source) in calls whose batch composition is a canonical
    function of the block alone: the block's columns in source order, split
    only at the fixed
    :data:`_NEAR_BATCH_PAIRS` budget (relevant to large ACA-fallback blocks;
    leaf blocks always fit one call).  Evaluated values are therefore
    bit-identical for every shard partition, while the transient kernel work
    arrays stay bounded.
    """
    nb = assembler.basis_per_element
    pair_sources, pair_targets = near_block_pair_columns(rows_e, cols_e, diagonal)
    if pair_sources.size == 0:
        empty_i = np.zeros(0, dtype=int)
        return empty_i, empty_i.copy(), np.zeros(0)
    unique_sources, first = np.unique(pair_sources, return_index=True)
    boundaries = np.concatenate((first, [pair_sources.size]))
    target_lists = [
        pair_targets[int(boundaries[k]) : int(boundaries[k + 1])]
        for k in range(unique_sources.size)
    ]
    rows_parts: list[np.ndarray] = []
    cols_parts: list[np.ndarray] = []
    vals_parts: list[np.ndarray] = []
    chunk_sources: list[int] = []
    chunk_lists: list[np.ndarray] = []
    chunk_pairs = 0

    def _flush() -> None:
        nonlocal chunk_pairs
        if not chunk_sources:
            return
        pairs = assembler.column_batch(chunk_sources, chunk_lists)
        for source, (targets_k, values) in zip(chunk_sources, pairs):
            rr, cc, vv = upper_triangle_scatter(source, targets_k, values, dof_matrix, nb)
            rows_parts.append(rr)
            cols_parts.append(cc)
            vals_parts.append(vv)
        chunk_sources.clear()
        chunk_lists.clear()
        chunk_pairs = 0

    for source, targets_k in zip(unique_sources, target_lists):
        chunk_sources.append(int(source))
        chunk_lists.append(targets_k)
        chunk_pairs += targets_k.size
        if chunk_pairs >= _NEAR_BATCH_PAIRS:
            _flush()
    _flush()
    return (
        np.concatenate(rows_parts),
        np.concatenate(cols_parts),
        np.concatenate(vals_parts),
    )
