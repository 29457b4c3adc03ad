"""Hierarchical block builder: the block partition executed on a WorkerPool.

The hierarchical engine decomposes the Galerkin matrix into the blocks of a
:class:`~repro.cluster.blocks.BlockClusterTree` with a host-independent
per-block cost profile (:func:`repro.parallel.costs.hierarchical_block_costs`).
This module executes the LPT split of that profile
(:func:`~repro.parallel.costs.partition_block_work`): each shard's near-field
blocks and ACA far-field blocks are assembled by a
:class:`~repro.parallel.pool.WorkerPool` — the caller's persistent pool, or a
transient one that runs in this process for ``workers == 0`` and forks
``workers`` processes otherwise — and only the block results (each near
block's dof entries, summed in the worker, and low-rank factors) travel back
to the master, which regroups them into a
:class:`~repro.cluster.operator.HierarchicalOperator`.  The protocol is pure
message passing: workers share nothing mutable, every task is a
self-contained block.

Deterministic-reduction contract
--------------------------------

The returned operator is **bit-identical for any worker count** and for the
in-process, forked and persistent pools, which makes every PCG iterate
reproducible across machines with different core counts:

* every block is assembled by the per-block routines of
  :mod:`repro.cluster.block_assembly`, whose batch composition depends only on
  the block itself — never on the shard it landed in;
* each near-field block sums its own duplicate dof pairs in the worker that
  computed it (in the block's scatter order), and the master adds the
  compact per-block entries into one upper-triangle matrix in ascending
  block order, so every dof pair is stored once;
* the far factors are regrouped into :data:`MATVEC_SEGMENTS` *canonical
  segments* (an LPT split of the same cost profile by a fixed segment count,
  independent of the worker count), each segment concatenating its blocks in
  ascending block order;
* the operator reduces the near-field partial and the per-segment partials
  with :func:`~repro.cluster.operator.pairwise_tree_sum` in fixed order.

Entry point: ``HierarchicalControl(workers=...)`` through
``assemble_system(..., options=AssemblyOptions(hierarchical=...))`` or
``GroundingAnalysis(hierarchical=...)``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.cluster.block_assembly import (
    build_block_profile,
    compress_far_block,
    emit_block_plan_span,
    emit_far_block_spans,
    far_factor_entries,
    near_block_triplets,
)
from repro.cluster.operator import HierarchicalOperator
from repro.observe import ensure_tracer
from repro.parallel.costs import partition_block_work
from repro.parallel.pool import PoolJob, WorkerPool
from repro.timing import wall_clock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from scipy import sparse

    from repro.bem.influence import ColumnAssembler
    from repro.cluster.block_assembly import ClusterPlanCache
    from repro.cluster.operator import HierarchicalControl

__all__ = ["BlockOutcome", "MATVEC_SEGMENTS", "sharded_operator_steps"]

#: Canonical far-field matvec segments of every operator.  Fixed
#: independently of the worker count so the pairwise-tree reduction — and
#: therefore every PCG iterate — is bit-identical for any number of workers.
MATVEC_SEGMENTS: int = 8


# --------------------------------------------------------------------------- block tasks


@dataclass
class BlockOutcome:
    """Result of assembling one cluster block inside a shard worker.

    ``kind`` is ``"far"`` (low-rank factors ``u``/``v`` over the block's
    element basis functions), ``"near"`` (an inadmissible block) or
    ``"fallback"`` (an admissible block that was not worth factorising,
    assembled densely like a near block).  A near or fallback outcome carries
    unique upper-triangle dof pairs — int32 ``rows``/``cols`` with
    ``rows <= cols``, sorted — and their float64 ``vals``, already summed in
    the worker (:func:`~repro.cluster.block_assembly.near_block_triplets`).
    Only NumPy arrays cross the process boundary.
    """

    block_index: int
    kind: str
    rows: np.ndarray | None = None
    cols: np.ndarray | None = None
    vals: np.ndarray | None = None
    u: np.ndarray | None = None
    v: np.ndarray | None = None

    @property
    def rank(self) -> int:
        """Rank of a far outcome (0 otherwise)."""
        return int(self.u.shape[1]) if self.u is not None else 0


class _BlockShardTask:
    """Self-contained per-block assembly task (task id = block index).

    Captured state (assembler, cluster tree, partition) travels to the pool
    workers once per run; only :class:`BlockOutcome` payloads travel back.
    """

    def __init__(self, assembler, tree, blocks, control, stopping, dof_matrix) -> None:
        self.assembler = assembler
        self.tree = tree
        self.blocks = blocks
        self.control = control
        self.stopping = float(stopping)
        self.dof_matrix = dof_matrix

    def _near_outcome(self, block_index: int, block, kind: str) -> BlockOutcome:
        rows_e = self.tree.elements_of(block.row)
        cols_e = self.tree.elements_of(block.col)
        rows, cols, vals = near_block_triplets(
            self.assembler, rows_e, cols_e, block.is_diagonal, self.dof_matrix
        )
        return BlockOutcome(block_index=block_index, kind=kind, rows=rows, cols=cols, vals=vals)

    def __call__(self, block_index: int) -> BlockOutcome:
        block = self.blocks[int(block_index)]
        if not block.admissible:
            return self._near_outcome(int(block_index), block, "near")
        factors = compress_far_block(
            self.assembler, self.tree, block, self.control, self.stopping
        )
        if factors is None:
            return self._near_outcome(int(block_index), block, "fallback")
        return BlockOutcome(
            block_index=int(block_index), kind="far", u=factors.u, v=factors.v
        )


# --------------------------------------------------------------------------- the builder


def _csr(rows, cols, vals, shape) -> sparse.csr_matrix:
    from scipy import sparse

    if not rows:
        return sparse.csr_matrix(shape, dtype=float)
    # tocsr() sums the duplicates across blocks into canonical format.
    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=shape,
    ).tocsr()


def sharded_operator_steps(
    assembler: "ColumnAssembler",
    control: "HierarchicalControl",
    pool: "WorkerPool | None" = None,
    cluster_cache: "ClusterPlanCache | None" = None,
    tracer=None,
):
    """Build the :class:`~repro.cluster.operator.HierarchicalOperator` (generator).

    The block cluster tree and its deterministic cost profile are built by the
    master; :func:`~repro.parallel.costs.partition_block_work` splits the
    blocks into LPT shards.  With a persistent ``pool`` the single shard
    dispatch is a yielded :class:`~repro.parallel.pool.PoolJob` whose
    :class:`~repro.parallel.pool.TaskRunResult` comes back at the
    ``yield`` — the generator never touches the pool's pipes, so a scheduler
    can interleave many assemblies over one pool, and the shard count follows
    ``pool.n_workers``.  Without a pool the shards run on a transient
    :class:`~repro.parallel.pool.WorkerPool` and nothing is yielded:
    in-process for ``control.workers == 0``, on ``control.workers`` forked
    workers otherwise.  The near field is summed into one upper triangle and
    the far factors are regrouped into :data:`MATVEC_SEGMENTS` canonical
    segments — see the module docstring for the determinism contract.
    ``cluster_cache`` optionally reuses the geometry-determined cluster
    tree/partition across assemblies.  ``tracer`` records the plan/far/near
    span tree; per-block spans are re-emitted from the collected outcomes in
    ascending block-index order (with the worker-measured task seconds as
    durations), so the deterministic trace content is identical for every
    worker count.
    """
    tracer = ensure_tracer(tracer)
    start = wall_clock()
    profile = build_block_profile(assembler, control, cluster_cache=cluster_cache)
    tree, partition = profile.tree, profile.partition
    dof_matrix, n_dofs, nb = profile.dof_matrix, profile.n_dofs, profile.nb
    costs = profile.costs
    if tracer.enabled:
        emit_block_plan_span(tracer, profile, control, wall_clock() - start)

    n_workers = int(pool.n_workers if pool is not None else max(control.workers, 1))
    shards = partition_block_work(costs, n_workers)
    # Canonical matvec segments: same profile, *fixed* segment count — the
    # reduction structure must not depend on how many workers assembled.
    segment_blocks = [
        sorted(segment)
        for segment in partition_block_work(costs, MATVEC_SEGMENTS)
        if segment
    ]

    task = _BlockShardTask(
        assembler, tree, partition.blocks, control, profile.stopping, dof_matrix
    )
    # One block per task call, timed per block: a block's kernel batch
    # composition depends only on the block itself, never on its shard.
    job = PoolJob(task, shards, label="LPT")
    if pool is not None:
        outcome = yield job
    else:
        backend = "process" if control.workers else "serial"
        with WorkerPool(n_workers, backend=backend) as transient:
            outcome = job.run(transient)
    outcomes: dict[int, BlockOutcome] = outcome.results

    # ---- per-block accounting in canonical (ascending block index) order ----
    # Runs first: the folds below release each block's arrays once folded, so
    # the master never holds every block payload next to the finished operator.
    seconds_of = {
        task_id: float(outcome.task_seconds[k])
        for k, task_id in enumerate(int(t) for shard in shards for t in shard)
    }
    far_entries: list[tuple[int, int, int, int, float]] = []
    ranks: list[int] = []
    near_pairs = 0
    n_near = 0
    n_fallback = 0
    near_trace_seconds = 0.0
    for block_index in sorted(outcomes):
        result = outcomes[block_index]
        block = partition.blocks[int(block_index)]
        rows_n = tree.elements_of(block.row).size
        cols_n = tree.elements_of(block.col).size
        seconds = seconds_of.get(int(block_index), 0.0)
        if result.kind == "far":
            ranks.append(result.rank)
            far_entries.append(
                (int(block_index), rows_n * nb, cols_n * nb, result.rank, seconds)
            )
            continue
        if result.kind == "fallback":
            n_fallback += 1
            far_entries.append((int(block_index), rows_n * nb, cols_n * nb, -1, seconds))
            near_pairs += rows_n * cols_n
        else:
            near_pairs += (
                rows_n * (rows_n + 1) // 2 if block.is_diagonal else rows_n * cols_n
            )
        n_near += 1
        near_trace_seconds += seconds

    # ---- the near field, stored once: per-block sums added in ascending block order ----
    near_blocks = [
        result
        for _, result in sorted(outcomes.items())
        if result.kind != "far" and result.rows is not None and result.rows.size
    ]
    near = _csr(
        [result.rows for result in near_blocks],
        [result.cols for result in near_blocks],
        [result.vals for result in near_blocks],
        (n_dofs, n_dofs),
    )
    for result in near_blocks:
        result.rows = result.cols = result.vals = None  # folded into `near`
    del near_blocks

    # ---- far factors regrouped into the canonical segments ----
    far: list[tuple[sparse.csr_matrix, sparse.csr_matrix]] = []
    total_rank = 0
    for block_ids in segment_blocks:
        u_rows: list[np.ndarray] = []
        u_cols: list[np.ndarray] = []
        u_vals: list[np.ndarray] = []
        v_rows: list[np.ndarray] = []
        v_cols: list[np.ndarray] = []
        v_vals: list[np.ndarray] = []
        segment_rank = 0
        for block_index in block_ids:
            result = outcomes[int(block_index)]
            rank = result.rank
            if result.kind != "far" or rank == 0:
                continue
            block = partition.blocks[int(block_index)]
            ur, uc, uv, vr, vc, vv = far_factor_entries(
                result.u,
                result.v,
                dof_matrix[tree.elements_of(block.row)].ravel(),
                dof_matrix[tree.elements_of(block.col)].ravel(),
                segment_rank,
            )
            # The entry lists are the factors' last holders: they go with the
            # segment once its matrices are built.
            result.u = result.v = None
            u_rows.append(ur)
            u_cols.append(uc)
            u_vals.append(uv)
            v_rows.append(vr)
            v_cols.append(vc)
            v_vals.append(vv)
            segment_rank += rank
        if segment_rank:
            far.append(
                (
                    _csr(u_rows, u_cols, u_vals, (n_dofs, segment_rank)),
                    _csr(v_rows, v_cols, v_vals, (n_dofs, segment_rank)),
                )
            )
            total_rank += segment_rank

    if tracer.enabled:
        # The worker-measured task seconds become the span durations — the
        # same tree for every worker count and pool.
        emit_far_block_spans(
            tracer,
            far_entries,
            far_seconds=float(sum(entry[4] for entry in far_entries)),
            total_rank=int(total_rank),
        )
        tracer.record_span(
            "blocks.near",
            duration_seconds=near_trace_seconds,
            n_blocks=n_near,
            near_pairs=int(near_pairs),
        )

    shard_loads = [float(costs[shard].sum()) if shard else 0.0 for shard in shards]
    rank_array = np.asarray(ranks, dtype=int)
    stats: dict[str, Any] = {
        **partition.summary(),
        "leaf_size": control.leaf_size,
        "tolerance": control.tolerance,
        "safety": control.safety,
        "max_rank": control.max_rank,
        "reference_scale": profile.scale,
        "n_clusters": tree.n_clusters,
        "tree_depth": tree.depth(),
        "n_fallback_blocks": n_fallback,
        "total_rank": total_rank,
        "rank_min": int(rank_array.min()) if rank_array.size else 0,
        "rank_max": int(rank_array.max()) if rank_array.size else 0,
        "rank_mean": float(rank_array.mean()) if rank_array.size else 0.0,
        "near_nnz": int(near.nnz),
        "near_pairs": int(near_pairs),
        "block_cost_units_total": float(costs.sum()),
        "workers": n_workers,
        "backend": outcome.backend,
        "persistent_pool": pool is not None,
        "oversubscribed": n_workers > (os.cpu_count() or 1),
        "n_shards": len([shard for shard in shards if shard]),
        "shard_cost_units": shard_loads,
        "shard_makespan_units": float(max(shard_loads)) if shard_loads else 0.0,
        "n_far_segments": len(far),
    }
    operator = HierarchicalOperator(near, far, stats)
    stats["memory_bytes"] = operator.memory_bytes()
    stats["dense_bytes"] = 8 * n_dofs * n_dofs
    stats["compression"] = stats["memory_bytes"] / max(stats["dense_bytes"], 1)
    return operator
