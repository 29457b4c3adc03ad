"""Hierarchical far-field clustering: the ``O(M log M)`` assembly/solve engine.

The dense Galerkin assembly (even batched and adaptive) stores and generates
``O(M^2)`` influence entries, which caps practical grids near ~10^3 elements.
This package breaks that barrier with the classic H-matrix construction:

* :mod:`repro.cluster.tree` — cardinality-balanced binary cluster tree over
  the element centroids (median split of the longest axis);
* :mod:`repro.cluster.blocks` — admissibility-driven block cluster tree
  splitting the element-pair set into near-field and far-field blocks;
* :mod:`repro.cluster.aca` — Adaptive Cross Approximation compressing each
  far-field block to low rank from ``O(rank)`` sampled rows/columns;
* :mod:`repro.cluster.operator` — the matrix-free
  :class:`~repro.cluster.operator.HierarchicalOperator` combining a sparse
  near field with the aggregated low-rank far field, consumed directly by the
  (generalised) conjugate-gradient solver; its blocks are built by
  :mod:`repro.parallel.block_backend`.

Entry points: ``assemble_system(..., options=AssemblyOptions(hierarchical=
HierarchicalControl()))`` or ``GroundingAnalysis(..., hierarchical=...)``.
"""

from repro.cluster.aca import LowRankFactors, aca_lowrank
from repro.cluster.block_assembly import (
    compress_far_block,
    near_block_triplets,
    upper_triangle_scatter,
)
from repro.cluster.blocks import Block, BlockClusterTree, is_admissible
from repro.cluster.operator import (
    HierarchicalControl,
    HierarchicalOperator,
    pairwise_tree_sum,
)
from repro.cluster.tree import Cluster, ClusterTree, box_distance

__all__ = [
    "Block",
    "BlockClusterTree",
    "compress_far_block",
    "near_block_triplets",
    "upper_triangle_scatter",
    "Cluster",
    "ClusterTree",
    "HierarchicalControl",
    "HierarchicalOperator",
    "LowRankFactors",
    "aca_lowrank",
    "box_distance",
    "is_admissible",
    "pairwise_tree_sum",
]
