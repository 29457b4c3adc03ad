"""Matrix-free hierarchical influence operator (near-field + ACA far field).

:class:`HierarchicalOperator` represents the Galerkin grounding matrix as

    ``A  ~=  N  +  U V^T  +  V U^T``

where ``N`` is a sparse near-field matrix assembled densely from the
inadmissible blocks of a :class:`~repro.cluster.blocks.BlockClusterTree`
(through the existing batched — optionally adaptive — kernels of
:class:`~repro.bem.influence.ColumnAssembler`), and ``U``/``V`` aggregate the
ACA low-rank factors of every admissible far-field block into tall sparse
matrices (one column per rank-one term, rows living in the global dof space).
The two rank-factor products apply every off-diagonal block together with its
transpose, so the operator is symmetric by construction, exactly like the
dense symmetrised assembly.

Storage and matrix-vector cost are ``O(M log M)`` instead of the dense
``O(M^2)``, which is what lifts the solver from the ~10^3-element regime of
the dense engine to the >=10^4-element grids targeted by the scaling
benchmark (``benchmarks/bench_hierarchical_scaling.py``).

The operator is built by the block builder of
:mod:`repro.parallel.block_backend` — in process, on forked workers or on a
persistent :class:`~repro.parallel.pool.WorkerPool`.  The near field is
stored once, as one upper-triangle matrix summed in ascending block order;
the far factors are split into canonical matvec *segments*, each
concatenating its blocks in ascending block order.  Deterministic-reduction
contract: the matvec, diagonal and ``todense`` reduce the near-field partial
and the per-segment partials with :func:`pairwise_tree_sum` in fixed order,
so every result (and every PCG iterate) is bit-identical for any worker
count.

Error contract: near-field entries are evaluated by the dense engine's
kernels one block at a time (see :mod:`repro.cluster.block_assembly`), and
match the dense engine's full-column batches to reduction round-off, ~1e-12
of the reference entry scale; far-field blocks are sampled with the dense
engine's min-index source orientation
(:meth:`ColumnAssembler.pair_block_row`) and truncated at
``tolerance * scale / safety`` with ``scale`` the mesh's reference entry
magnitude — the same contract as the adaptive evaluation layer, so the
hierarchical operator matches the dense matrix entrywise to
``O(tolerance * ||A||_max)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.bem.assembly import AssemblyOptions, assemble_rhs
from repro.bem.elements import DofManager
from repro.bem.influence import ColumnAssembler
from repro.bem.system import LinearSystem
from repro.constants import DEFAULT_GPR
from repro.exceptions import ClusterError
from repro.geometry.discretize import Mesh
from repro.kernels.base import LayeredKernel, kernel_for_soil
from repro.observe import ensure_tracer
from repro.soil.base import SoilModel
from repro.timing import wall_clock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from scipy import sparse

__all__ = [
    "HierarchicalControl",
    "HierarchicalOperator",
    "assemble_hierarchical_steps",
    "pairwise_tree_sum",
]


@dataclass(frozen=True)
class HierarchicalControl:
    """Knobs of the hierarchical far-field engine.

    Parameters
    ----------
    leaf_size:
        Elements per cluster-tree leaf.  Smaller leaves shrink the dense
        near field but multiply the number of far-field blocks.
    eta:
        Admissibility parameter of the block partition
        (``min(diam) <= eta * dist``).
    tolerance:
        Target entrywise accuracy of the compressed matrix relative to the
        mesh's reference entry magnitude — the same ``tol * ||A||_max``
        contract as :class:`~repro.kernels.truncation.AdaptiveControl`.
    safety:
        The ACA stopping threshold is ``tolerance * scale / safety``; the
        factor absorbs the accumulation of many block truncations.
    max_rank:
        Rank cap per far-field block; blocks that hit it (or whose factors
        would store more than half the dense block) fall back to dense
        near-field assembly.
    workers:
        Block-assembly workers when no persistent pool is passed: ``0``
        (default) assembles every block in this process, any positive count
        forks that many workers for the call.  Either way the blocks run
        through :mod:`repro.parallel.block_backend` (the LPT partition of
        :func:`repro.parallel.costs.partition_block_work`), and the result is
        bit-identical for every worker count.
    """

    leaf_size: int = 64
    eta: float = 1.5
    tolerance: float = 1.0e-8
    safety: float = 4.0
    max_rank: int = 96
    workers: int = 0

    def __post_init__(self) -> None:
        if self.leaf_size < 1:
            raise ClusterError(f"leaf_size must be at least 1, got {self.leaf_size!r}")
        if self.eta <= 0.0 or not np.isfinite(self.eta):
            raise ClusterError(f"eta must be positive and finite, got {self.eta!r}")
        if not 0.0 < self.tolerance < 1.0:
            raise ClusterError(
                f"tolerance must lie strictly between 0 and 1, got {self.tolerance!r}"
            )
        if self.safety < 1.0 or not np.isfinite(self.safety):
            raise ClusterError(f"safety factor must be finite and >= 1, got {self.safety!r}")
        if self.max_rank < 1:
            raise ClusterError(f"max_rank must be at least 1, got {self.max_rank!r}")
        if self.workers < 0:
            raise ClusterError(f"workers must be >= 0, got {self.workers!r}")


def pairwise_tree_sum(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Deterministic pairwise tree reduction of equally shaped arrays.

    Adjacent partials are summed level by level in their given order —
    ``((a0+a1)+(a2+a3))+...`` — so the floating-point result depends only on
    the order and number of the partials, never on scheduling.  This is the
    reduction of the operator's matvec (near field first, then the far
    segments in fixed order).
    """
    items = list(arrays)
    if not items:
        raise ClusterError("pairwise_tree_sum needs at least one array")
    while len(items) > 1:
        items = [
            items[k] + items[k + 1] if k + 1 < len(items) else items[k]
            for k in range(0, len(items), 2)
        ]
    return items[0]


def _sparse_bytes(matrix: sparse.csr_matrix) -> int:
    return int(matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)


class _NearField:
    """The symmetric near field, every dof pair stored once.

    ``upper`` is the upper triangle (incl. diagonal); ``apply`` adds
    ``N + N^T - diag(N)``, halving the stored entries.
    """

    def __init__(self, upper: sparse.csr_matrix) -> None:
        self.upper = upper
        self.upper_diagonal = upper.diagonal()

    def apply(self, x: np.ndarray) -> np.ndarray:
        y = self.upper @ x
        y = y + self.upper.T @ x
        y = y - self.upper_diagonal * x
        return np.asarray(y).ravel()

    def diagonal_contribution(self) -> np.ndarray:
        return self.upper_diagonal.copy()

    def todense_contribution(self) -> np.ndarray:
        upper = np.asarray(self.upper.todense(), dtype=float)
        return upper + upper.T - np.diag(self.upper_diagonal)

    def memory_bytes(self) -> int:
        return self.upper_diagonal.nbytes + _sparse_bytes(self.upper)


class _FarSegment:
    """One canonical far-field matvec segment: the stacked factors of its blocks."""

    def __init__(self, u: sparse.csr_matrix, v: sparse.csr_matrix) -> None:
        self.u = u
        self.v = v

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The segment's contribution ``U V^T x + V U^T x``."""
        y = self.u @ (self.v.T @ x)
        y = y + self.v @ (self.u.T @ x)
        return np.asarray(y).ravel()

    def diagonal_contribution(self) -> np.ndarray:
        return 2.0 * np.asarray(self.u.multiply(self.v).sum(axis=1)).ravel()

    def todense_contribution(self) -> np.ndarray:
        u = np.asarray(self.u.todense(), dtype=float)
        v = np.asarray(self.v.todense(), dtype=float)
        return u @ v.T + v @ u.T

    def memory_bytes(self) -> int:
        return _sparse_bytes(self.u) + _sparse_bytes(self.v)


class HierarchicalOperator:
    """Symmetric matrix-free operator: sparse near field plus low-rank far field.

    ``near`` is the upper triangle of the near field; ``far`` lists the
    canonical far segments as ``(U, V)`` factor pairs.  ``matvec`` evaluates
    the near-field partial and one partial per far segment and reduces them
    with :func:`pairwise_tree_sum` in fixed order, so the result is
    bit-identical for any assembly worker count.
    """

    def __init__(
        self,
        near: sparse.csr_matrix,
        far: Sequence[tuple[sparse.csr_matrix, sparse.csr_matrix]],
        stats: dict[str, Any],
    ) -> None:
        self._parts: list[_NearField | _FarSegment] = [
            _NearField(near),
            *(_FarSegment(u, v) for u, v in far),
        ]
        self.stats = stats
        self.shape = (int(near.shape[0]), int(near.shape[0]))
        self.dtype = np.dtype(float)
        self._diagonal = pairwise_tree_sum(
            [part.diagonal_contribution() for part in self._parts]
        )

    # ------------------------------------------------------------------ linear algebra

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the operator: near and per-segment partials, pairwise-tree reduced."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.shape[0],):
            raise ClusterError(
                f"operand shape {x.shape} does not match operator size {self.shape[0]}"
            )
        return pairwise_tree_sum([part.apply(x) for part in self._parts])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def diagonal(self) -> np.ndarray:
        """Main diagonal of the represented matrix (for Jacobi preconditioning)."""
        return self._diagonal.copy()

    def todense(self) -> np.ndarray:
        """Materialise the represented matrix (small problems / tests only)."""
        return pairwise_tree_sum([part.todense_contribution() for part in self._parts])

    def memory_bytes(self) -> int:
        """Bytes stored by the operator (matrix data plus sparse index arrays)."""
        return int(self._diagonal.nbytes + sum(part.memory_bytes() for part in self._parts))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HierarchicalOperator(n={self.shape[0]}, "
            f"far_segments={len(self._parts) - 1}, "
            f"workers={self.stats.get('workers')}, "
            f"memory={self.memory_bytes() / 1e6:.1f} MB)"
        )


def assemble_hierarchical_steps(
    mesh: Mesh,
    soil: SoilModel,
    gpr: float = DEFAULT_GPR,
    options: AssemblyOptions | None = None,
    kernel: LayeredKernel | None = None,
    pool=None,
    cluster_cache=None,
    tracer=None,
):
    """Assemble the Galerkin system as a matrix-free hierarchical operator.

    The returned :class:`~repro.bem.system.LinearSystem` carries the
    :class:`HierarchicalOperator` in place of the dense matrix; the iterative
    solvers of :mod:`repro.solvers` consume it directly.  Normally reached
    through ``assemble_system(..., options=AssemblyOptions(hierarchical=...))``,
    the blocking driver.

    ``pool`` — a persistent :class:`repro.parallel.pool.WorkerPool` — runs
    the block assembly on spawn-once workers that are reused across
    assemblies (campaigns, sweeps); the generator then yields the block
    builder's :class:`~repro.parallel.pool.PoolJob` request (none without a
    pool) for :func:`~repro.parallel.pool.drive_pool_steps` or a multiplexing
    scheduler (the campaign runner) to execute.  ``cluster_cache`` reuses the
    geometry-determined cluster tree/partition across assemblies of the same
    mesh.  ``tracer`` records the assembly span tree (plan, per-block far
    field, near aggregate) — identical for every worker count.
    """
    # Local import: repro.parallel imports repro.bem at package load time.
    from repro.parallel.block_backend import sharded_operator_steps

    options = options or AssemblyOptions(hierarchical=HierarchicalControl())
    control = options.hierarchical
    if control is None:
        raise ClusterError(
            "the hierarchical assembly needs AssemblyOptions.hierarchical to be set"
        )
    if kernel is None:
        kernel = kernel_for_soil(soil, options.series_control)
    dof_manager = DofManager(mesh, options.element_type)
    assembler = ColumnAssembler(
        mesh, kernel, dof_manager, options.n_gauss, adaptive=options.adaptive
    )

    tracer = ensure_tracer(tracer)
    start = wall_clock()
    with tracer.span(
        "assemble.hierarchical",
        n_elements=mesh.n_elements,
        n_dofs=dof_manager.n_dofs,
        element_type=options.element_type.value,
        n_gauss=options.n_gauss,
        soil_layers=soil.n_layers,
    ):
        operator = yield from sharded_operator_steps(
            assembler, control, pool=pool, cluster_cache=cluster_cache, tracer=tracer
        )
    generation_seconds = wall_clock() - start
    rhs = assemble_rhs(dof_manager, gpr)

    metadata: dict[str, Any] = {
        "matrix_generation_seconds": generation_seconds,
        "n_elements": mesh.n_elements,
        "n_dofs": dof_manager.n_dofs,
        "element_type": options.element_type.value,
        "n_gauss": options.n_gauss,
        "soil_layers": soil.n_layers,
        "backend": "hierarchical",
        "hierarchical": dict(operator.stats),
        "adaptive": None
        if options.adaptive is None
        else {
            "tolerance": options.adaptive.tolerance,
            "safety": options.adaptive.safety,
            "use_midpoint_tail": options.adaptive.use_midpoint_tail,
            "merge_degenerate": options.adaptive.merge_degenerate,
        },
    }
    return LinearSystem(
        matrix=operator, rhs=rhs, dof_manager=dof_manager, gpr=float(gpr), metadata=metadata
    )
