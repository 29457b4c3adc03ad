"""Matrix-free hierarchical influence operator (near-field + ACA far field).

:class:`HierarchicalOperator` represents the Galerkin grounding matrix as

    ``A  ~=  N  +  U V^T  +  V U^T``

where ``N`` is a sparse near-field matrix assembled densely from the
inadmissible blocks of a :class:`~repro.cluster.blocks.BlockClusterTree`
(through the existing batched — optionally adaptive — kernels of
:class:`~repro.bem.influence.ColumnAssembler`), and ``U V^T + V U^T`` sums
the ACA low-rank factors ``U_b V_b^T`` of every admissible far-field block,
each applied together with its transpose, so the operator is symmetric by
construction, exactly like the dense symmetrised assembly.  Every part is
held in plain NumPy arrays — the near field's upper triangle as unique pairs
in row runs (:class:`NearField`), each far block's factors dense over their
unique dof rows, packed into runs of equal rank (:class:`FarField`) — so the
operator needs no sparse-matrix library.

Storage and matrix-vector cost are ``O(M log M)`` instead of the dense
``O(M^2)``, which is what lifts the solver from the ~10^3-element regime of
the dense engine to the >=10^4-element grids targeted by the scaling
benchmark (``benchmarks/bench_hierarchical_scaling.py``).

The operator is built by the block builder of
:mod:`repro.parallel.block_backend` — in process, on forked workers or on a
persistent :class:`~repro.parallel.pool.WorkerPool`.  The near field is
stored once, as one upper triangle summed in ascending block order; every
far block is tagged with one of the canonical matvec *segments* and handed
over segment by segment, in ascending block order.  Deterministic-reduction
contract: the matvec, diagonal and ``todense`` reduce the near-field partial
and the per-segment partials with :func:`pairwise_tree_sum` in fixed order,
and every partial sums its blocks in an order fixed by the stored arrays, so
every result (and every PCG iterate) is bit-identical for any worker count.

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
from typing import Any, Iterator, Sequence

import numpy as np

from repro.bem.assembly import AssemblyOptions, assemble_rhs
from repro.bem.elements import DofManager
from repro.bem.influence import ColumnAssembler
from repro.bem.system import LinearSystem
from repro.cluster.block_assembly import sum_duplicate_pairs
from repro.constants import DEFAULT_GPR
from repro.exceptions import ClusterError
from repro.geometry.discretize import Mesh
from repro.kernels.base import LayeredKernel, kernel_for_soil
from repro.observe import ensure_tracer
from repro.soil.base import SoilModel
from repro.timing import wall_clock

__all__ = [
    "FarField",
    "HierarchicalControl",
    "HierarchicalOperator",
    "NearField",
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


#: Values per near-field chunk and far-field run (1 MiB of float64): the
#: matvec passes over each twice — a product and its transpose, or term sums
#: and row sums — while it stays in cache.
_RUN_VALUES = 1 << 17


class NearField:
    """The symmetric near field, every dof pair stored once: its upper triangle.

    Built from COO parts (concatenated in order, duplicate pairs summed by
    :func:`~repro.cluster.block_assembly.sum_duplicate_pairs`), the entries
    are held sorted by ``(row, col)`` in row runs: ``row_ids`` lists the
    non-empty rows, ``row_ptr`` the offsets of their runs in ``cols`` and
    ``vals``.  ``apply`` adds ``N x`` — one ``np.add.reduceat`` over the
    runs — and ``N^T x`` — the operand expanded over the runs and summed with
    ``np.bincount`` — and subtracts the diagonal once.  Both products walk
    the same chunks of about :data:`_RUN_VALUES` entries, so each chunk is
    read from memory once.  Index arrays are intp: NumPy gathers and bins
    through int32 indices on a casting path that makes the products about
    2.5x slower.
    """

    def __init__(
        self,
        rows: Sequence[np.ndarray],
        cols: Sequence[np.ndarray],
        vals: Sequence[np.ndarray],
        n_dofs: int,
    ) -> None:
        summed_rows, summed_cols, self.vals = sum_duplicate_pairs(rows, cols, vals, n_dofs)
        starts = np.flatnonzero(np.diff(summed_rows, prepend=-1))
        self.n_dofs = int(n_dofs)
        self.row_ids = summed_rows[starts].astype(np.intp)
        self.row_ptr = np.append(starts, summed_rows.size).astype(np.intp)
        self.cols = summed_cols.astype(np.intp)
        on_diagonal = summed_rows == summed_cols
        self.diagonal = np.zeros(self.n_dofs)
        self.diagonal[self.cols[on_diagonal]] = self.vals[on_diagonal]
        # Chunk boundaries, in row runs: the first run at or past every
        # multiple of _RUN_VALUES entries.
        self.chunks = np.unique(
            np.concatenate(
                [
                    np.searchsorted(self.row_ptr[:-1], np.arange(0, self.nnz, _RUN_VALUES)),
                    [0, self.row_ids.size],
                ]
            )
        )

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    @property
    def rows(self) -> np.ndarray:
        """The row of every stored entry (expanded from the runs)."""
        return np.repeat(self.row_ids, np.diff(self.row_ptr))

    def apply(self, x: np.ndarray) -> np.ndarray:
        rows_part = np.zeros(self.n_dofs)
        columns_part = np.zeros(self.n_dofs)
        for first, stop in zip(self.chunks[:-1], self.chunks[1:]):
            row_ids = self.row_ids[first:stop]
            starts = self.row_ptr[first : stop + 1] - self.row_ptr[first]
            entries = slice(self.row_ptr[first], self.row_ptr[stop])
            vals, cols = self.vals[entries], self.cols[entries]
            rows_part[row_ids] = np.add.reduceat(vals * x.take(cols), starts[:-1])
            x_rows = np.repeat(x[row_ids], np.diff(starts))
            columns_part += np.bincount(cols, weights=vals * x_rows, minlength=self.n_dofs)
        return rows_part + columns_part - self.diagonal * x

    def upper_todense(self) -> np.ndarray:
        """The stored upper triangle (incl. diagonal) as a dense matrix."""
        dense = np.zeros((self.n_dofs, self.n_dofs))
        dense[self.rows, self.cols] = self.vals
        return dense

    def todense(self) -> np.ndarray:
        upper = self.upper_todense()
        return upper + upper.T - np.diag(self.diagonal)

    def memory_bytes(self) -> int:
        arrays = (self.row_ids, self.row_ptr, self.cols, self.vals, self.diagonal, self.chunks)
        return int(sum(array.nbytes for array in arrays))


@dataclass(frozen=True)
class _BlockRun:
    """Consecutive far blocks of one rank ``k``, stored side by side.

    ``values`` is ``(k, rows)``: every block's ``U`` half then its ``V``
    half, each term-major over its dof rows.  ``starts``/``sizes`` locate the
    halves among the columns — halves ``2b`` and ``2b + 1`` belong to block
    ``b``.  ``offset`` is the run's first row in :attr:`FarField.rows`.
    """

    values: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    offset: int


class FarField:
    """Every far block's ACA factors, dense over unique dof rows, in runs of one rank.

    A far block couples row dofs ``R`` and column dofs ``C`` through ``U``
    (``|R| x k``) and ``V`` (``|C| x k``) and applies ``U V^T x + V U^T x``.
    Its halves ``(R, U)`` and ``(C, V)`` arrive summed per dof
    (:func:`~repro.cluster.block_assembly.far_dof_halves`, run where the
    block was compressed); blocks of equal rank are packed, in canonical
    order, into :class:`_BlockRun` arrays of about :data:`_RUN_VALUES`
    values.  A matvec costs a handful of whole-array operations per run: a
    multiply with the gathered operand, one ``np.add.reduceat`` giving every
    half's term sums, a swap of each block's two sums, an ``np.repeat`` back
    over the rows, a multiply and a column sum — no per-entry index.
    ``rows`` lists the dof of every stored row, run after run, and ``keys``
    its ``segment * n_dofs + row``: one ``np.bincount`` over ``keys`` adds
    the row sums into one partial per canonical matvec segment, in fixed
    order.
    """

    def __init__(
        self,
        blocks: list[Any],
        n_dofs: int,
        n_segments: int,
    ) -> None:
        """``blocks`` lists ``(segment, R, U^T, C, V^T)`` in canonical order.

        Each block's halves are already summed per dof, as
        :func:`~repro.cluster.block_assembly.far_dof_halves` returns them:
        ``R``/``C`` its sorted unique row and column dofs, ``U^T``/``V^T``
        the ``(k, |R|)`` and ``(k, |C|)`` term-major values, ``k >= 1``.
        Each entry is set to ``None`` once its block is packed, so at most
        one run's blocks are held apart from the runs.
        """
        self.n_dofs = int(n_dofs)
        self.n_segments = int(n_segments)
        self.runs: list[_BlockRun] = []
        rows: list[np.ndarray] = []
        segments: list[np.ndarray] = []
        by_rank: dict[int, list[int]] = {}
        for index, block in enumerate(blocks):
            by_rank.setdefault(int(block[2].shape[0]), []).append(index)
        for rank in sorted(by_rank):
            run: list[tuple[int, tuple, tuple]] = []
            width = 0
            for index in by_rank[rank]:
                segment, row_dofs, u_t, col_dofs, v_t = blocks[index]
                blocks[index] = None
                member = (segment, (row_dofs, u_t), (col_dofs, v_t))
                member_width = row_dofs.size + col_dofs.size
                if run and rank * (width + member_width) > _RUN_VALUES:
                    self._append_run(run, rows, segments)
                    run, width = [], 0
                run.append(member)
                width += member_width
            self._append_run(run, rows, segments)
        self.rows = np.concatenate(rows or [np.zeros(0, dtype=np.intp)], dtype=np.intp)
        self.keys = (
            np.concatenate(segments).astype(np.intp) * self.n_dofs + self.rows
            if segments
            else np.zeros(0, dtype=np.intp)
        )

    def _append_run(
        self,
        run: list[tuple[int, tuple, tuple]],
        rows: list[np.ndarray],
        segments: list[np.ndarray],
    ) -> None:
        """Pack folded blocks of one rank into a :class:`_BlockRun`."""
        halves = [half for member in run for half in member[1:]]
        sizes = np.array([half_rows.size for half_rows, _ in halves], dtype=np.intp)
        last = self.runs[-1] if self.runs else None
        offset = last.offset + last.values.shape[1] if last else 0
        self.runs.append(
            _BlockRun(
                np.concatenate([half_values for _, half_values in halves], axis=1),
                np.cumsum(sizes) - sizes,
                sizes,
                offset,
            )
        )
        rows.extend(half_rows for half_rows, _ in halves)
        segments.append(np.repeat(np.repeat([member[0] for member in run], 2), sizes))

    def _by_segment(self, keys: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Sum ``weights`` into an ``(n_segments, n_dofs)`` array by ``keys``."""
        size = self.n_segments * self.n_dofs
        return np.bincount(keys, weights=weights, minlength=size).reshape(
            self.n_segments, self.n_dofs
        )

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The per-segment partials of ``sum_blocks U V^T x + V U^T x``, one row each."""
        if not self.runs:
            return np.zeros((self.n_segments, self.n_dofs))
        operand = x.take(self.rows)
        row_sums = []
        for run in self.runs:
            values = run.values
            rank, width = values.shape
            local = operand[run.offset : run.offset + width]
            terms = np.add.reduceat(values * local, run.starts, axis=1)
            # Each block's U half takes its V half's term sums and vice versa.
            swapped = terms.reshape(rank, -1, 2)[:, :, ::-1].reshape(rank, -1)
            partner = np.repeat(swapped, run.sizes, axis=1)
            partner *= values
            row_sums.append(partner.sum(axis=0))
        return self._by_segment(self.keys, np.concatenate(row_sums))

    def diagonal(self) -> np.ndarray:
        """Per segment, ``2 sum_k U[i, k] V[i, k]`` over the dofs ``i`` in ``R`` and ``C``."""
        keys: list[np.ndarray] = [np.zeros(0, dtype=np.intp)]
        products: list[np.ndarray] = [np.zeros(0)]
        for run in self.runs:
            width = run.values.shape[1]
            half = np.repeat(np.arange(run.sizes.size), run.sizes)
            run_keys = (half // 2) * self.n_dofs + self.rows[run.offset : run.offset + width]
            u_columns = np.flatnonzero(half % 2 == 0)
            v_columns = np.flatnonzero(half % 2 == 1)
            _, in_u, in_v = np.intersect1d(
                run_keys[u_columns], run_keys[v_columns], assume_unique=True, return_indices=True
            )
            in_u, in_v = u_columns[in_u], v_columns[in_v]
            keys.append(self.keys[run.offset + in_u])
            products.append(2.0 * (run.values[:, in_u] * run.values[:, in_v]).sum(axis=0))
        return self._by_segment(np.concatenate(keys), np.concatenate(products))

    def blocks(self) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(segment, R, U^T, C, V^T)`` of every stored block, run by run."""
        for run in self.runs:
            span = slice(run.offset, run.offset + run.values.shape[1])
            rows, keys = self.rows[span], self.keys[span]
            for u_half in range(0, run.sizes.size, 2):
                u, v = (
                    slice(run.starts[half], run.starts[half] + run.sizes[half])
                    for half in (u_half, u_half + 1)
                )
                segment = int(keys[u.start]) // self.n_dofs
                yield segment, rows[u], run.values[:, u], rows[v], run.values[:, v]

    def todense(self) -> np.ndarray:
        """Per segment, the dense ``U V^T + V U^T`` (small problems / tests only)."""
        dense = np.zeros((self.n_segments, self.n_dofs, self.n_dofs))
        for segment, row_dofs, u, col_dofs, v in self.blocks():
            coupling = u.T @ v
            dense[segment][np.ix_(row_dofs, col_dofs)] += coupling
            dense[segment][np.ix_(col_dofs, row_dofs)] += coupling.T
        return dense

    @property
    def nnz(self) -> int:
        return int(sum(run.values.size for run in self.runs))

    def memory_bytes(self) -> int:
        arrays = [self.rows, self.keys]
        for run in self.runs:
            arrays += [run.values, run.starts, run.sizes]
        return int(sum(array.nbytes for array in arrays))


class HierarchicalOperator:
    """Symmetric matrix-free operator: sparse near field plus low-rank far field.

    ``near`` is the :class:`NearField` (its upper triangle) and ``far`` the
    :class:`FarField` of every far block.  ``matvec`` evaluates the
    near-field partial and one partial per canonical far segment and reduces
    them with :func:`pairwise_tree_sum` in fixed order, so the result is
    bit-identical for any assembly worker count.
    """

    def __init__(self, near: NearField, far: FarField, stats: dict[str, Any]) -> None:
        self.near = near
        self.far = far
        self.stats = stats
        self.shape = (near.n_dofs, near.n_dofs)
        self.dtype = np.dtype(float)
        self._diagonal = pairwise_tree_sum([near.diagonal, *far.diagonal()])

    # ------------------------------------------------------------------ linear algebra

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the operator: near and per-segment partials, pairwise-tree reduced."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.shape[0],):
            raise ClusterError(
                f"operand shape {x.shape} does not match operator size {self.shape[0]}"
            )
        return pairwise_tree_sum([self.near.apply(x), *self.far.apply(x)])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def diagonal(self) -> np.ndarray:
        """Main diagonal of the represented matrix (for Jacobi preconditioning)."""
        return self._diagonal.copy()

    def todense(self) -> np.ndarray:
        """Materialise the represented matrix (small problems / tests only)."""
        return pairwise_tree_sum([self.near.todense(), *self.far.todense()])

    def stored_entries(self) -> int:
        """Matrix entries stored: the near upper triangle plus every far factor entry.

        A matvec applies each of them twice — in a product and in its
        transpose, or in a term sum and a row sum
        (:func:`repro.solvers.cg.as_matvec_operator` counts flops from this).
        """
        return self.near.nnz + self.far.nnz

    def memory_bytes(self) -> int:
        """Bytes of the stored arrays: values, their indices and runs, diagonals."""
        return int(
            self._diagonal.nbytes + self.near.memory_bytes() + self.far.memory_bytes()
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HierarchicalOperator(n={self.shape[0]}, "
            f"far_segments={self.far.n_segments}, "
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
