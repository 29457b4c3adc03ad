"""Sequential assembly of the Galerkin boundary-element system.

Following Section 6.2 of the paper, the matrix generation is organised as a
loop over the ``M (M + 1) / 2`` element pairs arranged as a *triangle of M
columns*: the column of source element α couples it with every element
``β ≥ α``.  :func:`assemble_system` runs those columns in schedule-sized
batches through the vectorised :meth:`~repro.bem.influence.ColumnAssembler.column_batch`
engine and scatters the resulting elemental blocks into the global matrix; the
parallel backends of :mod:`repro.parallel.parallel_assembly` reuse exactly the
same batched column tasks and the same scatter step (computation of elemental
matrices in parallel, assembly performed afterwards — the scheme the paper
adopts to break the assembly dependency between threads).

The scatter folds the matrix in fixed column groups ``[gG, (g+1)G)``, ``G =``
:meth:`~repro.bem.influence.ColumnAssembler.max_batch_size` (set by the mesh
and the kernel only): a group's blocks are accumulated into a narrow
``(n, C)`` slab (``C`` = its few source dofs) with one ``numpy.bincount``,
added into the matrix columns and — transposed — the mirrored rows, group
after group in ascending order.  Both drivers fold the same slabs in the same
order whatever their batch sizes or column arrival order, so the exact engine
gives them the same bits, and the fold's transient is one group's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.bem.elements import DofManager, ElementType
from repro.bem.influence import ColumnAssembler
from repro.bem.system import LinearSystem
from repro.constants import DEFAULT_GAUSS_POINTS, DEFAULT_GPR
from repro.exceptions import AssemblyError
from repro.geometry.discretize import Mesh
from repro.kernels.base import LayeredKernel, kernel_for_soil
from repro.kernels.series import SeriesControl
from repro.kernels.truncation import AdaptiveControl
from repro.soil.base import SoilModel
from repro.timing import wall_clock

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.cluster.operator import HierarchicalControl

__all__ = [
    "AssemblyOptions",
    "assemble_rhs",
    "assemble_system",
    "assemble_system_steps",
    "scatter_columns",
    "ColumnResult",
    "compute_column_batch",
]


@dataclass(frozen=True)
class AssemblyOptions:
    """Parameters of the Galerkin assembly.

    Parameters
    ----------
    element_type:
        Constant or linear leakage elements.
    n_gauss:
        Gauss points of the outer (test) integral.
    series_control:
        Truncation of the layered-soil image series.
    adaptive:
        Distance-adaptive evaluation of the image series (see
        :class:`repro.kernels.truncation.AdaptiveControl`).  The *default* is
        an ``AdaptiveControl()`` instance — the truncated/merged/
        midpoint-tail fast path whose matrices match the exact ones to
        ``tolerance * ||A||_max`` (1e-8 by default).  Pass ``None`` to force
        the exact full-series engine (reference comparisons, accuracy
        studies).
    hierarchical:
        ``None`` (default) assembles the dense matrix.  A
        :class:`repro.cluster.operator.HierarchicalControl` instance (or
        ``True`` for the defaults) switches :func:`assemble_system` to the
        matrix-free hierarchical far-field engine: the returned system then
        carries a :class:`~repro.cluster.operator.HierarchicalOperator`
        instead of a dense array and is solved with the (matrix-free)
        conjugate-gradient solvers.
    """

    element_type: ElementType = ElementType.LINEAR
    n_gauss: int = DEFAULT_GAUSS_POINTS
    series_control: SeriesControl = field(default_factory=SeriesControl)
    adaptive: "AdaptiveControl | None" = field(default_factory=AdaptiveControl)
    hierarchical: "HierarchicalControl | bool | None" = None

    def __post_init__(self) -> None:
        if self.n_gauss < 1:
            raise AssemblyError("n_gauss must be at least 1")
        if not isinstance(self.element_type, ElementType):
            object.__setattr__(self, "element_type", ElementType(self.element_type))
        if self.hierarchical is not None:
            # Imported lazily: repro.cluster depends on repro.bem.
            from repro.cluster.operator import HierarchicalControl

            if self.hierarchical is True:
                object.__setattr__(self, "hierarchical", HierarchicalControl())
            elif self.hierarchical is False:
                object.__setattr__(self, "hierarchical", None)
            elif not isinstance(self.hierarchical, HierarchicalControl):
                raise AssemblyError(
                    "hierarchical must be a HierarchicalControl instance, True/False "
                    f"or None, got {self.hierarchical!r}"
                )


@dataclass
class ColumnResult:
    """Elemental blocks of one assembly column (one outer-loop cycle)."""

    #: Index of the source element (the column).
    source_index: int
    #: Indices of the target elements of the column.
    targets: np.ndarray
    #: Blocks of shape ``(len(targets), nb, nb)``.
    blocks: np.ndarray
    #: Wall-clock seconds spent computing the column (used by the scheduler
    #: simulator and the timing tables): the column's share of its batch
    #: time (see :func:`repro.parallel.costs.timed_batch`).
    elapsed_seconds: float = 0.0


def assemble_rhs(dof_manager: DofManager, gpr: float = DEFAULT_GPR) -> np.ndarray:
    """Right-hand side ``ν_j = GPR ∫ w_j dΓ`` of the Galerkin system."""
    if gpr <= 0.0:
        raise AssemblyError(f"the Ground Potential Rise must be positive, got {gpr}")
    return float(gpr) * dof_manager.assemble_basis_integrals()


def scatter_columns(
    matrix: np.ndarray,
    dof_matrix: np.ndarray,
    columns: Iterable[ColumnResult],
    group_size: int,
) -> None:
    """Scatter-add columns into the global matrix, one slab per column group.

    Column ``α`` belongs to group ``α // group_size``; pass the columns in
    ascending ``source_index`` order, so the sums do not depend on arrival
    order.  A group only touches the few global dofs of its source elements
    on the column axis, so its updates are accumulated into a narrow
    ``(n, C)`` slab, flushed when the next group starts, and added into the
    matrix columns and — transposed — into the mirrored rows ("discard
    approximately half": diagonal pairs contribute half of their block to
    each orientation).
    """
    n = matrix.shape[0]
    #: (target-dof rows (T*nb,), source dofs (nb,), halved values (T*nb, nb)).
    pending_columns: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    pending_group = 0

    def _flush() -> None:
        if not pending_columns:
            return
        # The slab's column space is just the source dofs of the group — a
        # few per column, so the unique/compaction step works on tiny arrays,
        # never on the concatenated update stream.
        unique_cols = np.unique(np.concatenate([sd for _, sd, _ in pending_columns]))
        c = unique_cols.size
        flat_parts: list[np.ndarray] = []
        value_parts: list[np.ndarray] = []
        for rows_flat, source_dofs, values in pending_columns:
            compact = np.searchsorted(unique_cols, source_dofs)
            flat_parts.append((rows_flat[:, None] * c + compact[None, :]).ravel())
            value_parts.append(values.ravel())
        pending_columns.clear()
        slab = np.bincount(
            np.concatenate(flat_parts),
            weights=np.concatenate(value_parts),
            minlength=n * c,
        ).reshape(n, c)
        matrix[:, unique_cols] += slab
        matrix[unique_cols, :] += slab.T

    for column in columns:
        alpha = column.source_index
        if alpha // group_size != pending_group:
            _flush()
            pending_group = alpha // group_size
        targets = np.asarray(column.targets, dtype=int)
        if targets.size == 0:
            continue
        source_dofs = dof_matrix[alpha]  # (nb,)
        target_dofs = dof_matrix[targets]  # (T, nb)
        weights = np.where(targets == alpha, 0.5, 1.0)  # halve the diagonal pair
        values = column.blocks * weights[:, None, None]  # (T, nb_j, nb_i)
        pending_columns.append(
            (target_dofs.ravel(), source_dofs, values.reshape(-1, values.shape[2]))
        )
    _flush()


def compute_column_batch(
    assembler: ColumnAssembler,
    source_indices: Sequence[int],
    cost_hint: np.ndarray | None = None,
) -> list[ColumnResult]:
    """Compute a batch of columns in one vectorised pass, timing the batch.

    The batch wall time is split across the columns by their share of
    ``cost_hint`` (per-column relative costs indexed by column, or ``None``
    for uniform shares), so the per-column profile consumed by the schedule
    simulator stays meaningful.
    """
    # Local import: repro.parallel imports repro.bem at package load time.
    from repro.parallel.costs import timed_batch

    indices = [int(i) for i in source_indices]
    pairs, seconds = timed_batch(assembler.column_batch, indices, cost_hint)
    return [
        ColumnResult(
            source_index=index,
            targets=targets,
            blocks=blocks,
            elapsed_seconds=float(elapsed),
        )
        for index, (targets, blocks), elapsed in zip(indices, pairs, seconds)
    ]


def assemble_system(
    mesh: Mesh,
    soil: SoilModel,
    gpr: float = DEFAULT_GPR,
    options: AssemblyOptions | None = None,
    kernel: LayeredKernel | None = None,
    collect_column_times: bool = False,
    batch_size: int | None = None,
    pool=None,
    cluster_cache=None,
    tracer=None,
) -> LinearSystem:
    """Assemble the dense Galerkin system sequentially (batched columns).

    Parameters
    ----------
    mesh:
        Discretised grounding grid.
    soil:
        Layered soil model (one or two layers for the analytic kernels).
    gpr:
        Ground Potential Rise [V].
    options:
        Element type, quadrature order and series truncation.
    kernel:
        Pre-built kernel; by default one is created for ``soil`` with the
        options' series control.
    collect_column_times:
        When ``True`` the per-column wall-clock times are stored in the system
        metadata under ``"column_seconds"`` — this is the task-cost profile
        consumed by the scheduler simulator of :mod:`repro.parallel.simulator`.
        Unless a ``batch_size`` is forced, the columns are then computed one at
        a time so each timing is a genuine measurement.
    batch_size:
        Number of columns evaluated per vectorised batch.  Default: a
        memory-bounded automatic size (see
        :meth:`~repro.bem.influence.ColumnAssembler.max_batch_size`), or 1 when
        ``collect_column_times`` is requested.
    pool:
        Optional persistent :class:`repro.parallel.pool.WorkerPool` shared
        across assemblies.  Requires the hierarchical engine (the pool's
        task protocol is the block-task protocol): the block assembly then
        runs on the pool's spawn-once workers instead of a transient pool
        created for this call.
    cluster_cache:
        Optional :class:`repro.cluster.block_assembly.ClusterPlanCache`
        reusing the geometry-determined cluster tree/partition across
        repeated hierarchical assemblies of the same mesh.
    tracer:
        Optional :class:`repro.observe.Tracer` recording the assembly span
        tree (dense column phase, or the hierarchical plan/far/near tree).
        Defaults to the no-op tracer: the disabled cost is one attribute
        check.

    Returns
    -------
    LinearSystem
        The assembled system with assembly metadata.

    This is the blocking driver over :func:`assemble_system_steps`.
    """
    # Imported lazily: repro.parallel imports repro.bem at package load time.
    from repro.parallel.pool import drive_pool_steps

    return drive_pool_steps(
        assemble_system_steps(
            mesh,
            soil,
            gpr=gpr,
            options=options,
            kernel=kernel,
            collect_column_times=collect_column_times,
            batch_size=batch_size,
            pool=pool,
            cluster_cache=cluster_cache,
            tracer=tracer,
        ),
        pool,
    )


def assemble_system_steps(
    mesh: Mesh,
    soil: SoilModel,
    gpr: float = DEFAULT_GPR,
    options: AssemblyOptions | None = None,
    kernel: LayeredKernel | None = None,
    collect_column_times: bool = False,
    batch_size: int | None = None,
    pool=None,
    cluster_cache=None,
    tracer=None,
):
    """Generator form of :func:`assemble_system`.

    The hierarchical engine's pool dispatches surface as yielded
    :class:`~repro.parallel.pool.PoolJob` requests; the dense column
    engine runs inline without yielding.  Returns the assembled
    :class:`~repro.bem.system.LinearSystem`; drive with
    :func:`~repro.parallel.pool.drive_pool_steps` or a multiplexing
    scheduler (the campaign runner).
    """
    options = options or AssemblyOptions()
    if options.hierarchical is None and pool is not None:
        raise AssemblyError(
            "a persistent WorkerPool executes the sharded block-task protocol; "
            "pass AssemblyOptions(hierarchical=...) to use it (the dense column "
            "engine does not consume pools)"
        )
    if options.hierarchical is not None:
        if collect_column_times:
            raise AssemblyError(
                "the hierarchical engine decomposes work into cluster blocks, not "
                "columns; collect_column_times does not apply"
            )
        # Imported lazily: repro.cluster depends on repro.bem.
        from repro.cluster.operator import assemble_hierarchical_steps

        system = yield from assemble_hierarchical_steps(
            mesh,
            soil,
            gpr=gpr,
            options=options,
            kernel=kernel,
            pool=pool,
            cluster_cache=cluster_cache,
            tracer=tracer,
        )
        return system
    if kernel is None:
        kernel = kernel_for_soil(soil, options.series_control)
    dof_manager = DofManager(mesh, options.element_type)
    assembler = ColumnAssembler(
        mesh, kernel, dof_manager, options.n_gauss, adaptive=options.adaptive
    )
    dof_matrix = dof_manager.element_dof_matrix()

    if batch_size is None:
        batch_size = 1 if collect_column_times else assembler.max_batch_size()
    batch_size = max(1, int(batch_size))

    m = mesh.n_elements
    n = dof_manager.n_dofs
    matrix = np.zeros((n, n))
    # The per-column cost shares only matter when the caller collects the
    # per-column timing profile of multi-column batches; uniform shares do
    # otherwise (the estimate costs a few percent of the assembly itself).
    cost_hint = (
        assembler.column_cost_estimate() if collect_column_times and batch_size > 1 else None
    )

    column_seconds = np.zeros(m)

    def evaluated_columns() -> Iterable[ColumnResult]:
        for batch_start in range(0, m, batch_size):
            batch = range(batch_start, min(batch_start + batch_size, m))
            for column in compute_column_batch(assembler, batch, cost_hint):
                column_seconds[column.source_index] = column.elapsed_seconds
                yield column

    start = wall_clock()
    # The fold groups are the assembler's, whatever the evaluation batch size.
    scatter_columns(matrix, dof_matrix, evaluated_columns(), assembler.max_batch_size())
    generation_seconds = wall_clock() - start
    if tracer is not None and tracer.enabled:
        # batch_size is memory/host-derived (max_batch_size), hence volatile.
        tracer.record_span(
            "assemble.columns",
            duration_seconds=generation_seconds,
            volatile={"batch_size": batch_size},
            n_elements=mesh.n_elements,
            n_dofs=n,
            element_type=options.element_type.value,
            n_gauss=options.n_gauss,
            soil_layers=soil.n_layers,
        )

    rhs = assemble_rhs(dof_manager, gpr)

    metadata: dict = {
        "matrix_generation_seconds": generation_seconds,
        "n_elements": mesh.n_elements,
        "n_dofs": n,
        "element_type": options.element_type.value,
        "n_gauss": options.n_gauss,
        "soil_layers": soil.n_layers,
        "kernel_terms": {
            f"k{b}{c}": kernel.series_length(b, c)
            for b in range(1, soil.n_layers + 1)
            for c in range(1, soil.n_layers + 1)
        },
        "backend": "sequential",
        "batch_size": batch_size,
        "adaptive": None
        if options.adaptive is None
        else {
            "tolerance": options.adaptive.tolerance,
            "safety": options.adaptive.safety,
            "use_midpoint_tail": options.adaptive.use_midpoint_tail,
            "merge_degenerate": options.adaptive.merge_degenerate,
        },
    }
    if collect_column_times:
        metadata["column_seconds"] = column_seconds

    return LinearSystem(
        matrix=matrix, rhs=rhs, dof_manager=dof_manager, gpr=float(gpr), metadata=metadata
    )


def assemble_from_columns(
    columns: Iterable[ColumnResult],
    assembler: ColumnAssembler,
    gpr: float = DEFAULT_GPR,
    metadata: dict | None = None,
) -> LinearSystem:
    """Build a :class:`LinearSystem` from pre-computed column blocks.

    This is the sequential "assembly" stage that follows the (possibly
    parallel) computation of the elemental matrices, mirroring the paper's
    scheme of taking the assembly out of the parallel loop.  Columns ``0..M-1``
    come once each, in any order, and are folded and let go group by group,
    in the assembler's column groups, as :func:`assemble_system` folds them.
    """
    dof_manager = assembler.dof_manager
    group_size = assembler.max_batch_size()
    m = dof_manager.n_elements
    groups: list[list[ColumnResult]] = [[] for _ in range(-(-m // group_size))]
    seen = np.zeros(m, dtype=bool)
    for column in columns:
        index = column.source_index
        if not 0 <= index < m:
            raise AssemblyError(f"column {index} is out of range 0..{m - 1}")
        if seen[index]:
            raise AssemblyError(f"column {index} provided twice")
        seen[index] = True
        groups[index // group_size].append(column)
    if not seen.all():
        missing = np.flatnonzero(~seen)[:10].tolist()
        raise AssemblyError(f"missing columns in assembly: {missing} ...")

    def ascending() -> Iterable[ColumnResult]:
        for g in range(len(groups)):
            group, groups[g] = groups[g], []
            group.sort(key=lambda column: column.source_index)
            yield from group

    n = dof_manager.n_dofs
    matrix = np.zeros((n, n))
    scatter_columns(matrix, dof_manager.element_dof_matrix(), ascending(), group_size)
    rhs = assemble_rhs(dof_manager, gpr)
    return LinearSystem(
        matrix=matrix,
        rhs=rhs,
        dof_manager=dof_manager,
        gpr=float(gpr),
        metadata=dict(metadata or {}),
    )
