"""Assembly of the Galerkin boundary-element system.

Following Section 6.2 of the paper, the matrix generation is organised as a
loop over the ``M (M + 1) / 2`` element pairs arranged as a *triangle of M
columns*: the column of source element α couples it with every element
``β ≥ α``.  The loop has one driver,
:func:`repro.parallel.parallel_assembly.assemble_system_parallel`: it computes
the elemental blocks with the vectorised
:meth:`~repro.bem.influence.ColumnAssembler.column_batch` engine — in the
calling process for one worker, on a process pool otherwise — and a
:class:`ColumnFold` (:func:`assemble_from_columns` over a stream) folds them
into the global matrix in the master as they arrive (computation of
elemental matrices apart from their assembly: the scheme the paper adopts to
break the assembly dependency between threads, without storing them all).
:func:`assemble_system` hands the dense engine to that driver (one worker
unless ``parallel`` says otherwise), and is the entry of the hierarchical
engine.

The fold works in fixed column groups ``[gG, (g+1)G)``, ``G =``
:meth:`~repro.bem.influence.ColumnAssembler.max_batch_size` (set by the mesh
and the kernel only): a group's blocks are accumulated into a narrow
``(n, C)`` slab (``C`` = its few source dofs) with one ``numpy.bincount``,
added into the matrix columns and — transposed — the mirrored rows, group
after group in ascending order.  Every worker count, schedule and column
arrival order folds the same slabs in the same order, so the exact engine
gives them the same bits, and the fold's transient is one group's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.bem.elements import DofManager, ElementType
from repro.bem.influence import ColumnAssembler
from repro.bem.system import LinearSystem
from repro.constants import DEFAULT_GAUSS_POINTS, DEFAULT_GPR
from repro.exceptions import AssemblyError
from repro.geometry.discretize import Mesh
from repro.kernels.base import LayeredKernel
from repro.kernels.series import SeriesControl
from repro.kernels.truncation import AdaptiveControl
from repro.soil.base import SoilModel

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.cluster.operator import HierarchicalControl
    from repro.parallel.options import ParallelOptions

__all__ = [
    "AssemblyOptions",
    "assemble_rhs",
    "assemble_system",
    "assemble_system_steps",
    "ColumnResult",
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
    #: Wall-clock seconds spent computing the column: the column's share of
    #: the time of the ``column_batch`` call it came from (see
    #: :func:`repro.parallel.costs.timed_batch`).
    elapsed_seconds: float = 0.0


def assemble_rhs(dof_manager: DofManager, gpr: float = DEFAULT_GPR) -> np.ndarray:
    """Right-hand side ``ν_j = GPR ∫ w_j dΓ`` of the Galerkin system."""
    if gpr <= 0.0:
        raise AssemblyError(f"the Ground Potential Rise must be positive, got {gpr}")
    return float(gpr) * dof_manager.assemble_basis_integrals()


def _column_slab(
    n: int, dof_matrix: np.ndarray, columns: Iterable[ColumnResult]
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n, C)`` slab of a set of columns over their ``C`` source dofs.

    The columns are taken in ascending ``source_index`` order, whatever order
    they come in.  A set of columns only touches the few global dofs of its
    source elements on the column axis, so the unique/compaction step works on
    tiny arrays, never on the concatenated update stream.  Diagonal pairs
    contribute half of their block ("discard approximately half"): the slab is
    added into the matrix columns and, transposed, into the mirrored rows.
    """
    #: (target-dof rows (T*nb,), source dofs (nb,), halved values (T*nb, nb)).
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for column in sorted(columns, key=lambda column: column.source_index):
        alpha = column.source_index
        targets = np.asarray(column.targets, dtype=int)
        weights = np.where(targets == alpha, 0.5, 1.0)  # halve the diagonal pair
        values = column.blocks * weights[:, None, None]  # (T, nb_j, nb_i)
        parts.append(
            (dof_matrix[targets].ravel(), dof_matrix[alpha], values.reshape(-1, values.shape[2]))
        )
    dofs = np.unique(np.concatenate([source_dofs for _, source_dofs, _ in parts]))
    c = dofs.size
    flat = np.concatenate(
        [
            (rows_flat[:, None] * c + np.searchsorted(dofs, source_dofs)[None, :]).ravel()
            for rows_flat, source_dofs, _ in parts
        ]
    )
    weights = np.concatenate([values.ravel() for _, _, values in parts])
    return dofs, np.bincount(flat, weights=weights, minlength=n * c).reshape(n, c)


def _add_slab(matrix: np.ndarray, dofs: np.ndarray, slab: np.ndarray) -> None:
    matrix[:, dofs] += slab
    matrix[dofs, :] += slab.T


def assemble_system(
    mesh: Mesh,
    soil: SoilModel,
    gpr: float = DEFAULT_GPR,
    options: AssemblyOptions | None = None,
    kernel: LayeredKernel | None = None,
    collect_column_times: bool = False,
    pool=None,
    cluster_cache=None,
    tracer=None,
    parallel: "ParallelOptions | None" = None,
) -> LinearSystem:
    """Assemble the Galerkin system.

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
        The columns are then computed one per call, so each timing is a
        genuine measurement.
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
    parallel:
        Optional :class:`repro.parallel.ParallelOptions` of the dense column
        loop, handed to
        :func:`repro.parallel.parallel_assembly.assemble_system_parallel`.
        ``None`` (the default) is one worker, in the calling process.  The
        hierarchical engine shards through ``HierarchicalControl(workers=...)``
        instead, so passing both raises :class:`AssemblyError`.

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
            pool=pool,
            cluster_cache=cluster_cache,
            tracer=tracer,
            parallel=parallel,
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
    pool=None,
    cluster_cache=None,
    tracer=None,
    parallel: "ParallelOptions | None" = None,
):
    """Generator form of :func:`assemble_system`.

    The hierarchical engine's pool dispatches surface as yielded
    :class:`~repro.parallel.pool.PoolJob` requests; the dense column
    engine runs inline without yielding, as
    :func:`repro.parallel.parallel_assembly.assemble_system_parallel` with
    ``parallel`` (one worker when ``None``).
    Returns the assembled :class:`~repro.bem.system.LinearSystem`; drive with
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
        if parallel is not None:
            raise AssemblyError(
                "the hierarchical engine decomposes work into cluster blocks, not "
                "columns; pass parallel=None and use HierarchicalControl(workers=...)"
            )
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
    # Imported lazily: repro.parallel imports repro.bem at package load time.
    from repro.parallel.parallel_assembly import assemble_system_parallel

    return assemble_system_parallel(
        mesh,
        soil,
        gpr=gpr,
        options=options,
        kernel=kernel,
        parallel=parallel,
        collect_column_times=collect_column_times,
        tracer=tracer,
    )


class ColumnFold:
    """The fold of :func:`assemble_from_columns` in push form.

    :meth:`add` takes columns ``0..M-1`` once each, in any order, and checks
    each as it arrives.  A column group is reduced to its slab as soon as its
    last column has arrived, and the slabs are added in ascending group order,
    so the bits do not depend on the arrival order.  An ascending stream
    therefore holds one group at a time; any other order holds the groups
    still incomplete (and the small slabs of complete groups waiting for an
    earlier one).  :meth:`system` returns the folded system.
    """

    def __init__(self, assembler: ColumnAssembler) -> None:
        self.dof_manager = assembler.dof_manager
        self.dof_matrix = self.dof_manager.element_dof_matrix()
        self.group_size = assembler.max_batch_size()
        self.m = self.dof_manager.n_elements
        self.n = self.dof_manager.n_dofs
        self.matrix = np.zeros((self.n, self.n))
        self.seen = np.zeros(self.m, dtype=bool)
        self.pending: dict[int, list[ColumnResult]] = {}
        self.slabs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.next_group = 0

    def add(self, column: ColumnResult) -> None:
        """Fold one column (its group's slab once the group is complete)."""
        index = column.source_index
        if not 0 <= index < self.m:
            raise AssemblyError(f"column {index} is out of range 0..{self.m - 1}")
        if self.seen[index]:
            raise AssemblyError(f"column {index} provided twice")
        self.seen[index] = True
        group = index // self.group_size
        pending = self.pending.setdefault(group, [])
        pending.append(column)
        if len(pending) == min(self.group_size, self.m - group * self.group_size):
            self.slabs[group] = _column_slab(self.n, self.dof_matrix, self.pending.pop(group))
            while self.next_group in self.slabs:
                _add_slab(self.matrix, *self.slabs.pop(self.next_group))
                self.next_group += 1

    def system(self, gpr: float = DEFAULT_GPR) -> LinearSystem:
        """The folded system; every column must have been added."""
        if not self.seen.all():
            missing = np.flatnonzero(~self.seen)[:10].tolist()
            raise AssemblyError(f"missing columns in assembly: {missing} ...")
        return LinearSystem(
            matrix=self.matrix,
            rhs=assemble_rhs(self.dof_manager, gpr),
            dof_manager=self.dof_manager,
            gpr=float(gpr),
        )


def assemble_from_columns(
    columns: Iterable[ColumnResult],
    assembler: ColumnAssembler,
    gpr: float = DEFAULT_GPR,
) -> LinearSystem:
    """Fold a stream of columns into a :class:`LinearSystem`.

    This is the sequential "assembly" stage of the paper's scheme, which takes
    the assembly out of the (possibly parallel) column loop: a
    :class:`ColumnFold` fed from the stream.
    """
    fold = ColumnFold(assembler)
    for column in columns:
        fold.add(column)
        del column  # the loop must not keep a folded group alive into the next one
    return fold.system(gpr)
