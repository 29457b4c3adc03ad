"""High-level facade running a complete grounding analysis.

:class:`GroundingAnalysis` wires the whole pipeline together in the order the
paper's CAD program uses (Table 6.1): data input, data pre-processing
(discretisation and dof numbering), matrix generation, linear-system solving
and results storage.  Every phase is timed individually so the pipeline-cost
table of the paper can be reproduced.

It is the one five-phase pipeline of the package: the CLI's ``analyze``, the
Table 6.1 benchmark, the case studies and the campaign's standalone baseline
all run it.  Matrix generation — by far the dominant phase — is one
:func:`repro.bem.assembly.assemble_system` call whatever the settings: the
dense column loop on one worker or on the workers of a
:class:`repro.parallel.ParallelOptions`, or the hierarchical engine.  A traced
dense run records its ``assemble.columns`` span under
``phase.matrix_generation`` for every worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.bem.assembly import AssemblyOptions, assemble_system
from repro.bem.elements import DofManager, ElementType
from repro.bem.results import AnalysisResults
from repro.constants import DEFAULT_GAUSS_POINTS, DEFAULT_GPR
from repro.exceptions import ReproError
from repro.geometry.discretize import Mesh, discretize_grid
from repro.geometry.grid import GroundingGrid
from repro.geometry.validation import validate_grid
from repro.kernels.base import kernel_for_soil
from repro.kernels.series import SeriesControl
from repro.kernels.truncation import AdaptiveControl
from repro.observe import ensure_tracer
from repro.soil.base import SoilModel
from repro.solvers import solve_system
from repro.timing import PhaseTimer, Timer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.operator import HierarchicalControl
    from repro.parallel.options import ParallelOptions
    from repro.parallel.pool import WorkerPool

__all__ = ["GroundingAnalysis"]


@dataclass
class GroundingAnalysis:
    """Complete BEM analysis of a grounding grid in a layered soil.

    Parameters
    ----------
    grid:
        The grounding grid geometry.
    soil:
        Uniform or two-layer soil model.
    gpr:
        Ground Potential Rise applied to the electrode [V] (10 kV in the
        paper's case studies; results scale linearly with it).
    element_type:
        Constant or linear leakage elements.
    n_gauss:
        Gauss points of the outer Galerkin integral.
    series_control:
        Truncation of the layered-soil image series.
    solver:
        ``"pcg"`` (default, the paper's diagonally preconditioned CG),
        ``"cg"``, ``"cholesky"`` or ``"lu"``.
    solver_tolerance:
        Relative residual tolerance of the iterative solvers (ignored by the
        direct ones).  Comparisons between runs that should agree to a given
        level — e.g. campaign-vs-standalone acceptance checks — solve a
        couple of orders tighter than that level, since the solutions of two
        near-identical systems can differ by one PCG iteration's correction
        (~ the tolerance) when their final residuals straddle the threshold.
    max_element_length:
        Optional subdivision of long conductors for refinement studies [m].
    parallel:
        Optional :class:`repro.parallel.ParallelOptions` of the dense column
        loop, passed through the one matrix-generation call
        (:func:`repro.bem.assembly.assemble_system`); ``None`` runs it on one
        worker in the calling process.  Every worker count records the same
        ``assemble.columns`` span in a traced run.
    validate:
        Whether to run the geometric validation rules before analysing.
    collect_column_times:
        Record the per-column assembly times in the result metadata (needed by
        the scheduler simulator and by the parallel benchmarks).
    adaptive:
        :class:`repro.kernels.truncation.AdaptiveControl` driving the
        distance-adaptive image-series evaluation of the matrix generation.
        Enabled by default (matrices match the exact engine to
        ``1e-8 * ||A||_max``); pass ``None`` to force the exact full-series
        engine.  Post-processing through :meth:`AnalysisResults.evaluator`
        always uses the adaptive kernel.
    hierarchical:
        Optional :class:`repro.cluster.operator.HierarchicalControl` (or
        ``True`` for the defaults) switching the matrix generation to the
        matrix-free hierarchical far-field engine — the scalable path for
        grids of >= 10^4 elements.  Requires an iterative solver (``"pcg"``
        or ``"cg"``).  ``HierarchicalControl(workers=...)`` shards the block
        assembly (and the matvec) across worker processes through
        :mod:`repro.parallel.block_backend`; the column-level ``parallel``
        options do not apply and must stay ``None``.
    pool:
        Optional persistent :class:`repro.parallel.pool.WorkerPool` shared
        across analyses (requires ``hierarchical``): repeated runs then reuse
        the pool's spawn-once workers instead of forking a fresh worker set
        per call — the batch path :mod:`repro.campaign` is built on.
    tracer:
        Optional :class:`repro.observe.Tracer` recording the pipeline's span
        tree: one ``analysis`` root with a ``phase.*`` child per Table-6.1
        phase, the assembly spans nested under ``phase.matrix_generation``
        and the solver's convergence telemetry under ``solve``.  ``None``
        (the default) traces nothing at single-attribute-check cost.
    """

    grid: GroundingGrid
    soil: SoilModel
    gpr: float = DEFAULT_GPR
    element_type: ElementType = ElementType.LINEAR
    n_gauss: int = DEFAULT_GAUSS_POINTS
    series_control: SeriesControl = field(default_factory=SeriesControl)
    solver: str = "pcg"
    solver_tolerance: float = 1.0e-10
    max_element_length: float = float("inf")
    parallel: "ParallelOptions | None" = None
    validate: bool = True
    collect_column_times: bool = False
    adaptive: "AdaptiveControl | None" = field(default_factory=AdaptiveControl)
    hierarchical: "HierarchicalControl | bool | None" = None
    pool: "WorkerPool | None" = None
    tracer: Any = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.gpr <= 0.0:
            raise ReproError(f"the GPR must be positive, got {self.gpr!r}")
        if not isinstance(self.element_type, ElementType):
            self.element_type = ElementType(self.element_type)
        if self.pool is not None and (self.hierarchical is None or self.hierarchical is False):
            raise ReproError(
                "a persistent WorkerPool executes the sharded block-task protocol; "
                "pass hierarchical=HierarchicalControl(...) (or True) to use it"
            )
        if self.hierarchical is not None and self.hierarchical is not False:
            if self.parallel is not None:
                raise ReproError(
                    "the hierarchical engine decomposes work into cluster blocks, "
                    "not columns; pass parallel=None and use "
                    "HierarchicalControl(workers=...) for the sharded block backend"
                )
            if self.solver not in ("pcg", "cg"):
                raise ReproError(
                    "the hierarchical engine is matrix-free; choose the 'pcg' or "
                    f"'cg' solver instead of {self.solver!r}"
                )
            if self.collect_column_times:
                raise ReproError(
                    "collect_column_times does not apply to the hierarchical "
                    "engine (work is decomposed into cluster blocks, not columns)"
                )

    # ------------------------------------------------------------------ pipeline phases

    def load(self) -> GroundingGrid:
        """"Data input" phase: validate the grid and return it.

        The quadratic conductor-overlap check is skipped here (it is an offline
        design-review check, see :func:`repro.geometry.validation.validate_grid`)
        so that the data-input phase stays negligible compared with the matrix
        generation, as in the paper's Table 6.1.
        """
        if self.validate:
            validate_grid(self.grid, soil=self.soil, check_overlaps=False, raise_on_error=True)
        return self.grid

    def preprocess(self) -> Mesh:
        """"Data preprocessing" phase: discretise the grid into elements."""
        return discretize_grid(
            self.grid, soil=self.soil, max_element_length=self.max_element_length
        )

    # ------------------------------------------------------------------ full run

    def run(self) -> AnalysisResults:
        """Execute the whole pipeline and return the analysis results."""
        tracer = ensure_tracer(self.tracer)
        phases = PhaseTimer()
        metadata: dict[str, Any] = {}

        with tracer.span(
            "analysis",
            solver=self.solver,
            element_type=self.element_type.value,
            n_gauss=self.n_gauss,
            soil_layers=self.soil.n_layers,
        ):
            with phases.phase("data_input"), tracer.span("phase.data_input"):
                grid = self.load()

            with phases.phase("data_preprocessing"), tracer.span(
                "phase.data_preprocessing"
            ):
                mesh = self.preprocess()
                kernel = kernel_for_soil(self.soil, self.series_control)
                options = AssemblyOptions(
                    element_type=self.element_type,
                    n_gauss=self.n_gauss,
                    series_control=self.series_control,
                    adaptive=self.adaptive,
                    hierarchical=self.hierarchical,
                )
            tracer.annotate(n_elements=mesh.n_elements)

            with phases.phase("matrix_generation"), tracer.span(
                "phase.matrix_generation"
            ):
                system = assemble_system(
                    mesh,
                    self.soil,
                    gpr=self.gpr,
                    options=options,
                    kernel=kernel,
                    collect_column_times=self.collect_column_times,
                    pool=self.pool,
                    tracer=tracer,
                    parallel=self.parallel,
                )
            metadata.update(system.metadata)

            with phases.phase("linear_system_solving"), tracer.span(
                "solve", method=self.solver, n_unknowns=system.dof_manager.n_dofs
            ):
                on_iteration = None
                if tracer.enabled:
                    metrics = tracer.metrics

                    def on_iteration(iteration: int, residual: float) -> None:
                        metrics.observe("solve.residual", residual)

                solve_result = solve_system(
                    system.matrix,
                    system.rhs,
                    method=self.solver,
                    tolerance=self.solver_tolerance,
                    on_iteration=on_iteration,
                )
                # The PCG residual history is bit-identical across worker
                # counts (the sharded backend's deterministic-reduction
                # contract), so convergence facts are deterministic attrs.
                tracer.annotate(
                    iterations=solve_result.iterations,
                    converged=solve_result.converged,
                    residual=float(solve_result.residual),
                )

            phases.add("results_storage", 0.0)
            timings = phases.as_dict()
            storage = Timer()
            with storage, tracer.span("phase.results_storage"):
                results = AnalysisResults(
                    mesh=mesh,
                    soil=self.soil,
                    kernel=kernel,
                    dof_manager=system.dof_manager,
                    gpr=self.gpr,
                    dof_values=solve_result.solution,
                    solver=solve_result,
                    timings=timings,
                    metadata=metadata,
                )
            phases.add("results_storage", storage.elapsed)
            timings["results_storage"] = phases["results_storage"]
        del grid
        return results

    # ------------------------------------------------------------------ helpers

    def dof_count(self) -> int:
        """Number of unknowns the analysis will solve for (without running it)."""
        mesh = self.preprocess()
        return DofManager(mesh, self.element_type).n_dofs
