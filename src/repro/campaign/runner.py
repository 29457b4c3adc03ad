"""Campaign runner: execute a plan with cross-scenario reuse on a shared pool.

The runner walks the cost-ordered groups of a
:class:`~repro.campaign.planner.CampaignPlan`:

* one mesh discretisation per geometry variant (and per distinct set of layer
  interface depths — rods are split at soil interfaces, so meshes are keyed
  on them);
* one full assemble + solve + safety raster per *structure group* (the
  group's base scenario), executed through the ordinary
  :func:`~repro.bem.assembly.assemble_system_steps` path — on the shared
  persistent :class:`~repro.parallel.pool.WorkerPool` when one is given, so
  repeated sharded assemblies reuse spawn-once workers instead of forking per
  call;
* derived scenarios obtained by exact scalar algebra: the solution is linear
  in the injection GPR and in the common soil conductivity scale
  (``x' = (s'/s_b)(g'/g_b) x_b``; resistance scales by ``s_b/s'``, touch and
  step voltages by the GPR ratio alone).

Independent structure groups can execute **concurrently** on the pool
(``Campaign.group_concurrency`` / the ``group_concurrency`` argument): each
group runs as a coroutine that yields its assembly's
:class:`~repro.parallel.pool.PoolJob` requests, and a single-threaded
scheduler multiplexes up to N groups over the pool's event loop
(:meth:`~repro.parallel.pool.WorkerPool.submit` /
:meth:`~repro.parallel.pool.WorkerPool.service`) — no helper threads, in the
spirit of the non-threaded concurrent interpreters the paper's group builds
on.  While one group's shards occupy the workers, the master advances another
group's solve/safety phases, hiding the master-side serial fraction.
Determinism is preserved by construction: groups *start* and *commit*
(results, checkpoint stores, manifest rows, trace subtrees) strictly in the
plan's canonical order (:meth:`~repro.campaign.planner.CampaignPlan.iter_structures`)
regardless of completion timing, and the pool pins every run's shards to
preferred workers so fault coordinates and health counters are functions of
submit order alone.  Results are therefore bit-identical for any
``group_concurrency``.

Everything reused is reported: the
:class:`~repro.campaign.result.CampaignResult` carries the planner's reuse
counts, the process-wide geometry-cache hit/miss delta of the run, the
cluster-plan cache counters and the pool statistics **as deltas over this
campaign** (a borrowed pool's lifetime counters span every campaign it
served; see ``cache_stats["pool"]``).
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Any, Callable

import numpy as np

from repro.bem.assembly import AssemblyOptions, assemble_system_steps
from repro.bem.geometry_cache import default_geometry_cache
from repro.bem.potential import PotentialEvaluator
from repro.bem.safety import ieee80_tolerable_step, ieee80_tolerable_touch
from repro.campaign.checkpoint import CampaignCheckpoint, structure_fingerprint
from repro.campaign.planner import CampaignPlan, plan_campaign
from repro.campaign.result import CampaignFailure, CampaignResult, ScenarioResult
from repro.campaign.spec import Campaign
from repro.cluster.block_assembly import ClusterPlanCache
from repro.exceptions import ReproError
from repro.geometry.discretize import discretize_grid
from repro.kernels.base import kernel_for_soil
from repro.kernels.truncation import AdaptiveControl
from repro.observe import (
    NULL_TRACER,
    RunManifest,
    Tracer,
    aggregate_trace,
    ensure_tracer,
)
from repro.solvers import solve_system
from repro.timing import PhaseTimer, Timer

__all__ = ["run_campaign", "surface_safety_metrics"]

#: Touch voltages are assessed over the grid footprint plus this reach [m].
_TOUCH_REACH_M = 1.0


def surface_safety_metrics(
    evaluator: PotentialEvaluator, margin: float, raster: int
) -> tuple[float, float]:
    """Worst touch and step voltage over the assessed area [V].

    The surface potential is sampled over the grid's bounding box extended by
    ``margin``; the touch voltage is ``GPR - V`` over the footprint plus a
    one-metre reach, the step voltage the potential-gradient magnitude over
    the whole sampled area.  Shared by the campaign runner and the design
    optimiser (whose sweeps run as campaigns).
    """
    surface = evaluator.surface_potential_over_grid(
        margin=margin, n_x=raster, n_y=raster
    )
    lower, upper = evaluator.mesh.grid.bounding_box()
    in_reach_x = (surface.x >= lower[0] - _TOUCH_REACH_M) & (
        surface.x <= upper[0] + _TOUCH_REACH_M
    )
    in_reach_y = (surface.y >= lower[1] - _TOUCH_REACH_M) & (
        surface.y <= upper[1] + _TOUCH_REACH_M
    )
    touch_area = surface.values[np.ix_(in_reach_y, in_reach_x)]
    touch = float(evaluator.gpr - touch_area.min())
    grad_y, grad_x = np.gradient(surface.values, surface.y, surface.x)
    step = float(np.hypot(grad_x, grad_y).max())
    return touch, step


def _tolerable_limits(campaign: Campaign, soil, soil_scale: float) -> tuple[float, float]:
    """IEEE Std 80 tolerable touch/step limits of one scenario."""
    soil_resistivity = 1.0 / (soil.conductivities[0] * soil_scale)
    touch = ieee80_tolerable_touch(
        soil_resistivity,
        campaign.fault_duration_s,
        campaign.body_weight_kg,
        campaign.surface_resistivity,
        campaign.surface_thickness,
    )
    step = ieee80_tolerable_step(
        soil_resistivity,
        campaign.fault_duration_s,
        campaign.body_weight_kg,
        campaign.surface_resistivity,
        campaign.surface_thickness,
    )
    return float(touch), float(step)


@dataclasses.dataclass
class _GroupOutcome:
    """What one structure-group coroutine produced.

    Outcomes are buffered by the scheduler and *committed* — results folded,
    checkpoint stored, manifest row appended, branch trace grafted — strictly
    in the plan's canonical group order, whatever order the coroutines
    actually finished in.
    """

    kind: str  # "computed" | "restored" | "failed"
    results: "list[ScenarioResult] | None" = None
    failure: CampaignFailure | None = None
    manifest_row: "dict[str, Any] | None" = None
    group_key: str | None = None
    branch: Any = None  # the group's branch Tracer (grafted at commit)


def _group_steps(
    campaign: Campaign,
    geometry_group,
    structure,
    grid,
    meshes: dict,
    pool,
    cluster_cache: ClusterPlanCache,
    checkpoint_store,
    phases: PhaseTimer,
    tracer,
):
    """Coroutine of one structure group: discretize, then restore or compute.

    Yields the group's :class:`~repro.parallel.pool.PoolJob` requests
    (bubbled up from the assembly generators) and returns a
    :class:`_GroupOutcome` via ``StopIteration``.  Everything the group
    records lands on a *branch* tracer with its own span stack, so
    interleaved groups never corrupt each other's span nesting; the branch
    roots are grafted under the main tracer at commit time, in canonical
    order, and get identical content-derived ids either way.

    A :class:`~repro.exceptions.ReproError` — raised here, or thrown in by
    the scheduler when a pool run failed — becomes a ``"failed"`` outcome:
    one failed group must not abort the whole batch study (the pool replaces
    any workers the failing run still owned, so it stays usable).
    """
    geometry = geometry_group.geometry
    base_spec = structure.base.spec
    soil_eff = base_spec.effective_soil()
    branch = (
        Tracer(metrics=tracer.metrics, profile=tracer.profile)
        if tracer.enabled
        else NULL_TRACER
    )
    stage = "discretize"
    group_key = None
    manifest_row = None
    try:
        with phases.phase("discretize"):
            mesh_key = (geometry, soil_eff.thicknesses)
            mesh = meshes.get(mesh_key)
            if mesh is None:
                mesh = meshes[mesh_key] = discretize_grid(grid, soil=soil_eff)
        if checkpoint_store is not None or tracer.enabled:
            group_key = structure_fingerprint(mesh, soil_eff, structure, campaign)
        if tracer.enabled:
            manifest_row = {
                "fingerprint": group_key,
                "geometry": geometry.name,
                "base_scenario": base_spec.name,
                "n_elements": int(mesh.n_elements),
                "n_scenarios": len(structure.plans),
                "soil_layers": int(soil_eff.n_layers),
                "restored": False,
            }
        if checkpoint_store is not None:
            # A CheckpointError out of the store is a checkpoint problem,
            # not a discretisation one.
            stage = "restore"
            if checkpoint_store.has(group_key):
                if manifest_row is not None:
                    manifest_row["restored"] = True
                    branch.record_span(
                        "campaign.group",
                        geometry=geometry.name,
                        base=base_spec.name,
                        fingerprint=group_key,
                        n_scenarios=len(structure.plans),
                        restored=True,
                    )
                return _GroupOutcome(
                    kind="restored",
                    results=list(checkpoint_store.restore(group_key)),
                    manifest_row=manifest_row,
                    group_key=group_key,
                    branch=branch,
                )
        stage = "assemble+solve"
        with branch.span(
            "campaign.group",
            geometry=geometry.name,
            base=base_spec.name,
            fingerprint=group_key or "",
            n_elements=mesh.n_elements,
            n_scenarios=len(structure.plans),
            restored=False,
        ):
            group_results = yield from _run_structure_group(
                campaign, structure, grid, mesh, soil_eff, pool,
                cluster_cache, phases, branch,
            )
        return _GroupOutcome(
            kind="computed",
            results=group_results,
            manifest_row=manifest_row,
            group_key=group_key,
            branch=branch,
        )
    except ReproError as error:
        return _GroupOutcome(
            kind="failed",
            failure=CampaignFailure(
                scenario_names=tuple(p.spec.name for p in structure.plans),
                scenario_indices=tuple(p.index for p in structure.plans),
                geometry_name=geometry.name,
                stage=stage,
                error=repr(error),
            ),
            manifest_row=manifest_row,
            group_key=group_key,
            branch=branch,
        )


def _drive_group_steps(
    makers: "list[Callable[[], Any]]",
    concurrency: int,
    pool,
    commit: "Callable[[_GroupOutcome], None]",
) -> None:
    """Run the group coroutines, up to ``concurrency`` in flight, on ``pool``.

    ``makers[i]()`` creates the coroutine of canonical group ``i``.  Groups
    are *started* in canonical order (so shared grid/mesh/cluster caches warm
    in a deterministic sequence and the pool sees a deterministic submit
    order) and their outcomes are *committed* in canonical order — an
    early-finishing later group buffers until every earlier group committed.
    Between coroutine steps the scheduler drives the pool's event loop with
    :meth:`~repro.parallel.pool.WorkerPool.service`; a run that failed is
    thrown back into its coroutine as the error
    :meth:`~repro.parallel.pool.WorkerPool.result` would raise, where the
    group's ``except ReproError`` turns it into a failed outcome.
    """
    total = len(makers)
    active: "dict[int, list[Any]]" = {}  # position -> [coroutine, pool run]
    outcomes: "dict[int, _GroupOutcome]" = {}
    next_start = 0
    next_commit = 0

    def advance(position, steps, *, value=None, error=None, first=False):
        """Step one coroutine until it blocks on a pool run or returns."""
        while True:
            try:
                if error is not None:
                    request = steps.throw(error)
                elif first:
                    request = next(steps)
                else:
                    request = steps.send(value)
            except StopIteration as stop:
                active.pop(position, None)
                outcomes[position] = stop.value
                return
            error = None
            first = False
            try:
                run = pool.submit(request.task, request.partition, label=request.label)
            except ReproError as submit_error:
                # The serial backend executes inline, so task errors can
                # surface at submit time; route them into the coroutine.
                error = submit_error
                continue
            if run.done:  # inline completion (serial backend / degraded pool)
                try:
                    value = pool.result(run)
                except ReproError as run_error:
                    error = run_error
                continue
            active[position] = [steps, run]
            return

    while next_commit < total:
        while len(active) < concurrency and next_start < total:
            position = next_start
            next_start += 1
            advance(position, makers[position](), first=True)
        while next_commit in outcomes:
            commit(outcomes.pop(next_commit))
            next_commit += 1
        if next_commit >= total:
            return
        if len(active) < concurrency and next_start < total:
            continue  # a start slot freed up: keep the window full first
        resumed = False
        for position in sorted(active):  # canonical order among the ready
            steps, run = active[position]
            if not run.done:
                continue
            try:
                value = pool.result(run)
            except ReproError as run_error:
                advance(position, steps, error=run_error)
            else:
                advance(position, steps, value=value)
            resumed = True
            break
        if not resumed:
            pool.service()


def run_campaign(
    campaign: Campaign,
    pool=None,
    workers: int = 0,
    pool_backend: str = "process",
    plan: CampaignPlan | None = None,
    checkpoint=None,
    retry=None,
    fault_plan=None,
    tracer=None,
    group_concurrency: int | None = None,
) -> CampaignResult:
    """Execute a campaign and aggregate the per-scenario results.

    Parameters
    ----------
    campaign:
        The declarative campaign.
    pool:
        Optional shared persistent :class:`~repro.parallel.pool.WorkerPool`
        (requires ``campaign.hierarchical``).  The pool is *borrowed*: it is
        not closed by the runner, so several campaigns can share it.
    workers:
        Convenience: with no ``pool`` and ``workers >= 1``, the runner
        creates its own pool of that size for the duration of the run and
        closes it deterministically afterwards.
    pool_backend:
        Backend of a runner-created pool (``"process"`` or ``"serial"``).
    plan:
        Pre-computed plan (defaults to :func:`plan_campaign` on the spot).
    checkpoint:
        Optional path of a campaign checkpoint file.  Completed structure
        groups are persisted there (atomically, keyed by content
        fingerprints — see :mod:`repro.campaign.checkpoint`); a rerun with
        the same path restores matching groups and recomputes only the
        incomplete ones.
    retry:
        Optional :class:`~repro.resilience.RetryPolicy` for a runner-owned
        pool (requires ``workers``); a borrowed pool carries its own policy.
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan` armed in a runner-owned
        pool (chaos testing; requires ``workers``).
    tracer:
        Optional :class:`~repro.observe.Tracer`.  When enabled, the run
        records a ``campaign`` span tree (plan → one ``campaign.group`` per
        structure group → nested assembly/solve/scenario spans), keeps the
        campaign's counters/gauges in the tracer's shared registry, attaches
        a :class:`~repro.observe.RunManifest` dict to the result metadata
        under ``"manifest"`` and — when ``checkpoint`` is given — writes it
        next to the checkpoint file.  A runner-owned pool inherits the
        tracer, so its dispatch/retry events land in the same trace.
    group_concurrency:
        Number of structure groups kept in flight concurrently on the pool;
        overrides ``campaign.group_concurrency`` when given.  Values above 1
        require a pool (``pool`` or ``workers``).  Purely a throughput knob:
        results, checkpoint contents and the canonical trace projection are
        bit-identical for any value.

    Returns
    -------
    CampaignResult
        Per-scenario results in campaign order, plus timings, reuse counts,
        cache statistics and — when structure groups failed — their failure
        records (the run keeps going; see :attr:`CampaignResult.failures`).
    """
    if (pool is not None or workers) and campaign.hierarchical is None:
        raise ReproError(
            "a persistent worker pool executes the sharded hierarchical block "
            "protocol; give the campaign a HierarchicalControl to use one"
        )
    if pool is not None and workers:
        raise ReproError(
            "pass either a shared pool or a worker count for a runner-owned "
            f"pool, not both (got pool with {pool.n_workers} workers and "
            f"workers={workers})"
        )
    if (retry is not None or fault_plan is not None) and not workers:
        raise ReproError(
            "retry/fault_plan configure the runner-owned pool and require "
            "workers >= 1; a borrowed pool carries its own policy"
        )
    if group_concurrency is None:
        group_concurrency = campaign.group_concurrency
    group_concurrency = int(group_concurrency)
    if group_concurrency < 1:
        raise ReproError(
            f"group_concurrency must be >= 1, got {group_concurrency}"
        )
    if group_concurrency > 1 and pool is None and not workers:
        raise ReproError(
            "group_concurrency > 1 multiplexes structure groups over a "
            "worker pool; pass pool= or workers= (sequential groups need "
            "neither)"
        )
    tracer = ensure_tracer(tracer)
    phases = PhaseTimer()
    for key in ("plan", "discretize", "assemble", "solve", "evaluate", "derive"):
        phases.add(key, 0.0)  # pre-seed so the timings dict always has every phase
    engine = "hierarchical" if campaign.hierarchical is not None else "dense"

    total_timer = Timer().start()
    campaign_span = tracer.span(
        "campaign", name=campaign.name, engine=engine, solver=campaign.solver
    )
    with campaign_span:
        plan_timer = Timer()
        with plan_timer:
            plan = plan or plan_campaign(campaign)
        phases.add("plan", plan_timer.elapsed)
        if tracer.enabled:
            tracer.record_span(
                "campaign.plan",
                duration_seconds=plan_timer.elapsed,
                n_geometry_groups=len(plan.geometry_groups),
                n_structure_groups=sum(
                    len(group.structures) for group in plan.geometry_groups
                ),
            )

        own_pool = None
        if pool is None and workers:
            from repro.parallel.pool import WorkerPool

            pool = own_pool = WorkerPool(
                int(workers),
                backend=pool_backend,
                retry=retry,
                fault_plan=fault_plan,
                tracer=tracer,
            )
        restored_groups = 0
        computed_groups = 0
        failures: list[CampaignFailure] = []
        manifest_groups: list[dict[str, Any]] = []
        cluster_cache = ClusterPlanCache()
        results: dict[int, ScenarioResult] = {}
        # Everything below — including the checkpoint construction, which
        # raises CheckpointError on a corrupt file — runs under the finally
        # that closes a runner-owned pool: no code path may leak its worker
        # processes.
        try:
            tracer.annotate_volatile(
                pool_workers=pool.n_workers if pool is not None else 0,
                pool_backend=pool.backend if pool is not None else None,
                group_concurrency=group_concurrency,
            )
            checkpoint_store = (
                CampaignCheckpoint(checkpoint) if checkpoint is not None else None
            )
            geometry_cache_before = default_geometry_cache().stats()
            # Snapshot the pool's lifetime counters so the result reports
            # this campaign's delta — a borrowed pool's cumulative stats
            # would otherwise double-count earlier campaigns.
            pool_stats_before = dict(pool.stats) if pool is not None else {}
            pool_health_before = (
                dict(pool.health.counters()) if pool is not None else {}
            )

            ordered = list(plan.iter_structures())
            grids: dict[Any, Any] = {}  # geometry variant -> built grid
            meshes: dict[tuple, Any] = {}  # (geometry, interface depths) -> mesh

            def _make_group(geometry_group, structure):
                def make():
                    geometry = geometry_group.geometry
                    grid = grids.get(geometry)
                    if grid is None:
                        grid = grids[geometry] = geometry.build_grid()
                    return _group_steps(
                        campaign, geometry_group, structure, grid, meshes,
                        pool, cluster_cache, checkpoint_store, phases, tracer,
                    )

                return make

            def _commit(outcome: _GroupOutcome) -> None:
                nonlocal restored_groups, computed_groups
                if outcome.manifest_row is not None:
                    manifest_groups.append(outcome.manifest_row)
                if outcome.branch is not None:
                    tracer.graft(outcome.branch.roots)
                if outcome.kind == "failed":
                    failures.append(outcome.failure)
                    return
                if outcome.kind == "restored":
                    restored_groups += 1
                else:
                    computed_groups += 1
                for result in outcome.results:
                    results[result.index] = result
                if (
                    outcome.kind == "computed"
                    and checkpoint_store is not None
                    and outcome.group_key is not None
                ):
                    checkpoint_store.store(outcome.group_key, outcome.results)

            makers = [_make_group(gg, s) for gg, s in ordered]
            concurrency = min(group_concurrency, len(makers)) if makers else 1
            _drive_group_steps(makers, concurrency, pool, _commit)
        finally:
            if own_pool is not None:
                own_pool.close()

        geometry_cache_after = default_geometry_cache().stats()
        cache_stats: dict[str, Any] = {
            "geometry_cache": {
                "hits": geometry_cache_after["hits"] - geometry_cache_before["hits"],
                "misses": geometry_cache_after["misses"]
                - geometry_cache_before["misses"],
                "entries": geometry_cache_after["entries"],
            },
            "cluster_plan_cache": cluster_cache.stats(),
        }
        metadata: dict[str, Any] = {
            "engine": engine,
            "solver": campaign.solver,
            "pool_workers": pool.n_workers if pool is not None else 0,
            "pool_backend": pool.backend if pool is not None else None,
        }
        if checkpoint_store is not None:
            metadata["checkpoint"] = {
                "path": str(checkpoint_store.path),
                "restored_groups": restored_groups,
                "computed_groups": computed_groups,
            }
        if pool is not None:
            cache_stats["pool"] = {
                key: int(value) - int(pool_stats_before.get(key, 0))
                for key, value in pool.stats.items()
            }
        tracer.annotate(
            n_scenarios=len(results),
            n_failures=len(failures),
        )
    phases.add("total", total_timer.stop())
    timings = phases.as_dict()

    if tracer.enabled:
        metrics = tracer.metrics
        metrics.absorb(cache_stats["geometry_cache"], prefix="cache.geometry.")
        metrics.absorb(cache_stats["cluster_plan_cache"], prefix="cache.cluster_plan.")
        if pool is not None:
            metrics.absorb(
                {
                    key: int(value) - int(pool_health_before.get(key, 0))
                    for key, value in pool.health.counters().items()
                },
                prefix="pool.health.",
            )
        metrics.set_gauge("campaign.groups.computed", computed_groups)
        metrics.set_gauge("campaign.groups.restored", restored_groups)
        metrics.set_gauge("campaign.failures", len(failures))
        manifest = RunManifest(
            run={
                "campaign": campaign.name,
                "engine": engine,
                "solver": campaign.solver,
                "solver_tolerance": float(campaign.solver_tolerance),
                "element_type": campaign.element_type.value,
                "n_gauss": int(campaign.n_gauss),
                "pool_workers": metadata["pool_workers"],
                "pool_backend": metadata["pool_backend"],
                "n_scenarios": len(results),
                "n_failures": len(failures),
                "restored_groups": restored_groups,
                "computed_groups": computed_groups,
            },
            groups=manifest_groups,
            metrics=metrics.snapshot(),
            timings=dict(timings),
            trace=tracer.stats(),
            aggregate=aggregate_trace(tracer.roots),
        )
        metadata["manifest"] = manifest.as_dict()
        if checkpoint_store is not None:
            manifest.write(RunManifest.path_for(checkpoint_store.path))

    return CampaignResult(
        name=campaign.name,
        scenarios=[results[index] for index in sorted(results)],
        plan_summary=plan.summary(),
        timings=timings,
        cache_stats=cache_stats,
        metadata=metadata,
        failures=failures,
    )


def _run_structure_group(
    campaign: Campaign,
    structure,
    grid,
    mesh,
    soil_eff,
    pool,
    cluster_cache: ClusterPlanCache,
    phases: PhaseTimer,
    tracer,
):
    """Assemble + solve the group base, derive the rest by scalar algebra.

    A coroutine: the assembly's pool dispatches surface as yielded
    :class:`~repro.parallel.pool.PoolJob` requests (none for the dense or
    in-process engines), and the group's scenario results (campaign order)
    come back via ``StopIteration`` so the caller can fold them into the
    campaign — and persist them as one checkpoint unit.
    """
    base_plan = structure.base
    base_spec = base_plan.spec
    kernel = kernel_for_soil(soil_eff, campaign.series_control)
    hierarchical = campaign.hierarchical
    if hierarchical is not None:
        hierarchical = dataclasses.replace(hierarchical, tolerance=base_spec.tolerance)
    if isinstance(campaign.adaptive, str):  # "tolerance": follow the scenario
        adaptive = AdaptiveControl(tolerance=base_spec.tolerance)
    else:
        adaptive = campaign.adaptive
    options = AssemblyOptions(
        element_type=campaign.element_type,
        n_gauss=campaign.n_gauss,
        series_control=campaign.series_control,
        adaptive=adaptive,
        hierarchical=hierarchical,
    )

    assemble_timer = Timer()
    with assemble_timer:
        system = yield from assemble_system_steps(
            mesh,
            soil_eff,
            gpr=base_spec.gpr,
            options=options,
            kernel=kernel,
            pool=pool,
            cluster_cache=cluster_cache,
            tracer=tracer,
        )
    assemble_seconds = assemble_timer.elapsed
    phases.add("assemble", assemble_seconds)

    solve_timer = Timer()
    with solve_timer, tracer.span(
        "solve", method=campaign.solver, n_unknowns=int(system.n_dofs)
    ):
        on_iteration = None
        if tracer.enabled:
            metrics = tracer.metrics

            def on_iteration(iteration: int, residual: float) -> None:
                metrics.observe("campaign.solve.residual", residual)

        solved = solve_system(
            system.matrix,
            system.rhs,
            method=campaign.solver,
            tolerance=campaign.solver_tolerance,
            on_iteration=on_iteration,
        )
        # Bit-identical across worker counts (the sharded backend's
        # deterministic-reduction contract), hence deterministic attrs.
        tracer.annotate(
            iterations=int(solved.iterations),
            converged=bool(solved.converged),
            residual=float(solved.residual),
        )
    solve_seconds = solve_timer.elapsed
    phases.add("solve", solve_seconds)

    weights = system.dof_manager.assemble_basis_integrals()
    base_current = float(weights @ solved.solution)
    base_metadata = {
        "backend": system.metadata.get("backend"),
        "solver_converged": bool(solved.converged),
        # The materialised grid's facts, so downstream consumers (e.g. the
        # design optimiser) need not rebuild the geometry.
        "grid": {
            "total_length_m": float(grid.total_length),
            "n_rods": len(grid.rods),
            "summary": grid.summary(),
        },
    }

    base_touch = base_step = None
    evaluate_seconds = 0.0
    if campaign.assess_safety:
        evaluate_timer = Timer()
        with evaluate_timer, tracer.span(
            "campaign.evaluate", raster=int(campaign.safety_raster)
        ):
            evaluator = PotentialEvaluator(
                mesh,
                soil_eff,
                kernel,
                system.dof_manager,
                solved.solution,
                gpr=base_spec.gpr,
                adaptive=options.adaptive if options.adaptive is not None else "default",
            )
            base_touch, base_step = surface_safety_metrics(
                evaluator, campaign.safety_margin, campaign.safety_raster
            )
        evaluate_seconds = evaluate_timer.elapsed
        phases.add("evaluate", evaluate_seconds)

    group_results: list[ScenarioResult] = []
    for scenario_plan in structure.plans:
        spec = scenario_plan.spec
        derive_timer = Timer()
        with derive_timer:
            # Exact scaling algebra: the matrix is ``1/scale`` of the base
            # matrix and the rhs ``gpr`` times the basis integrals, so the
            # solution (and every linear functional of it) follows by scalar
            # multiplication.
            ratio = scenario_plan.scale_ratio * scenario_plan.gpr_ratio
            dof_values = (
                solved.solution if scenario_plan.is_base else solved.solution * ratio
            )
            current = base_current * ratio
            touch = step = tolerable_touch = tolerable_step = None
            if campaign.assess_safety:
                touch = base_touch * scenario_plan.gpr_ratio
                step = base_step * scenario_plan.gpr_ratio
                tolerable_touch, tolerable_step = _tolerable_limits(
                    campaign, spec.soil, spec.soil_scale
                )
        derive_seconds = derive_timer.elapsed
        if not scenario_plan.is_base:
            phases.add("derive", derive_seconds)
        if tracer.enabled:
            tracer.record_span(
                "campaign.scenario",
                duration_seconds=derive_seconds,
                name=spec.name,
                index=int(scenario_plan.index),
                kind=str(scenario_plan.kind),
                derived=not scenario_plan.is_base,
            )
        group_results.append(ScenarioResult(
            name=spec.name,
            index=scenario_plan.index,
            kind=scenario_plan.kind,
            base_name=base_spec.name,
            geometry_name=spec.geometry.name,
            n_elements=int(mesh.n_elements),
            n_dofs=int(system.n_dofs),
            gpr=float(spec.gpr),
            soil_scale=float(spec.soil_scale),
            dof_values=dof_values,
            total_current=current,
            equivalent_resistance=float(spec.gpr) / current,
            solver_iterations=int(solved.iterations),
            assemble_seconds=assemble_seconds if scenario_plan.is_base else 0.0,
            solve_seconds=solve_seconds if scenario_plan.is_base else 0.0,
            evaluate_seconds=evaluate_seconds if scenario_plan.is_base else derive_seconds,
            max_touch_voltage=touch,
            max_step_voltage=step,
            tolerable_touch_voltage=tolerable_touch,
            tolerable_step_voltage=tolerable_step,
            metadata=copy.deepcopy(base_metadata),  # results stay independent
        ))
    return group_results
