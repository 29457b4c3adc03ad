"""Per-layer accounting measured from outside the program.

The benchmark does not rely on tracing inside ``repro``.  During a traced
operation it replaces public functions of each layer with wrappers that open
a span on a benchmark-owned :class:`repro.observe.Tracer`, patched where the
caller looks them up (``repro.campaign.runner.discretize_grid``,
``WorkerPool.submit`` on the class, ...).  Counts ride on the spans as
numeric attributes, and :func:`repro.observe.aggregate_trace` rolls the tree
up into per-name calls, attribute totals and *self time* (a span's wall time
minus its nested spans).  This tracer is never canonicalised, so worker
seconds may ride as attributes too.  Worker-side block work cannot be
wrapped, because the pool workers are forked before the patches go in.  It
is read instead from the public payloads that travel back:
``TaskRunResult.task_seconds`` and the ``BlockOutcome`` kinds returned by
``WorkerPool.result``, plus the sharded operator's ``stats``.

Busy times are reported as shares of operation wall time (``*.busy_frac``).
A layer's share is 0 on a workload that never calls it.  The shares of all
layers add up to ``trace.explained_frac``, and whatever remains is the
operation's own unexplained self time.
"""

from __future__ import annotations

import functools
import importlib
import os
from time import perf_counter
from typing import Any, Callable

from repro.observe import Span, Tracer, aggregate_trace
from repro.parallel.block_backend import BlockOutcome

# --------------------------------------------------------------------------- layer map

#: Which per-layer metrics belong to which layer, and which end-to-end metric
#: on which workload each layer is expected to move.  README.md renders it.
LAYER_MAP: list[dict[str, Any]] = [
    {
        # End-to-end op times whose run-to-run spread is wider than a 10 %
        # bound (README "Host drift"): reported here, where no bound applies.
        "layer": "end to end, not gated",
        "metrics": ["op_p50_s", "ops_per_s"],
        "moves": [],
    },
    {
        "layer": "repro.geometry",
        "metrics": [
            "geometry.grid.busy_frac",
            "geometry.discretize.calls",
            "geometry.discretize.busy_frac",
        ],
        "moves": [("ops_per_s", "campaign-sweep")],
    },
    {
        "layer": "repro.kernels",
        "metrics": ["kernels.work_units"],
        "moves": [("op_p50_s", "barbera-design"), ("op_p50_s", "paper-parallel")],
    },
    {
        "layer": "repro.bem (influence, assembly)",
        "metrics": [
            "bem.assemble.busy_frac",
            "bem.column_batch.calls",
            "bem.column_batch.columns",
            "bem.column_batch.busy_frac",
        ],
        "moves": [("op_p50_s", "barbera-design"), ("op_p50_s", "paper-parallel")],
    },
    {
        "layer": "repro.bem (potential)",
        "metrics": [
            "bem.potential.points",
            "bem.potential.busy_frac",
            "bem.potential.points_per_s",
        ],
        "moves": [("op_p50_s", "barbera-design"), ("ops_per_s", "campaign-sweep")],
    },
    {
        "layer": "repro.solvers",
        "metrics": [
            "solvers.solve.calls",
            "solvers.solve.busy_frac",
            "solvers.pcg_iters",
            "solvers.matvec.calls",
            "solvers.matvec.busy_frac",
        ],
        "moves": [("op_p50_s", "hier-grid")],
    },
    {
        "layer": "repro.cluster",
        "metrics": [
            "cluster.plan.busy_frac",
            "cluster.assemble.busy_frac",
            "cluster.far.worker_frac",
            "cluster.near.worker_frac",
            "cluster.far.blocks",
            "cluster.far.fallback_blocks",
            "cluster.far.fallback_ratio",
            "cluster.far.rank_total",
            "cluster.aca.sampled_entries",
        ],
        "moves": [("op_p50_s", "hier-grid"), ("ops_per_s", "campaign-sweep")],
    },
    {
        "layer": "repro.parallel (executor)",
        "metrics": [
            "parallel.executor.busy_frac",
            "parallel.executor.chunks",
            "parallel.executor.speedup",
            "parallel.executor.overhead_frac",
        ],
        "moves": [("op_p50_s", "paper-parallel")],
    },
    {
        "layer": "repro.parallel (pool, block_backend)",
        "metrics": [
            "parallel.pool.runs",
            "parallel.pool.chunks_dispatched",
            "parallel.pool.tasks_executed",
            "parallel.pool.dispatch.busy_frac",
            "parallel.pool.service.busy_frac",
            "parallel.pool.inflight.busy_frac",
            "parallel.pool.inflight.union_frac",
            "parallel.pool.utilization",
            "parallel.pool.retries",
            "parallel.pool.respawns",
            "parallel.pool.serial_fallback_chunks",
            "parallel.shard.imbalance",
        ],
        "moves": [("op_p50_s", "hier-grid"), ("ops_per_s", "campaign-sweep")],
    },
    {
        "layer": "repro.campaign",
        "metrics": [
            "campaign.plan.busy_frac",
            "campaign.assemblies",
            "campaign.reuse_ratio",
            "campaign.cache.geometry_hit_ratio",
            "campaign.cache.cluster_plan_hit_ratio",
        ],
        "moves": [("ops_per_s", "campaign-sweep")],
    },
    {
        "layer": "harness",
        "metrics": ["trace.overhead_frac", "trace.explained_frac", "host.probe_s"],
        "moves": [],
    },
]

#: Span names whose self time is reported as ``<name>.busy_frac``.
BUSY_SPANS = (
    "geometry.grid",
    "geometry.discretize",
    "bem.assemble",
    "bem.column_batch",
    "bem.potential",
    "solvers.solve",
    "solvers.matvec",
    "cluster.plan",
    "cluster.assemble",
    "parallel.executor",
    "parallel.pool.dispatch",
    "parallel.pool.service",
    "campaign.plan",
)

#: Pool counters read from ``WorkerPool.stats`` deltas around each traced op.
POOL_COUNTERS = ("runs", "chunks_dispatched", "tasks_executed", "retries", "respawns",
                 "serial_fallback_chunks")

#: Campaign facts read from each ``CampaignResult`` (means per op).
CAMPAIGN_COUNTS = ("campaign.assemblies", "campaign.reuse_ratio",
                   "campaign.cache.geometry_hit_ratio", "campaign.cache.cluster_plan_hit_ratio")

#: Event carrying one ``WorkerPool.submit`` -> ``result`` interval.  An event,
#: not a span: the intervals of concurrent runs overlap and nest in nothing.
INFLIGHT = "parallel.pool.inflight"


# --------------------------------------------------------------------------- measures
# Each measure runs after its span closed: ``measure(patched, span, args, result)``.


def _count_columns(patched, span: Span, args, result) -> None:
    span.attributes["columns"] = float(len(args[1]))


def _count_points(patched, span: Span, args, result) -> None:
    shape = getattr(args[1], "shape", None)
    span.attributes["points"] = float(shape[0] if shape and len(shape) == 2 else 1)
    span.attributes["points_s"] = span.duration_seconds


def _count_iterations(patched, span: Span, args, result) -> None:
    span.attributes["iterations"] = float(result.iterations)


def _block_costs(patched, span: Span, args, result) -> None:
    span.attributes["work_units"] = float(result.costs.sum())


def _operator_stats(patched, span: Span, args, operator) -> None:
    stats = operator.stats
    loads = [float(x) for x in stats["shard_cost_units"] if x > 0.0]
    span.attributes.update(
        far_blocks=float(stats["n_far_blocks"]),
        fallback_blocks=float(stats["n_fallback_blocks"]),
        rank_total=float(stats["total_rank"]),
        imbalance=max(loads) / (sum(loads) / len(loads)) if loads else 1.0,
        assemblies=1.0,
    )


def _executor_run(patched, span: Span, args, result) -> None:
    span.attributes["chunks"] = float(result.n_chunks)


def _pool_submit(patched, span: Span, args, run) -> None:
    order = [int(i) for shard in args[2] for i in shard]
    patched.submitted[id(run)] = (perf_counter() - span.duration_seconds, order)


def _pool_result(patched, span: Span, args, outcome) -> None:
    start, order = patched.submitted.pop(id(args[1]), (None, []))
    if start is not None:
        patched.tracer.event(INFLIGHT, start=start, end=perf_counter())
    far = near = sampled = 0.0
    for position, task in enumerate(order):
        block = outcome.results.get(task)
        if not isinstance(block, BlockOutcome):
            continue
        seconds = float(outcome.task_seconds[position])
        if block.kind == "near":
            near += seconds
        else:
            far += seconds
        if block.kind == "far":
            sampled += block.rank * (block.u.shape[0] + block.v.shape[0])
    span.attributes.update(far_seconds=far, near_seconds=near, sampled_entries=sampled)


# --------------------------------------------------------------------------- patches

#: (module, attribute path, span name, kind, measure).  ``kind`` is ``"call"``
#: for a function, ``"steps"`` for a generator pipeline and ``"matvec"`` for
#: the solver's operator adapter, whose returned mat-vec is timed per call.
PATCHES: list[tuple[str, str, str, str, Callable | None]] = [
    ("repro.campaign.spec", "GeometryVariant.build_grid", "geometry.grid", "call", None),
    ("repro.geometry.grid", "GroundingGrid.summary", "geometry.grid", "call", None),
    ("repro.geometry.grid", "GroundingGrid.total_length", "geometry.grid", "call", None),
    ("repro.bem.formulation", "discretize_grid", "geometry.discretize", "call", None),
    ("repro.campaign.runner", "discretize_grid", "geometry.discretize", "call", None),
    ("repro.bem.formulation", "assemble_system", "bem.assemble", "call", None),
    ("repro.campaign.runner", "assemble_system_steps", "bem.assemble", "steps", None),
    ("repro.parallel.parallel_assembly", "assemble_from_columns", "bem.assemble", "call", None),
    ("repro.bem.elements", "DofManager.assemble_basis_integrals", "bem.assemble", "call", None),
    ("repro.bem.influence", "ColumnAssembler.column_batch", "bem.column_batch", "call",
     _count_columns),
    ("repro.bem.potential", "PotentialEvaluator.__init__", "bem.potential", "call", None),
    ("repro.bem.potential", "PotentialEvaluator.surface_potential_over_grid", "bem.potential",
     "call", None),
    ("repro.bem.potential", "PotentialEvaluator.potential_at", "bem.potential", "call",
     _count_points),
    ("repro.campaign.runner", "surface_safety_metrics", "bem.potential", "call", None),
    ("repro.bem.formulation", "solve_system", "solvers.solve", "call", _count_iterations),
    ("repro.campaign.runner", "solve_system", "solvers.solve", "call", _count_iterations),
    ("repro.solvers.cg", "as_matvec_operator", "solvers.matvec", "matvec", None),
    ("repro.parallel.block_backend", "build_block_profile", "cluster.plan", "call",
     _block_costs),
    ("repro.parallel.block_backend", "sharded_operator_steps", "cluster.assemble", "steps",
     _operator_stats),
    ("repro.parallel.executor", "ScheduledExecutor.__enter__", "parallel.executor", "call",
     None),
    ("repro.parallel.executor", "ScheduledExecutor.run", "parallel.executor", "call",
     _executor_run),
    ("repro.parallel.executor", "ScheduledExecutor.close", "parallel.executor", "call", None),
    ("repro.parallel.pool", "WorkerPool.submit", "parallel.pool.dispatch", "call", _pool_submit),
    ("repro.parallel.pool", "WorkerPool.service", "parallel.pool.service", "call", None),
    ("repro.parallel.pool", "WorkerPool.result", "parallel.pool.dispatch", "call", _pool_result),
    ("repro.campaign.runner", "plan_campaign", "campaign.plan", "call", None),
]


class Patched:
    """Context manager installing every wrapper of :data:`PATCHES`, then restoring.

    The wrappers record on ``tracer`` only in this process: a worker forked
    while the patches are in place calls straight through.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.pid = os.getpid()
        #: ``id(run)`` -> (submit time, task order) of runs still in flight.
        self.submitted: dict[int, tuple[float, list[int]]] = {}
        self._saved: list[tuple[Any, str, Any]] = []

    def call(self, name: str, fn: Callable, args, kwargs, measure):
        if os.getpid() != self.pid:
            return fn(*args, **kwargs)
        with self.tracer.span(name) as span:
            result = fn(*args, **kwargs)
        if measure is not None:
            measure(self, span, args, result)
        return result

    def steps(self, name: str, generator, measure):
        """Drive ``generator``, timing each resumption as one ``name`` span.

        The spans close at every ``yield``, so the pool work a scheduler does
        while the pipeline is suspended is never charged to it.
        """
        value = error = None
        while True:
            with self.tracer.span(name) as span:
                try:
                    request = generator.throw(error) if error is not None else generator.send(value)
                except StopIteration as stop:
                    done, result = True, stop.value
                else:
                    done = False
            if done:
                if measure is not None:
                    measure(self, span, (), result)
                return result
            error = None
            try:
                value = yield request
            except BaseException as exc:  # forwarded into the pipeline, like ``yield from``
                value, error = None, exc

    def _wrapper(self, name: str, kind: str, fn: Callable, measure):
        if kind == "steps":

            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                return self.steps(name, fn(*args, **kwargs), measure)

        elif kind == "matvec":

            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                matvec, n, flops = fn(*args, **kwargs)
                return (lambda vector: self.call(name, matvec, (vector,), {}, None)), n, flops

        else:

            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                return self.call(name, fn, args, kwargs, measure)

        return wrapped

    def __enter__(self) -> Tracer:
        for module_name, path, name, kind, measure in PATCHES:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if isinstance(original, property):
                wrapped = property(self._wrapper(name, kind, original.fget, measure))
            else:
                wrapped = self._wrapper(name, kind, original, measure)
            setattr(owner, attr, wrapped)
        return self.tracer

    def __exit__(self, *exc_info: object) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# --------------------------------------------------------------------------- accounting


def op_layers(root: Span) -> dict[str, float]:
    """Totals of one traced op whose root span is ``root``.

    Returns raw sums (seconds, counts) from :func:`aggregate_trace`;
    :func:`layer_metrics` turns the sums of all traced ops into the reported
    metrics.
    """
    rollup = aggregate_trace(root)
    durations = rollup["volatile"]["durations"]
    totals: dict[str, float] = {
        "wall": root.duration_seconds,
        "explained_s": root.duration_seconds - durations[root.name]["self_seconds"],
    }
    for name, entry in rollup["deterministic"]["spans"].items():
        if name == root.name:
            continue
        totals[f"{name}.self_s"] = durations[name]["self_seconds"]
        totals[f"{name}.calls"] = float(entry["count"])
        for key, attribute in entry["attributes"].items():
            totals[f"{name}.{key}"] = attribute["total"]
    inflight = [(e.volatile["start"], e.volatile["end"]) for e in root.walk()
                if e.kind == "event" and e.name == INFLIGHT]
    totals["inflight_s"] = sum(end - start for start, end in inflight)
    totals["inflight_union_s"] = _union(inflight)
    return totals


def _union(intervals: list[tuple[float, float]]) -> float:
    """Wall-clock length covered by at least one of ``intervals``."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(ops: list[dict[str, float]], n_workers: int) -> dict[str, float]:
    """Per-layer metrics from the :func:`op_layers` totals of all traced ops.

    Busy shares divide summed self seconds by summed op wall time; counts are
    means per op.  The entries that need untraced samples or host probes
    (``trace.overhead_frac``, ``host.probe_s``, ``parallel.executor.speedup``
    and ``overhead_frac``) are filled in by the caller.
    """
    n = len(ops)

    def total(key: str) -> float:
        return sum(op.get(key, 0.0) for op in ops)

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0.0 else 0.0

    wall = total("wall")
    metrics = {f"{name}.busy_frac": ratio(total(f"{name}.self_s"), wall) for name in BUSY_SPANS}
    per_op = {
        "geometry.discretize.calls": total("geometry.discretize.calls"),
        "kernels.work_units": total("kernels.work_units") + total("cluster.plan.work_units"),
        "bem.column_batch.calls": total("bem.column_batch.calls"),
        "bem.column_batch.columns": total("bem.column_batch.columns"),
        "bem.potential.points": total("bem.potential.points"),
        "solvers.solve.calls": total("solvers.solve.calls"),
        "solvers.pcg_iters": total("solvers.solve.iterations"),
        "solvers.matvec.calls": total("solvers.matvec.calls"),
        "cluster.far.blocks": total("cluster.assemble.far_blocks"),
        "cluster.far.fallback_blocks": total("cluster.assemble.fallback_blocks"),
        "cluster.far.rank_total": total("cluster.assemble.rank_total"),
        "cluster.aca.sampled_entries": total("parallel.pool.dispatch.sampled_entries"),
        "parallel.executor.chunks": total("parallel.executor.chunks"),
        **{f"parallel.pool.{key}": total(f"pool.{key}") for key in POOL_COUNTERS},
        **{key: total(key) for key in CAMPAIGN_COUNTS},
    }
    metrics.update({key: ratio(value, n) for key, value in per_op.items()})
    far = total("parallel.pool.dispatch.far_seconds")
    near = total("parallel.pool.dispatch.near_seconds")
    union = total("inflight_union_s")
    metrics.update(
        {
            "bem.potential.points_per_s": ratio(
                total("bem.potential.points"), total("bem.potential.points_s")
            ),
            "cluster.far.worker_frac": ratio(far, wall),
            "cluster.near.worker_frac": ratio(near, wall),
            "cluster.far.fallback_ratio": ratio(
                total("cluster.assemble.fallback_blocks"), total("cluster.assemble.far_blocks")
            ),
            "parallel.pool.inflight.busy_frac": ratio(total("inflight_s"), wall),
            "parallel.pool.inflight.union_frac": ratio(union, wall),
            "parallel.pool.utilization": ratio(far + near, n_workers * union),
            "parallel.shard.imbalance": ratio(
                total("cluster.assemble.imbalance"), total("cluster.assemble.assemblies")
            ),
            "trace.explained_frac": ratio(total("explained_s"), wall),
        }
    )
    return metrics
