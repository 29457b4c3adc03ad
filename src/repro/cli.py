"""Command-line interface of the grounding-analysis library.

Five sub-commands cover the common workflows::

    python -m repro analyze  --grid grid.json --rho1 400 --rho2 100 --h 1.5 --gpr 10000
    python -m repro barbera  --case two_layer
    python -m repro balaidos --model C
    python -m repro scaling  --case barbera/two_layer --workers 1 2 4 8
    python -m repro scaling  --case barbera/two_layer --workers 1 2 --hierarchical
    python -m repro campaign --scenarios 12 --workers 2 --group-concurrency 2
    python -m repro campaign --scenarios 6 --workers 2 --trace run.jsonl --profile
    python -m repro report   run.jsonl --baseline other.jsonl --markdown

``analyze`` reads a grid saved with :func:`repro.geometry.io.save_grid`,
builds a uniform or two-layer soil from the resistivity options, runs the BEM
analysis (:class:`repro.bem.GroundingAnalysis`, optionally in parallel),
stores the grid and results in ``--workdir`` if given
(:func:`repro.cad.project.save_results`) and prints the design report.  The
``barbera`` / ``balaidos`` commands run the paper's case studies, and
``scaling`` reproduces the parallel study on the local machine —
``--hierarchical`` switches it to the hierarchical block builder
(assemble+solve per block-worker count vs the in-process ``workers=0`` run).  ``campaign`` runs the
demo batch grounding study of :mod:`repro.campaign` — many soil/injection/rod
variants of one grid analysed with cross-scenario reuse, optionally on a
persistent worker pool — and prints the per-scenario safety table plus the
reuse statistics.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro._version import __version__

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and documentation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel BEM analysis of substation earthing systems in layered soils.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser("analyze", help="analyse a grid file")
    analyze.add_argument("--grid", required=True, help="path to a grid JSON file")
    analyze.add_argument("--gpr", type=float, default=10_000.0, help="ground potential rise [V]")
    analyze.add_argument("--rho1", type=float, required=True, help="upper-layer resistivity [ohm*m]")
    analyze.add_argument(
        "--rho2", type=float, default=None, help="lower-layer resistivity [ohm*m] (omit for uniform soil)"
    )
    analyze.add_argument("--h", type=float, default=None, help="upper-layer thickness [m]")
    analyze.add_argument("--solver", default="pcg", help="cholesky | lu | cg | pcg")
    analyze.add_argument(
        "--element-type", default="linear", choices=("linear", "constant"), help="trial functions"
    )
    analyze.add_argument("--workers", type=int, default=0, help="parallel workers (0 = sequential)")
    analyze.add_argument("--schedule", default="Dynamic,1", help="loop schedule, e.g. Static,4")
    analyze.add_argument("--workdir", default=None, help="directory for result files")

    barbera = subparsers.add_parser("barbera", help="run the paper's Example 1 (Barberá)")
    barbera.add_argument("--case", default="two_layer", choices=("uniform", "two_layer"))
    barbera.add_argument("--coarse", action="store_true", help="use the reduced test-size grid")
    barbera.add_argument("--workers", type=int, default=0)

    balaidos = subparsers.add_parser("balaidos", help="run the paper's Example 2 (Balaidos)")
    balaidos.add_argument("--model", default="A", choices=("A", "B", "C"))
    balaidos.add_argument("--workers", type=int, default=0)

    scaling = subparsers.add_parser("scaling", help="reproduce the parallel study (Section 6)")
    scaling.add_argument("--case", default="barbera/two_layer")
    scaling.add_argument("--coarse", action="store_true")
    scaling.add_argument(
        "--workers", type=int, nargs="+", default=[1, 2, 4, 8], help="processor counts to measure"
    )
    scaling.add_argument("--schedule", default="Dynamic,1")
    scaling.add_argument(
        "--simulate-up-to", type=int, default=64, help="largest simulated processor count"
    )
    scaling.add_argument(
        "--hierarchical",
        action="store_true",
        help="measure the hierarchical block builder instead of the column loop",
    )
    scaling.add_argument(
        "--trace",
        default=None,
        metavar="OUT.JSONL",
        help="record the study under a repro.observe span tree and write it "
        "as JSONL (a RunManifest lands next to it)",
    )
    scaling.add_argument(
        "--profile",
        action="store_true",
        help="opt-in per-span CPU + tracemalloc profiling (volatile stamps "
        "in the trace; requires --trace)",
    )

    campaign = subparsers.add_parser(
        "campaign", help="run the demo batch grounding study (scenario campaign engine)"
    )
    campaign.add_argument(
        "--scenarios", type=int, default=12, help="number of scenarios (1..20)"
    )
    campaign.add_argument(
        "--workers",
        type=int,
        default=0,
        help="persistent pool workers for the sharded assemblies (0 = in-process)",
    )
    campaign.add_argument(
        "--nx", type=int, default=8, help="meshes per side of the shared grid"
    )
    campaign.add_argument(
        "--group-concurrency",
        type=int,
        default=1,
        help="structure groups kept in flight concurrently on the worker pool "
        "(results are bit-identical for any value; >1 requires --workers)",
    )
    campaign.add_argument(
        "--dense",
        action="store_true",
        help="use the dense assembly engine instead of the hierarchical operator",
    )
    campaign.add_argument(
        "--no-safety",
        action="store_true",
        help="skip the touch/step safety rasters (timing studies)",
    )
    campaign.add_argument(
        "--checkpoint",
        default=None,
        help="checkpoint file: completed structure groups persist there, and a "
        "rerun with the same path resumes recomputing only incomplete groups",
    )
    campaign.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        help="per-chunk deadline [s] for the pool workers (hung workers are "
        "SIGKILLed and their shards retried); requires --workers",
    )
    campaign.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="per-chunk retry budget before the pool degrades to serial "
        "execution (default 3); requires --workers",
    )
    campaign.add_argument(
        "--trace",
        default=None,
        metavar="OUT.JSONL",
        help="record the run under a repro.observe span tree and write it as "
        "JSONL (a RunManifest lands next to it); render with "
        "'python -m repro trace OUT.JSONL'",
    )

    campaign.add_argument(
        "--profile",
        action="store_true",
        help="opt-in per-span CPU + tracemalloc profiling (volatile stamps "
        "in the trace; requires --trace)",
    )

    report = subparsers.add_parser(
        "report",
        help="render an aggregated performance report from a recorded trace",
    )
    report.add_argument("path", help="a trace JSONL file written by --trace")
    report.add_argument(
        "--baseline",
        default=None,
        metavar="OTHER.JSONL",
        help="second trace to diff against (structural + wall-time "
        "attribution sections)",
    )
    report.add_argument(
        "--manifest",
        default=None,
        help="manifest JSON path (default: <trace>.manifest.json when present)",
    )
    report.add_argument(
        "--markdown", action="store_true", help="render Markdown instead of plain text"
    )
    report.add_argument(
        "--top", type=int, default=10, help="rows in the top-self-time table"
    )
    report.add_argument(
        "--noise-floor",
        type=float,
        default=None,
        help="seconds below which a diff subtree is noise (default 0.005)",
    )
    report.add_argument(
        "--deterministic-only",
        action="store_true",
        help="print only the byte-comparable deterministic section",
    )
    report.add_argument(
        "--output", default=None, help="write the report to a file instead of stdout"
    )

    trace = subparsers.add_parser(
        "trace", help="render a recorded JSONL trace as a span tree"
    )
    trace.add_argument("path", help="a trace JSONL file written by --trace")
    trace.add_argument(
        "--no-durations",
        action="store_true",
        help="hide wall-clock durations (the deterministic projection)",
    )
    trace.add_argument(
        "--no-events", action="store_true", help="hide scheduling events"
    )
    trace.add_argument(
        "--canonical",
        action="store_true",
        help="print the canonical span projection (the byte-comparable JSONL "
        "lines) instead of the tree",
    )
    return parser


def _make_soil(rho1: float, rho2: float | None, h: float | None):
    from repro.exceptions import ReproError
    from repro.soil.two_layer import TwoLayerSoil
    from repro.soil.uniform import UniformSoil

    if rho2 is None:
        return UniformSoil.from_resistivity(rho1)
    if h is None:
        raise ReproError("--h (upper-layer thickness) is required for a two-layer soil")
    return TwoLayerSoil.from_resistivities(rho1, rho2, h)


def _make_parallel(workers: int, schedule: str):
    if workers and workers > 1:
        from repro.parallel.options import ParallelOptions
        from repro.parallel.schedule import Schedule

        return ParallelOptions(n_workers=workers, schedule=Schedule.parse(schedule))
    return None


def _cmd_analyze(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.bem.formulation import GroundingAnalysis
    from repro.cad.project import save_results
    from repro.cad.report import design_report
    from repro.geometry.io import load_grid
    from repro.timing import Timer

    soil = _make_soil(args.rho1, args.rho2, args.h)
    results = GroundingAnalysis(
        load_grid(args.grid),
        soil,
        gpr=args.gpr,
        element_type=args.element_type,
        solver=args.solver,
        parallel=_make_parallel(args.workers, args.schedule),
    ).run()
    if args.workdir is not None:
        # The file writes are the paper's "Results Storage" work; they happen
        # after the analysis returns, so the CLI adds their time to that row.
        with Timer() as storage:
            save_results(results, args.workdir, name=Path(args.grid).stem)
        results.timings["results_storage"] += storage.elapsed
    print(design_report(results))
    return 0


def _cmd_barbera(args: argparse.Namespace) -> int:
    from repro.cad.report import design_report
    from repro.experiments.barbera import BARBERA_PAPER_RESULTS, run_barbera

    results = run_barbera(
        args.case, coarse=args.coarse, parallel=_make_parallel(args.workers, "Dynamic,1")
    )
    print(design_report(results))
    paper = BARBERA_PAPER_RESULTS[args.case]
    print(
        f"\npaper reference: Req = {paper['equivalent_resistance_ohm']} ohm, "
        f"I = {paper['total_current_ka']} kA"
    )
    return 0


def _cmd_balaidos(args: argparse.Namespace) -> int:
    from repro.cad.report import design_report
    from repro.experiments.balaidos import BALAIDOS_PAPER_RESULTS, run_balaidos

    results = run_balaidos(args.model, parallel=_make_parallel(args.workers, "Dynamic,1"))
    print(design_report(results))
    paper = BALAIDOS_PAPER_RESULTS[args.model]
    print(
        f"\npaper reference (Table 5.1): Req = {paper['equivalent_resistance_ohm']} ohm, "
        f"I = {paper['total_current_ka']} kA"
    )
    return 0


def _finish_trace(tracer, path: str, manifest_dict=None, run_info=None) -> None:
    """Write a finished tracer as JSONL plus its RunManifest sibling."""
    import json
    from pathlib import Path

    from repro.observe import RunManifest, aggregate_trace, write_trace_jsonl

    if tracer.profile is not None:
        tracer.profile.close()
    roots = tracer.finalize()
    write_trace_jsonl(path, roots)
    manifest_path = RunManifest.path_for(path)
    if manifest_dict is None:
        manifest_dict = RunManifest(
            run=dict(run_info or {}),
            groups=[],
            metrics=tracer.metrics.snapshot(),
            timings={},
            trace=tracer.stats(),
            aggregate=aggregate_trace(roots),
        ).as_dict()
    Path(manifest_path).write_text(
        json.dumps(manifest_dict, sort_keys=True, indent=2, default=repr) + "\n",
        encoding="utf-8",
    )
    print(f"trace: {path}")
    print(f"manifest: {manifest_path}")


def _make_tracer(args: argparse.Namespace):
    """An optionally profiling Tracer for a ``--trace [--profile]`` command."""
    from repro.observe import ResourceProfiler, Tracer

    if getattr(args, "profile", False) and not args.trace:
        raise SystemExit("--profile records into the trace; add --trace OUT.JSONL")
    profile = ResourceProfiler() if getattr(args, "profile", False) else None
    return Tracer(profile=profile)


def _cmd_scaling(args: argparse.Namespace) -> int:
    if args.trace or args.profile:
        tracer = _make_tracer(args)
        with tracer.span(
            "scaling",
            case=args.case,
            mode="sharded" if args.hierarchical else "columns",
            workers=",".join(str(w) for w in args.workers),
        ):
            code = _scaling_body(args)
        _finish_trace(
            tracer, args.trace, run_info={"command": "scaling", "case": args.case}
        )
        return code
    return _scaling_body(args)


def _scaling_body(args: argparse.Namespace) -> int:
    from repro.cad.report import format_table
    from repro.experiments.scaling import (
        figure_6_1_curves,
        measure_column_costs,
        measure_real_speedups,
    )

    if args.hierarchical:
        from repro.experiments.scaling import (
            measure_sharded_speedup,
            resolve_case,
            sharded_speedup_table,
        )
        from repro.geometry.discretize import discretize_grid

        grid, soil, gpr = resolve_case(args.case, coarse=args.coarse)
        mesh = discretize_grid(grid, soil=soil)
        rows = measure_sharded_speedup(
            mesh, soil, worker_counts=[w for w in args.workers if w >= 1], gpr=gpr
        )
        print("hierarchical block builder (in-process workers=0 reference):")
        print(format_table(*sharded_speedup_table(rows)))
        return 0

    column_costs, total = measure_column_costs(args.case, coarse=args.coarse)
    print(f"sequential matrix generation: {total:.2f} s over {column_costs.size} columns")

    rows = measure_real_speedups(
        args.case, processor_counts=args.workers, schedule=args.schedule, coarse=args.coarse
    )
    print("\nreal process-pool measurements:")
    print(
        format_table(
            ["processors", "wall seconds", "speed-up", "oversubscribed"],
            [
                [
                    r["n_processors"],
                    r["cpu_seconds"],
                    r["speedup"],
                    "yes" if r["oversubscribed"] else "no",
                ]
                for r in rows
            ],
        )
    )

    counts = sorted({1, 2, 4, 8, 16, 32, args.simulate_up_to})
    curves = figure_6_1_curves(column_costs, processor_counts=counts, schedule=args.schedule)
    print("\nsimulated speed-up (outer vs inner loop):")
    print(
        format_table(
            ["processors", "outer", "inner"],
            [
                [o["n_processors"], o["speedup"], i["speedup"]]
                for o, i in zip(curves["outer"], curves["inner"])
            ],
        )
    )
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.cad.report import format_table
    from repro.campaign import demo_campaign, run_campaign

    campaign = demo_campaign(
        n_scenarios=args.scenarios,
        nx=args.nx,
        ny=args.nx,
        hierarchical=not args.dense,
        assess_safety=not args.no_safety,
    )
    if args.workers and args.dense:
        raise SystemExit("--workers requires the hierarchical engine (drop --dense)")
    if args.group_concurrency < 1:
        raise SystemExit("--group-concurrency must be >= 1")
    if args.group_concurrency > 1 and not args.workers:
        raise SystemExit("--group-concurrency > 1 requires --workers")
    retry = None
    if args.chunk_timeout is not None or args.max_retries is not None:
        if not args.workers:
            raise SystemExit("--chunk-timeout/--max-retries require --workers")
        from repro.resilience import RetryPolicy

        overrides = {}
        if args.chunk_timeout is not None:
            overrides["chunk_timeout"] = args.chunk_timeout
        if args.max_retries is not None:
            overrides["max_retries"] = args.max_retries
        retry = RetryPolicy(**overrides)
    tracer = None
    if args.trace or args.profile:
        tracer = _make_tracer(args)
    result = run_campaign(
        campaign,
        workers=args.workers,
        checkpoint=args.checkpoint,
        retry=retry,
        tracer=tracer,
        group_concurrency=args.group_concurrency,
    )

    columns = ["scenario", "kind", "n_elements", "gpr_v", "Req_ohm", "seconds"]
    if campaign.assess_safety:
        columns += ["max_touch_v", "max_step_v", "compliant"]
    print(
        format_table(columns, [[row[key] for key in columns] for row in result.table()])
    )
    summary = result.plan_summary
    print(
        f"\n{result.n_scenarios} scenarios, {summary['n_assemblies']} assemblies "
        f"(reuse: {summary['reuse_counts']}), total {result.total_seconds:.2f} s"
    )
    print(f"cache stats: {result.cache_stats}")
    if tracer is not None:
        _finish_trace(
            tracer, args.trace, manifest_dict=result.metadata.get("manifest")
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.observe import RunManifest, read_trace_jsonl
    from repro.observe.analyze import DEFAULT_NOISE_FLOOR
    from repro.observe.report import deterministic_report_text, render_report

    roots = read_trace_jsonl(args.path)
    manifest = None
    manifest_path = (
        Path(args.manifest) if args.manifest else RunManifest.path_for(args.path)
    )
    if manifest_path.is_file():
        manifest = RunManifest.load(manifest_path)
    baseline = read_trace_jsonl(args.baseline) if args.baseline else None
    noise_floor = (
        DEFAULT_NOISE_FLOOR if args.noise_floor is None else args.noise_floor
    )
    if args.deterministic_only:
        text = deterministic_report_text(
            roots, baseline=baseline, markdown=args.markdown
        )
    else:
        text = render_report(
            roots,
            manifest=manifest,
            baseline=baseline,
            top=args.top,
            markdown=args.markdown,
            noise_floor=noise_floor,
            title=f"Run report: {args.path}",
        )
    if args.output:
        Path(args.output).write_text(text.rstrip() + "\n", encoding="utf-8")
        print(f"report: {args.output}")
    else:
        print(text.rstrip())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.observe import canonical_trace_text, format_trace_tree, read_trace_jsonl

    roots = read_trace_jsonl(args.path)
    if args.canonical:
        sys.stdout.write(canonical_trace_text(roots))
    else:
        print(
            format_trace_tree(
                roots,
                durations=not args.no_durations,
                events=not args.no_events,
            )
        )
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "barbera": _cmd_barbera,
    "balaidos": _cmd_balaidos,
    "scaling": _cmd_scaling,
    "campaign": _cmd_campaign,
    "report": _cmd_report,
    "trace": _cmd_trace,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by ``python -m repro`` (returns a process exit code)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
