"""Campaign batch throughput vs independent cold ``GroundingAnalysis`` runs.

The demo campaign of :func:`repro.campaign.demo_campaign` — one shared grid in
flat and corner-rodded variants under two soil families with soil-scale and
injection variants — is executed two ways on the same host:

* **campaign engine** — :func:`repro.campaign.run_campaign` on a persistent
  :class:`~repro.parallel.pool.WorkerPool` (worker counts 1 and 2): one
  sharded hierarchical assembly per structure group, derived scenarios by
  exact scalar algebra, shared cluster-plan cache;
* **cold baseline** — every scenario as an independent
  :class:`repro.GroundingAnalysis` call with the same hierarchical control
  (one worker forked per call — the cost the pool amortises) plus the same
  safety raster.

Cold/warm fairness: no library path keeps pair geometry between assemblies,
so neither side can inherit the other's work; the campaign's geometry-cache
counts, recorded in the snapshot, stay zero.

Acceptance (asserted in the full run, recorded in ``BENCH_campaign.json``):

* >= 12 scenarios run >= 2x faster end-to-end through the campaign engine
  than as independent cold runs;
* every scenario's solution matches its standalone run to ``1e-10``
  (relative to the solution scale);
* solutions are bit-identical across pool worker counts {1, 2};
* solutions are bit-identical across ``group_concurrency`` {1, 2} on the same
  2-worker pool, and on a multi-core host (``os.cpu_count() >= 2``) the
  concurrent-group run is >= 1.3x faster than sequential groups.  Single-core
  hosts record the ratio without gating it — multiplexing groups cannot beat
  sequential groups without a second core.

``BENCH_QUICK=1`` runs the CI mini-campaign instead: >= 6 scenarios on a
2-worker pool, asserting the standalone 1e-10 agreement and both bitwise
identities (the throughput gates need the full-size run).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.cad.report import format_table
from repro.campaign import demo_campaign, run_campaign, standalone_scenario_run
from repro.parallel.pool import WorkerPool

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

#: (scenario count, meshes per side, pool worker counts, assert 2x throughput).
FULL_CONFIG = (12, 22, (1, 2), True)
QUICK_CONFIG = (6, 10, (1, 2), False)


def test_campaign_batch(record_table, record_snapshot):
    """Batch throughput, standalone agreement and worker-count determinism."""
    n_scenarios, nx, worker_counts, assert_throughput = (
        QUICK_CONFIG if QUICK else FULL_CONFIG
    )
    # Both sides solve at 1e-12 so the 1e-10 agreement gate is insensitive to
    # a one-PCG-iteration flip between near-identical systems (whose size is
    # ~ the solver tolerance; see Campaign.solver_tolerance).
    campaign = demo_campaign(
        n_scenarios=n_scenarios, nx=nx, ny=nx, solver_tolerance=1.0e-12
    )
    available = os.cpu_count() or 1

    record: dict = {
        "quick": QUICK,
        "n_scenarios": n_scenarios,
        "nx": nx,
        "worker_counts": list(worker_counts),
        "cpu_count": available,
    }

    # ---- campaign runs, one per pool worker count ----
    campaign_runs: dict[int, dict] = {}
    solutions: dict[int, dict[str, np.ndarray]] = {}
    for workers in worker_counts:
        # Pool spawn is inside the timed window: the acceptance is an
        # *end-to-end* comparison, and the baseline's per-call forks are
        # fully timed too.
        start = time.perf_counter()
        with WorkerPool(workers) as pool:
            result = run_campaign(campaign, pool=pool)
            wall = time.perf_counter() - start
        solutions[workers] = result.solutions()
        pool_stats = result.cache_stats.get("pool", {})
        campaign_runs[workers] = {
            "pool_workers": workers,
            "oversubscribed": workers > available,
            "wall_seconds": wall,
            "timings": {k: float(v) for k, v in result.timings.items()},
            "plan": result.plan_summary,
            "cache_stats": result.cache_stats,
            # Resilience counters (PoolHealth): all zero on a healthy host —
            # the row exists so a CI run that *did* retry or respawn is
            # visible in the snapshot diff, not silently absorbed.
            "resilience": {
                key: int(pool_stats.get(key, 0))
                for key in (
                    "retries",
                    "respawns",
                    "hung_kills",
                    "chunk_timeouts",
                    "corrupt_rejections",
                    "serial_fallback_chunks",
                    "disabled_slots",
                )
            },
        }
    record["campaign_runs"] = [campaign_runs[w] for w in worker_counts]
    record["n_elements"] = {s.name: s.n_elements for s in result.scenarios}

    # ---- the deterministic-reduction contract across pool worker counts ----
    first = worker_counts[0]
    cross_worker_max = 0.0
    for workers in worker_counts[1:]:
        for name, reference in solutions[first].items():
            cross_worker_max = max(
                cross_worker_max,
                float(np.abs(solutions[workers][name] - reference).max()),
            )
    record["cross_worker_abs_max_diff"] = cross_worker_max

    # ---- concurrent structure groups on the same pool ----
    gc_workers = worker_counts[-1]
    group_runs: dict[int, dict] = {}
    gc_solutions: dict[int, dict[str, np.ndarray]] = {}
    for concurrency in (1, 2):
        start = time.perf_counter()
        with WorkerPool(gc_workers) as pool:
            gc_result = run_campaign(
                campaign, pool=pool, group_concurrency=concurrency
            )
            gc_wall = time.perf_counter() - start
        gc_solutions[concurrency] = gc_result.solutions()
        group_runs[concurrency] = {
            "group_concurrency": concurrency,
            "pool_workers": gc_workers,
            "wall_seconds": gc_wall,
            "timings": {k: float(v) for k, v in gc_result.timings.items()},
            "pool": gc_result.cache_stats["pool"],
        }
    record["group_concurrency_runs"] = [group_runs[c] for c in (1, 2)]

    cross_concurrency_max = 0.0
    for name, reference in gc_solutions[1].items():
        cross_concurrency_max = max(
            cross_concurrency_max,
            float(np.abs(gc_solutions[2][name] - reference).max()),
        )
    record["cross_concurrency_abs_max_diff"] = cross_concurrency_max
    group_wall = group_runs[2]["wall_seconds"]
    group_speedup = (
        group_runs[1]["wall_seconds"] / group_wall if group_wall > 0 else float("inf")
    )
    record["group_concurrency_speedup"] = group_speedup
    multicore = available >= 2

    # ---- cold baseline: independent per-scenario analyses ----
    baseline_rows = []
    baseline_solutions: dict[str, np.ndarray] = {}
    start = time.perf_counter()
    for spec in campaign.scenarios:
        dof_values, seconds = standalone_scenario_run(campaign, spec, workers=1)
        baseline_solutions[spec.name] = dof_values
        baseline_rows.append({"scenario": spec.name, "seconds": seconds})
    baseline_wall = time.perf_counter() - start
    record["baseline"] = {"wall_seconds": baseline_wall, "rows": baseline_rows}

    # ---- agreement with the standalone runs ----
    worst_rel = 0.0
    for name, reference in baseline_solutions.items():
        scale = float(np.abs(reference).max())
        deviation = float(np.abs(solutions[first][name] - reference).max())
        worst_rel = max(worst_rel, deviation / scale)
    record["worst_standalone_rel_error"] = worst_rel

    campaign_wall = campaign_runs[first]["wall_seconds"]
    speedup = baseline_wall / campaign_wall if campaign_wall > 0 else float("inf")
    record["batch_speedup"] = speedup
    record["acceptance"] = {
        "throughput_asserted": assert_throughput,
        "n_scenarios_ge_12": n_scenarios >= 12,
        "speedup_ge_2": speedup >= 2.0,
        "solutions_match_standalone_1e-10": worst_rel <= 1.0e-10,
        "bitwise_identical_across_pool_workers": cross_worker_max == 0.0,
        "bitwise_identical_across_group_concurrency": cross_concurrency_max == 0.0,
        "group_speedup_asserted": assert_throughput and multicore,
        "group_speedup_ge_1.3": group_speedup >= 1.3,
    }

    # Record first: a tripped assertion must not discard the measured run.
    record_snapshot("campaign", record, update_root=not QUICK)
    table_rows = [
        [
            f"campaign (pool w={w})",
            campaign_runs[w]["wall_seconds"],
            campaign_runs[w]["plan"]["n_assemblies"],
            "yes" if campaign_runs[w]["oversubscribed"] else "no",
        ]
        for w in worker_counts
    ] + [
        [
            f"campaign (pool w={gc_workers}, groups x{c})",
            group_runs[c]["wall_seconds"],
            result.plan_summary["n_assemblies"],
            "yes" if gc_workers > available else "no",
        ]
        for c in (1, 2)
    ] + [["cold standalone", baseline_wall, n_scenarios, "-"]]
    record_table(
        "campaign",
        format_table(
            ["Run", "wall (s)", "assemblies", "oversubscribed"],
            table_rows,
            float_format="{:.3g}",
        ),
    )

    # Accuracy and determinism contracts hold at every size.
    assert worst_rel <= 1.0e-10, record["worst_standalone_rel_error"]
    assert cross_worker_max == 0.0, record["cross_worker_abs_max_diff"]
    assert cross_concurrency_max == 0.0, record["cross_concurrency_abs_max_diff"]
    if assert_throughput:
        assert n_scenarios >= 12
        assert speedup >= 2.0, (campaign_wall, baseline_wall)
        # Concurrent groups can only beat sequential groups when a second
        # core exists to overlap them; single-core hosts record the ratio.
        if multicore:
            assert group_speedup >= 1.3, (
                group_runs[1]["wall_seconds"],
                group_runs[2]["wall_seconds"],
            )


if __name__ == "__main__":
    import sys

    import pytest

    if "--quick" in sys.argv:
        os.environ["BENCH_QUICK"] = "1"
    raise SystemExit(pytest.main([__file__, "-q", "-p", "no:randomly"]))
