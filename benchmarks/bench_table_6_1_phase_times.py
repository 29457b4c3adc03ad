"""Table 6.1 — CPU time of every pipeline phase (Barberá, two-layer soil).

Runs the five-phase pipeline (:class:`repro.bem.GroundingAnalysis`) on the
Barberá two-layer case and records the per-phase wall-clock times.  The absolute numbers are orders of magnitude
smaller than the paper's 1999-era Origin 2000 measurements; the reproduced
*structure* is that matrix generation dominates everything else (the paper
reports 1723 s out of ~1724 s, i.e. >99.9 %).
"""

from __future__ import annotations

from repro.bem.assembly import assemble_system
from repro.bem.formulation import GroundingAnalysis
from repro.cad.report import format_table
from repro.experiments.barbera import barbera_case
from repro.geometry.discretize import discretize_grid


#: Values of the paper's Table 6.1 [seconds].
PAPER_TABLE_6_1 = {
    "data_input": 0.737,
    "data_preprocessing": 0.045,
    "matrix_generation": 1723.207,
    "linear_system_solving": 0.211,
    "results_storage": 0.015,
}

#: Matrix-generation wall seconds measured on the seed commit on the reference
#: 1-core container, kept for context in BENCH_table_6_1_phase_times.json.
#: The speed-up *assertion* uses a locally measured seed baseline instead
#: (see :func:`_seed_matrix_generation`), so it is host-independent.
REFERENCE_SEED_SECONDS = {"coarse": 0.286, "full": 3.111}


def _run_pipeline():
    grid, soil, gpr = barbera_case("two_layer")
    return GroundingAnalysis(grid, soil, gpr=gpr).run()


def test_table_6_1_phase_times(benchmark, record_table):
    timings = benchmark.pedantic(_run_pipeline, rounds=1, iterations=1).timings
    total = sum(timings.values())

    assert max(timings, key=timings.__getitem__) == "matrix_generation"
    assert timings["matrix_generation"] / total > 0.80

    rows = []
    for phase, paper_seconds in PAPER_TABLE_6_1.items():
        rows.append(
            [
                phase,
                timings[phase],
                timings[phase] / total * 100.0,
                paper_seconds,
                paper_seconds / sum(PAPER_TABLE_6_1.values()) * 100.0,
            ]
        )
    table = format_table(
        ["Process", "CPU time (s)", "share (%)", "paper CPU time (s)", "paper share (%)"],
        rows,
        float_format="{:.3f}",
    )
    record_table("table_6_1_phase_times", table)


def _time_matrix_generation(
    coarse: bool, repeats: int, soil_case: str = "two_layer"
) -> tuple[float, "object"]:
    grid, soil, gpr = barbera_case(soil_case, coarse=coarse)
    mesh = discretize_grid(grid, soil=soil)
    best = float("inf")
    system = None
    for _ in range(repeats):
        system = assemble_system(mesh, soil, gpr=gpr)
        best = min(best, float(system.metadata["matrix_generation_seconds"]))
    return best, system


def _seed_matrix_generation(coarse: bool, repeats: int, soil_case: str = "two_layer"):
    """Faithful re-implementation of the seed matrix generation.

    Per-column evaluation through the generic broadcast ``line_integrals`` and
    per-element-pair fancy-indexing scatter — exactly the pre-batching hot
    path.  Measured locally so the speed-up assertion compares two timings
    from the *same* host, and returned so the batched matrix can be checked
    for equality against the seed algorithm.
    """
    import time

    import numpy as np

    from repro.bem.elements import DofManager, ElementType
    from repro.bem.quadrature import gauss_legendre_rule
    from repro.bem.segment_integrals import line_integrals
    from repro.constants import DEFAULT_GAUSS_POINTS
    from repro.kernels.base import kernel_for_soil

    grid, soil, gpr = barbera_case(soil_case, coarse=coarse)
    mesh = discretize_grid(grid, soil=soil)
    kernel = kernel_for_soil(soil)
    dofs = DofManager(mesh, ElementType.LINEAR)
    nodes, weights = gauss_legendre_rule(DEFAULT_GAUSS_POINTS)
    p0, p1 = mesh.element_endpoints()
    lengths = mesh.element_lengths()
    radii = mesh.element_radii()
    layers = mesh.element_layers()
    gauss_points = p0[:, None, :] + nodes[None, :, None] * (p1 - p0)[:, None, :]
    outer_weights = weights[None, :] * lengths[:, None]
    test_values = dofs.shape_values(nodes)
    dof_matrix = dofs.element_dof_matrix()
    n = dofs.n_dofs

    best = float("inf")
    matrix = None
    for _ in range(repeats):
        matrix = np.zeros((n, n))
        start = time.perf_counter()
        for alpha in range(mesh.n_elements):
            targets = np.arange(alpha, mesh.n_elements)
            source_layer = int(layers[alpha])
            normalization = kernel.normalization(source_layer)
            blocks = np.empty((targets.size, 2, 2))
            target_layers = layers[targets]
            for field_layer in np.unique(target_layers):
                mask = target_layers == field_layer
                group = targets[mask]
                series = kernel.image_series(source_layer, int(field_layer))
                q0 = np.broadcast_to(p0[alpha], (len(series), 3)).copy()
                q1 = np.broadcast_to(p1[alpha], (len(series), 3)).copy()
                q0[:, 2] = series.signs * p0[alpha, 2] + series.offsets
                q1[:, 2] = series.signs * p1[alpha, 2] + series.offsets
                i0, i1 = line_integrals(
                    gauss_points[group][None, :, :, :],
                    q0[:, None, None, :],
                    q1[:, None, None, :],
                    min_distance=float(radii[alpha]),
                )
                w0 = np.einsum("l,ltg->tg", series.weights, i0)
                w1 = np.einsum("l,ltg->tg", series.weights, i1)
                trial = np.stack((w0 - w1, w1), axis=-1)
                blocks[mask] = normalization * np.einsum(
                    "tg,gj,tgi->tji", outer_weights[group], test_values, trial
                )
            cols = dof_matrix[alpha]
            for target, block in zip(targets, blocks):
                rows = dof_matrix[int(target)]
                if int(target) == alpha:
                    matrix[np.ix_(rows, cols)] += 0.5 * (block + block.T)
                else:
                    matrix[np.ix_(rows, cols)] += block
                    matrix[np.ix_(cols, rows)] += block.T
        best = min(best, time.perf_counter() - start)
    return best, matrix


def test_matrix_generation_batched_speedup(record_table, record_snapshot):
    """Batched assembly engine vs the seed per-column path (coarse Barberá).

    Writes the before/after record consumed by CHANGES.md to
    ``benchmarks/results/BENCH_table_6_1_phase_times.json`` and to the
    committed snapshot of the same name at the repo root.
    """
    import numpy as np

    # Seed and batched timings are *interleaved* (one pair per round) and the
    # per-side minimum is taken: transient load on small (1-core) hosts then
    # hits both sides alike instead of skewing the ratio.  Each side runs
    # twice back-to-back per round (min over both), so at least one timed run
    # per round starts on caches warmed by its own side rather than evicted
    # by the other side's run.
    cases = (
        ("uniform-coarse", "uniform", True, 4),
        ("coarse", "two_layer", True, 4),
        ("full", "two_layer", False, 2),
    )
    batched = {}
    seed = {}
    for case, soil_case, coarse, rounds in cases:
        best_batched, best_seed = float("inf"), float("inf")
        for _ in range(rounds):
            seconds, system = _time_matrix_generation(
                coarse=coarse, repeats=2, soil_case=soil_case
            )
            if seconds < best_batched:
                best_batched, batched[case] = seconds, (seconds, system)
            seconds, matrix = _seed_matrix_generation(
                coarse=coarse, repeats=2, soil_case=soil_case
            )
            if seconds < best_seed:
                best_seed, seed[case] = seconds, (seconds, matrix)
    record = {
        case: {
            "seed_seconds": seed[case][0],
            "batched_seconds": batched[case][0],
            "speedup": seed[case][0] / batched[case][0],
        }
        for case in batched
    }
    for case, reference in REFERENCE_SEED_SECONDS.items():
        if case in record:
            record[case]["reference_container_seed_seconds"] = reference
    record_snapshot("table_6_1_phase_times", record)

    rows = [
        [case, entry["seed_seconds"], entry["batched_seconds"], entry["speedup"]]
        for case, entry in record.items()
    ]
    record_table(
        "matrix_generation_batched_speedup",
        format_table(
            ["Case", "seed (s)", "batched (s)", "speed-up"], rows, float_format="{:.3f}"
        ),
    )

    # The batched engine must reproduce the seed matrix.  Re-baselined when
    # the adaptive engine became the assembly default: the comparison bar is
    # now the adaptive contract (2e-8 * ||A||max, measured ~4e-9) instead of
    # the 1e-10 bit-level agreement of the exact batched engine, which is
    # still asserted separately by tests/bem/test_assembly.py.
    for case in batched:
        seed_matrix = seed[case][1]
        batched_matrix = batched[case][1].matrix
        scale = float(np.abs(seed_matrix).max())
        assert np.allclose(batched_matrix, seed_matrix, rtol=0.0, atol=2e-8 * max(scale, 1.0))
    # Speed-up guards.  The uniform coarse case (short image series, the
    # workload of the tier-1 scaling tests) gains ~10x and asserts the 2x
    # acceptance bar with a wide margin; the two-layer ratios measure
    # ~1.8-2.4x depending on host load (sub-second timings on tiny
    # cgroup-throttled hosts swing by ~20 %), so their guard is looser.
    assert record["uniform-coarse"]["speedup"] >= 2.0
    assert record["coarse"]["speedup"] >= 1.5
    assert record["full"]["speedup"] >= 1.5
