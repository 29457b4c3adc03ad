"""Index of the paper's tables and figures and the code that regenerates them.

Every entry maps one artefact of the paper's evaluation (a table or a figure)
to the experiment driver that reproduces it and to the benchmark module that
prints the corresponding rows/series.  README.md ("Paper artefacts and case
studies") summarises the same index in prose; this module makes it queryable
from code and keeps the test-suite able to assert that every artefact has a
registered reproduction path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ExperimentError

__all__ = ["ExperimentSpec", "EXPERIMENTS", "get_experiment", "all_experiment_ids"]


@dataclass(frozen=True)
class ExperimentSpec:
    """Description of one reproducible artefact of the paper."""

    #: Identifier, e.g. ``"table_5_1"`` or ``"fig_6_1"``.
    id: str
    #: What the paper shows.
    title: str
    #: Paper section the artefact belongs to.
    section: str
    #: Workload / parameters in one sentence.
    workload: str
    #: Library modules implementing the pieces.
    modules: tuple[str, ...]
    #: Benchmark file that regenerates the artefact.
    benchmark: str
    #: Example scripts touching the same code path (optional).
    examples: tuple[str, ...] = field(default_factory=tuple)


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.id: spec
    for spec in [
        ExperimentSpec(
            id="fig_5_1",
            title="Barberá grounding grid plan",
            section="5.1",
            workload="Reconstruction of the 408-segment right-triangle grid (143 m × 89 m).",
            modules=("repro.geometry.substations", "repro.geometry.builder"),
            benchmark="benchmarks/bench_fig_5_1_geometry.py",
            examples=("examples/barbera_analysis.py",),
        ),
        ExperimentSpec(
            id="fig_5_2",
            title="Barberá surface potential, uniform vs two-layer soil",
            section="5.1",
            workload="Full BEM solve at GPR = 10 kV for γ=0.016 and (γ1=0.005, γ2=0.016, h=1 m); "
            "surface potential sampled over the site.",
            modules=("repro.experiments.barbera", "repro.bem", "repro.cad.contours"),
            benchmark="benchmarks/bench_fig_5_2_barbera_potential.py",
            examples=("examples/barbera_analysis.py",),
        ),
        ExperimentSpec(
            id="fig_5_3",
            title="Balaidos grounding grid plan",
            section="5.2",
            workload="Reconstruction of the 107-conductor mesh with 67 rods.",
            modules=("repro.geometry.substations",),
            benchmark="benchmarks/bench_fig_5_3_geometry.py",
            examples=("examples/balaidos_soil_models.py",),
        ),
        ExperimentSpec(
            id="table_5_1",
            title="Balaidos equivalent resistance and total current for soil models A/B/C",
            section="5.2",
            workload="Three BEM solves of the Balaidos grid (uniform and two two-layer soils).",
            modules=("repro.experiments.balaidos", "repro.bem"),
            benchmark="benchmarks/bench_table_5_1_balaidos.py",
            examples=("examples/balaidos_soil_models.py",),
        ),
        ExperimentSpec(
            id="fig_5_4",
            title="Balaidos surface potential for soil models A/B/C",
            section="5.2",
            workload="Surface potential maps of the three Balaidos analyses.",
            modules=("repro.experiments.balaidos", "repro.cad.contours"),
            benchmark="benchmarks/bench_fig_5_4_balaidos_potential.py",
            examples=("examples/balaidos_soil_models.py",),
        ),
        ExperimentSpec(
            id="table_6_1",
            title="CPU time of every pipeline phase (Barberá, two-layer)",
            section="6.1",
            workload="Timed run of the five CAD phases; matrix generation dominates.",
            modules=("repro.bem.formulation", "repro.timing"),
            benchmark="benchmarks/bench_table_6_1_phase_times.py",
            examples=("examples/quickstart.py",),
        ),
        ExperimentSpec(
            id="fig_6_1",
            title="Speed-up vs processors, outer vs inner loop parallelisation",
            section="6.2",
            workload="Barberá two-layer column costs replayed on 1–64 simulated processors "
            "(Dynamic,1), plus real process-pool validation on the local cores.",
            modules=("repro.parallel.simulator", "repro.parallel.parallel_assembly"),
            benchmark="benchmarks/bench_fig_6_1_speedup.py",
            examples=("examples/parallel_scaling.py",),
        ),
        ExperimentSpec(
            id="table_6_2",
            title="Speed-up for OpenMP schedules × chunk sizes × processors",
            section="6.2",
            workload="Outer-loop parallelisation of the Barberá two-layer assembly under "
            "static/dynamic/guided schedules with chunks 1/4/16/64 on 1–8 processors.",
            modules=("repro.parallel.schedule", "repro.parallel.simulator"),
            benchmark="benchmarks/bench_table_6_2_schedules.py",
            examples=("examples/parallel_scaling.py",),
        ),
        ExperimentSpec(
            id="sharded_hierarchical",
            title="Sharded hierarchical block backend: parallel assemble+solve scaling",
            section="6.2 (extension)",
            workload="Synthetic >=10^4-element grids assembled and solved through the "
            "hierarchical block builder (LPT block partition executed on worker "
            "processes, deterministic pairwise-tree matvec reduction) for several worker "
            "counts, vs its in-process workers=0 run.",
            modules=(
                "repro.parallel.block_backend",
                "repro.cluster.block_assembly",
                "repro.experiments.scaling",
            ),
            benchmark="benchmarks/bench_hierarchical_scaling.py",
            examples=("examples/parallel_scaling.py",),
        ),
        ExperimentSpec(
            id="campaign_batch",
            title="Scenario campaign engine: batch throughput with cross-scenario reuse",
            section="6.2 (extension)",
            workload="A >=12-scenario grounding study (shared grid, flat+rodded variants, "
            "two soil families with scale and injection variants) executed through the "
            "campaign planner/runner on a persistent worker pool, against the same "
            "scenarios as independent cold GroundingAnalysis runs; solutions must match "
            "the standalone runs to 1e-10 and be bit-identical across pool worker counts.",
            modules=(
                "repro.campaign",
                "repro.parallel.pool",
                "repro.parallel.block_backend",
            ),
            benchmark="benchmarks/bench_campaign.py",
            examples=("examples/campaign_study.py",),
        ),
        ExperimentSpec(
            id="table_6_3",
            title="Balaidos matrix-generation CPU time and speed-up for soil models A/B/C",
            section="6.2",
            workload="Matrix generation of the three Balaidos soil models on 1–8 processors.",
            modules=("repro.experiments.scaling", "repro.parallel.parallel_assembly"),
            benchmark="benchmarks/bench_table_6_3_balaidos_parallel.py",
            examples=("examples/parallel_scaling.py",),
        ),
    ]
}


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up an experiment by id (raises for unknown ids)."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError as exc:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known ids: {sorted(EXPERIMENTS)}"
        ) from exc


def all_experiment_ids() -> list[str]:
    """All registered experiment identifiers."""
    return sorted(EXPERIMENTS)
