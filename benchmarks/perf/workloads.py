"""The four benchmark workloads: inputs from a seed, one operation, its checks.

Every workload is a closed loop with one client.  A workload object is built
once per round (its constructor is the set-up: input generation, worker pool
spawn), warms up once on its smallest input, then runs ``op(slot, meter)``
until the round's time share is spent.  The program only ever receives the
generated inputs; the seed sets every random choice and all rounds of a run
get the same inputs, so outputs must be bitwise identical across rounds.

``op`` returns an :class:`Outcome`: a digest of the outputs (for the bitwise
identity check across ops), the failed checks against ``reference.json`` and
the per-op layer counts that only the workload can see.
"""

from __future__ import annotations

import hashlib
import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

import numpy as np

from repro import (
    Campaign,
    GeometryVariant,
    GridBuilder,
    GroundingAnalysis,
    HierarchicalControl,
    ParallelOptions,
    ScenarioSpec,
    TwoLayerSoil,
    UniformSoil,
    WorkerPool,
    discretize_grid,
    kernel_for_soil,
    run_campaign,
)
from repro.bem.assembly import assemble_system
from repro.bem.geometry_cache import default_geometry_cache
from repro.constants import DEFAULT_GAUSS_POINTS
from repro.experiments.barbera import barbera_case
from repro.observe import Tracer
from repro.parallel.costs import analytic_column_costs
from repro.parallel.parallel_assembly import assemble_system_parallel

import layers

#: Relative tolerance against the exact-engine references (resistances, norms).
RTOL_REFERENCE = 1.0e-6
#: Campaign scenarios are checked tighter: derived scenarios are exact algebra.
RTOL_CAMPAIGN = 1.0e-8
#: Parallel matrix against the serial one, relative to ``max|A|``.
RTOL_PARALLEL = 1.0e-12

#: The Barberá-like two-layer soil of the hierarchical and campaign workloads.
TWO_LAYER = (0.005, 0.016, 1.0)
#: Campaign soil families.
SOILS = (("tl", TwoLayerSoil(*TWO_LAYER)), ("uni", UniformSoil(0.01)))
#: Campaign variants per structure: (label, soil scale, nominal GPR [V]).
VARIANTS = (
    ("base", 1.0, 10_000.0),
    ("fault5kV", 1.0, 5_000.0),
    ("wet", 1.25, 10_000.0),
    ("fault15kV", 1.0, 15_000.0),
    ("dry", 0.8, 12_500.0),
)

#: Problem sizes; ``quick`` runs every workload at toy size (tests, smoke).
SIZES: dict[str, dict[str, Any]] = {
    "full": {
        "barbera_coarse": False,
        "raster": 31,
        "hier_meshes": 32,
        "campaign_meshes": (6, 7, 8, 9),
        "campaign_variants": VARIANTS,
    },
    "quick": {
        "barbera_coarse": True,
        "raster": 7,
        "hier_meshes": 6,
        "campaign_meshes": (3,),
        "campaign_variants": VARIANTS[::2],
    },
}

#: Mesh spacing of the generated square grids [m].
SPACING = 5.0


def n_workers() -> int:
    """Workers of every pool and executor: never more than the host's cores."""
    return min(2, os.cpu_count() or 1)


def square_grid(meshes: int):
    return GridBuilder(depth=0.8, conductor_radius=6.0e-3).rectangular_mesh(
        SPACING * meshes, SPACING * meshes, meshes, meshes
    )


def sweep_campaign(rng: np.random.Generator, meshes, variants, name="campaign-sweep"):
    """Square grids x rods x soils x variants, shuffled, with drawn GPRs."""
    specs = []
    for m in meshes:
        for rods in ("none", "corners"):
            geometry = GeometryVariant(
                name=f"g{m}-{rods}", width=SPACING * m, height=SPACING * m, nx=m, ny=m, rods=rods
            )
            for soil_label, soil in SOILS:
                for label, scale, gpr in variants:
                    specs.append(
                        ScenarioSpec(
                            name=f"{geometry.name}-{soil_label}-{label}",
                            geometry=geometry,
                            soil=soil,
                            soil_scale=scale,
                            gpr=float(gpr * rng.uniform(0.9, 1.1)),
                        )
                    )
    order = rng.permutation(len(specs))
    return Campaign(
        name=name,
        scenarios=tuple(specs[i] for i in order),
        hierarchical=HierarchicalControl(),
    )


def scenario_key(spec: ScenarioSpec) -> str:
    """Reference key of a campaign scenario: resistance ignores the GPR."""
    soil_label = spec.name.split("-")[2]
    return f"{spec.geometry.name}-{soil_label}-x{spec.soil_scale:g}"


def clear_geometry_cache(_task: int) -> None:
    """Pool task: empty the worker's process-wide geometry cache."""
    default_geometry_cache().clear()


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=16)
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def check_close(label: str, value: float, expected: float, rtol: float) -> list[str]:
    if abs(value - expected) <= rtol * abs(expected):
        return []
    return [f"{label}: {value!r} differs from reference {expected!r} by more than {rtol:g}"]


@dataclass
class Outcome:
    digest: str
    failures: list[str] = field(default_factory=list)
    #: Per-op layer counts only the workload sees (merged into the layer totals).
    counts: dict[str, float] = field(default_factory=dict)


class Meter:
    """Times the samples of one op; traces the ``op`` sample when given a tracer."""

    def __init__(self, tracer: "Tracer | None" = None) -> None:
        self.tracer = tracer
        self.samples: dict[str, float] = {}

    @contextmanager
    def time(self, kind: str):
        if kind == "op" and self.tracer is not None:
            with layers.Patched(self.tracer), self.tracer.span("op"):
                start = perf_counter()
                try:
                    yield
                finally:
                    self.samples[kind] = perf_counter() - start
            return
        start = perf_counter()
        try:
            yield
        finally:
            self.samples[kind] = perf_counter() - start


class Workload:
    name = ""

    def __init__(self, seed: int, quick: bool, reference: dict) -> None:
        self.size = SIZES["quick" if quick else "full"]
        self.reference = reference
        self.rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        self.pool: WorkerPool | None = None

    def clear_caches(self) -> None:
        """Start the next op cold, in this process and in the pool workers."""
        default_geometry_cache().clear()
        if self.pool is not None:
            self.pool.run_partition(
                clear_geometry_cache, [[slot] for slot in range(self.pool.n_workers)]
            )

    def warmup(self) -> None:
        raise NotImplementedError

    def op(self, slot: int, meter: Meter) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()


class BarberaDesign(Workload):
    """The paper's CAD loop: analyse the Barberá two-layer case, map the surface."""

    name = "barbera-design"

    def __init__(self, seed, quick, reference):
        super().__init__(seed, quick, reference)
        self.grid, self.soil, _ = barbera_case("two_layer", coarse=self.size["barbera_coarse"])
        self.gpr = float(self.rng.uniform(5_000.0, 15_000.0))

    def _run(self, grid, raster, meter: Meter | None = None):
        meter = meter or Meter()
        with meter.time("op"):
            with meter.time("analysis"):
                results = GroundingAnalysis(grid, self.soil, gpr=self.gpr).run()
            with meter.time("raster"):
                surface = results.evaluator().surface_potential_over_grid(n_x=raster, n_y=raster)
        return results, surface

    def warmup(self):
        grid, _, _ = barbera_case("two_layer", coarse=True)
        self._run(grid, 7)

    def op(self, slot, meter):
        results, surface = self._run(self.grid, self.size["raster"], meter)
        ref = self.reference
        failures = check_close(
            "R_eq", results.equivalent_resistance, ref["r_eq_ohm"], RTOL_REFERENCE
        ) + check_close(
            "max surface potential / GPR",
            surface.max_value / self.gpr,
            ref["surface_max_per_unit"],
            RTOL_REFERENCE,
        )
        units = analytic_column_costs(
            results.mesh.element_layers(), results.kernel, DEFAULT_GAUSS_POINTS
        ).sum()
        return Outcome(
            digest(results.dof_values, surface.values),
            failures,
            {"kernels.work_units": float(units)},
        )


class PaperParallel(Workload):
    """Fig. 6.1 / Table 6.2: parallel matrix generation with a serial baseline."""

    name = "paper-parallel"
    #: Every ``SERIAL_EVERY``-th slot also times the plain serial assembly.
    SERIAL_EVERY = 4

    def __init__(self, seed, quick, reference):
        super().__init__(seed, quick, reference)
        grid, self.soil, _ = barbera_case("two_layer", coarse=self.size["barbera_coarse"])
        self.mesh = discretize_grid(grid, soil=self.soil)
        self.gpr = float(self.rng.uniform(5_000.0, 15_000.0))
        self.parallel = ParallelOptions(n_workers=n_workers())
        self.serial_matrix: np.ndarray | None = None
        self.serial_digest = ""
        self.units = float(
            analytic_column_costs(
                self.mesh.element_layers(), kernel_for_soil(self.soil), DEFAULT_GAUSS_POINTS
            ).sum()
        )

    def _parallel(self, mesh):
        return assemble_system_parallel(
            mesh, self.soil, gpr=self.gpr, parallel=self.parallel, collect_column_times=False
        )

    def warmup(self):
        grid, _, _ = barbera_case("two_layer", coarse=True)
        mesh = discretize_grid(grid, soil=self.soil)
        self._parallel(mesh)
        assemble_system(mesh, self.soil, gpr=self.gpr)

    def op(self, slot, meter):
        failures: list[str] = []
        if slot % self.SERIAL_EVERY == 0:
            with meter.time("serial"):
                serial = assemble_system(self.mesh, self.soil, gpr=self.gpr).matrix
            serial_digest = digest(serial)
            if self.serial_matrix is None:
                self.serial_matrix, self.serial_digest = serial, serial_digest
                ref = self.reference
                failures += check_close(
                    "serial max|A|", float(np.abs(serial).max()), ref["max_abs"], RTOL_REFERENCE
                ) + check_close(
                    "serial ||A||_F", float(np.linalg.norm(serial)), ref["frobenius"],
                    RTOL_REFERENCE,
                )
            elif serial_digest != self.serial_digest:
                failures.append("serial matrix changed between serial slots")
            self.clear_caches()
        with meter.time("op"):
            matrix = self._parallel(self.mesh).matrix
        scale = float(np.abs(self.serial_matrix).max())
        error = float(np.abs(matrix - self.serial_matrix).max())
        if not error <= RTOL_PARALLEL * scale:
            failures.append(
                f"parallel matrix differs from serial by {error:.3e} "
                f"> {RTOL_PARALLEL:g} * {scale:.6g}"
            )
        return Outcome(digest(matrix), failures, {"kernels.work_units": self.units})


class HierGrid(Workload):
    """The scalable path: hierarchical (ACA) assembly on a persistent pool."""

    name = "hier-grid"

    def __init__(self, seed, quick, reference):
        super().__init__(seed, quick, reference)
        self.grid = square_grid(self.size["hier_meshes"])
        self.soil = TwoLayerSoil(*TWO_LAYER)
        # A power-of-two multiple of the reference's 10 kV scales every PCG
        # iterate exactly, so the iteration count equals the reference's for
        # every seed.  Any other GPR can move a final residual across the
        # stopping threshold and cost one more iteration.
        self.gpr = 10_000.0 * 2.0 ** int(self.rng.integers(-1, 2))
        self.control = HierarchicalControl(workers=n_workers())
        self.pool = WorkerPool(n_workers())

    def _run(self, grid):
        return GroundingAnalysis(
            grid,
            self.soil,
            gpr=self.gpr,
            hierarchical=self.control,
            pool=self.pool,
            validate=False,
        ).run()

    def warmup(self):
        self._run(square_grid(4))

    def op(self, slot, meter):
        with meter.time("op"):
            results = self._run(self.grid)
        ref = self.reference
        failures = check_close(
            "R_eq", results.equivalent_resistance, ref["r_eq_ohm"], RTOL_REFERENCE
        )
        if results.solver.iterations != ref["pcg_iterations"]:
            failures.append(
                f"PCG took {results.solver.iterations} iterations, "
                f"reference {ref['pcg_iterations']}"
            )
        return Outcome(digest(results.dof_values), failures)


class CampaignSweep(Workload):
    """Many small analyses sharing work: an 80-scenario campaign on a pool."""

    name = "campaign-sweep"
    GROUP_CONCURRENCY = 2

    def __init__(self, seed, quick, reference):
        super().__init__(seed, quick, reference)
        self.campaign = sweep_campaign(
            self.rng, self.size["campaign_meshes"], self.size["campaign_variants"]
        )
        self.pool = WorkerPool(n_workers())

    def _run(self, campaign):
        return run_campaign(campaign, pool=self.pool, group_concurrency=self.GROUP_CONCURRENCY)

    def warmup(self):
        self._run(sweep_campaign(np.random.default_rng(0), (3,), VARIANTS[:2], "warmup"))

    def op(self, slot, meter):
        with meter.time("op"):
            result = self._run(self.campaign)
        failures = [f"structure group failed: {f.summary()}" for f in result.failures]
        if result.n_scenarios != self.campaign.n_scenarios:
            failures.append(
                f"{result.n_scenarios} of {self.campaign.n_scenarios} scenarios returned"
            )
        expected = self.reference["r_eq_ohm"]
        for scenario, spec in zip(result.scenarios, self.campaign.scenarios):
            failures += check_close(
                f"R_eq of {spec.name}",
                scenario.equivalent_resistance,
                expected[scenario_key(spec)],
                RTOL_CAMPAIGN,
            )
        arrays = [s.dof_values for s in result.scenarios]
        arrays.append(
            np.array([(s.max_touch_voltage, s.max_step_voltage) for s in result.scenarios])
        )
        cache = result.cache_stats
        geometry = cache["geometry_cache"]
        plans = cache["cluster_plan_cache"]
        assemblies = float(result.plan_summary["n_assemblies"])
        counts = {
            "campaign.assemblies": assemblies,
            "campaign.reuse_ratio": result.n_scenarios / assemblies,
            "campaign.cache.geometry_hit_ratio": geometry["hits"]
            / max(geometry["hits"] + geometry["misses"], 1),
            "campaign.cache.cluster_plan_hit_ratio": plans["hits"]
            / max(plans["hits"] + plans["misses"], 1),
        }
        return Outcome(digest(*arrays), failures, counts)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (BarberaDesign, PaperParallel, HierGrid, CampaignSweep)
}
