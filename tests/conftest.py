"""Shared fixtures for the test-suite.

The heavier objects (solved analyses) are session-scoped so that the many
tests inspecting them do not re-run the BEM pipeline; the grids used here are
deliberately small — the full paper-size runs live in ``benchmarks/``.
"""

from __future__ import annotations

import random
import zlib

import numpy as np
import pytest


# --------------------------------------------------------------------------- determinism


@pytest.fixture(autouse=True)
def _reseed_global_rngs(request):
    """Reseed the *global* RNGs deterministically before every test.

    A few tests (timing helpers of :mod:`repro.timing`, kernel and
    solver randomised checks) draw from the legacy global ``numpy.random`` /
    ``random`` state instead of a local generator.  Seeding that state from
    the test's node id makes every test see the same stream no matter which
    tests ran before it, so the suite passes identically under
    ``pytest -p no:randomly``, shuffled orderings and partial runs.  Tests
    wanting isolated streams keep using the ``rng`` fixture.
    """
    seed = zlib.crc32(request.node.nodeid.encode("utf-8"))
    random.seed(seed)
    np.random.seed(seed & 0xFFFFFFFF)

from repro.bem.assembly import AssemblyOptions, assemble_system
from repro.bem.elements import DofManager, ElementType
from repro.bem.formulation import GroundingAnalysis
from repro.geometry.builder import GridBuilder
from repro.geometry.discretize import discretize_grid
from repro.geometry.grid import GroundingGrid
from repro.kernels.base import kernel_for_soil
from repro.kernels.series import SeriesControl
from repro.soil.two_layer import TwoLayerSoil
from repro.soil.uniform import UniformSoil


# --------------------------------------------------------------------------- soils


@pytest.fixture(scope="session")
def uniform_soil() -> UniformSoil:
    """Homogeneous soil with ρ = 100 Ω·m."""
    return UniformSoil(0.01)


@pytest.fixture(scope="session")
def two_layer_soil() -> TwoLayerSoil:
    """Two-layer soil: resistive top layer (400 Ω·m, 1 m) over 100 Ω·m."""
    return TwoLayerSoil(0.0025, 0.01, 1.0)


@pytest.fixture(scope="session")
def barbera_like_soil() -> TwoLayerSoil:
    """The Barberá two-layer soil parameters of the paper."""
    return TwoLayerSoil(0.005, 0.016, 1.0)


# --------------------------------------------------------------------------- grids


@pytest.fixture(scope="session")
def small_grid() -> GroundingGrid:
    """A 3 × 3 mesh of 18 m × 18 m at 0.6 m depth (24 conductors)."""
    builder = GridBuilder(depth=0.6, conductor_radius=5.0e-3, name="small")
    return builder.rectangular_mesh(18.0, 18.0, 3, 3)


@pytest.fixture(scope="session")
def rodded_grid() -> GroundingGrid:
    """A small mesh with four rods crossing the 1 m interface of the test soils."""
    builder = GridBuilder(
        depth=0.6, conductor_radius=5.0e-3, rod_radius=7.0e-3, rod_length=2.0, name="rodded"
    )
    grid = builder.rectangular_mesh(12.0, 12.0, 2, 2)
    builder.add_rods(grid, [(0.0, 0.0), (12.0, 0.0), (0.0, 12.0), (12.0, 12.0)])
    return grid


@pytest.fixture(scope="session")
def single_rod_grid() -> GroundingGrid:
    """A single 3 m vertical rod (for the analytic resistance check)."""
    import numpy as np

    from repro.geometry.conductors import Conductor, ConductorKind

    grid = GroundingGrid(name="single-rod")
    grid.add(
        Conductor(
            start=np.array([0.0, 0.0, 0.05]),
            end=np.array([0.0, 0.0, 3.05]),
            radius=7.0e-3,
            kind=ConductorKind.ROD,
        )
    )
    return grid


# --------------------------------------------------------------------------- meshes


@pytest.fixture(scope="session")
def small_mesh(small_grid, uniform_soil):
    """Discretised small grid (uniform soil, one element per conductor)."""
    return discretize_grid(small_grid, soil=uniform_soil)


@pytest.fixture(scope="session")
def rodded_mesh(rodded_grid, two_layer_soil):
    """Discretised rodded grid: the rods are split at the 1 m interface."""
    return discretize_grid(rodded_grid, soil=two_layer_soil)


def _barbera_two_layer(coarse: bool):
    from repro.experiments.barbera import barbera_case

    grid, soil, gpr = barbera_case("two_layer", coarse=coarse)
    return discretize_grid(grid, soil=soil), soil, gpr


@pytest.fixture(scope="session")
def coarse_barbera():
    """Coarse Barberá two-layer (mesh, soil, GPR): 120 elements, 5 column groups."""
    return _barbera_two_layer(coarse=True)


@pytest.fixture(scope="session")
def full_barbera():
    """The paper's Barberá two-layer (mesh, soil, GPR): 408 elements, 51 column groups."""
    return _barbera_two_layer(coarse=False)


# --------------------------------------------------------------------------- systems and results


@pytest.fixture(scope="session")
def small_system(small_mesh, uniform_soil):
    """Assembled Galerkin system of the small grid in uniform soil."""
    return assemble_system(
        small_mesh,
        uniform_soil,
        gpr=1000.0,
        options=AssemblyOptions(element_type=ElementType.LINEAR, n_gauss=4),
        collect_column_times=True,
    )


@pytest.fixture(scope="session")
def small_results(small_grid, uniform_soil):
    """Full analysis of the small grid in uniform soil (GPR = 1 kV)."""
    return GroundingAnalysis(small_grid, uniform_soil, gpr=1000.0).run()


@pytest.fixture(scope="session")
def two_layer_results(rodded_grid, two_layer_soil):
    """Full analysis of the rodded grid in the two-layer soil (GPR = 1 kV)."""
    return GroundingAnalysis(rodded_grid, two_layer_soil, gpr=1000.0).run()


# --------------------------------------------------------------------------- misc helpers


@pytest.fixture(scope="session")
def tight_series() -> SeriesControl:
    """A tight image-series truncation used by the kernel accuracy tests."""
    return SeriesControl(tolerance=1.0e-10, max_groups=2048)


@pytest.fixture()
def rng() -> np.random.Generator:
    """A seeded random generator (fresh per test for isolation)."""
    return np.random.default_rng(20260617)


@pytest.fixture(scope="session")
def small_dofs(small_mesh) -> DofManager:
    """Linear-element dof manager of the small mesh."""
    return DofManager(small_mesh, ElementType.LINEAR)


@pytest.fixture(scope="session")
def small_kernel(uniform_soil):
    """Uniform-soil kernel used with the small mesh."""
    return kernel_for_soil(uniform_soil)
