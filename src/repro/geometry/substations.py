"""Parametric reconstructions of the paper's two case-study grounding grids.

The original CAD drawings of the Barberá and Balaidos substations are not
publicly available, so this module rebuilds both grids from every quantity the
paper states:

**Barberá** (Section 5.1, Fig. 5.1)
    * right-angled triangular plan of 143 m x 89 m protecting about 6 600 m²,
    * 408 cylindrical conductor segments of diameter 12.85 mm,
    * buried at 0.80 m,
    * discretised with one linear leakage element per segment giving 238
      degrees of freedom (nodes).

**Balaidos** (Section 5.2, Fig. 5.3)
    * a stepped rectangular mesh of 107 cylindrical conductors of diameter
      11.28 mm buried at 0.80 m,
    * supplemented by 67 vertical rods of length 1.5 m and diameter 14 mm,
    * analysed with a Galerkin discretisation of 241 elements.

The reconstructions keep the protected area, total conductor length scale,
burial depth, conductor radii and (approximately) the number of segments and
nodes; the exact internal topology of the original drawings is unknown, so the
absolute resistances computed on these grids are expected to differ from the
paper's by a few percent while every qualitative trend is preserved (see
README.md, "Paper artefacts and case studies").
"""

from __future__ import annotations

import numpy as np

from repro.constants import MM_TO_M
from repro.geometry.builder import GridBuilder
from repro.geometry.grid import GroundingGrid

__all__ = [
    "barbera_grid",
    "balaidos_grid",
    "BARBERA_DIAMETER_MM",
    "BALAIDOS_CONDUCTOR_DIAMETER_MM",
    "BALAIDOS_ROD_DIAMETER_MM",
    "BALAIDOS_ROD_LENGTH_M",
    "BURIAL_DEPTH_M",
]

#: Conductor diameter of the Barberá grid [mm] (paper, Section 5.1).
BARBERA_DIAMETER_MM = 12.85
#: Conductor diameter of the Balaidos mesh [mm] (paper, Section 5.2).
BALAIDOS_CONDUCTOR_DIAMETER_MM = 11.28
#: Rod diameter of the Balaidos grid [mm] (paper, Section 5.2).
BALAIDOS_ROD_DIAMETER_MM = 14.0
#: Rod length of the Balaidos grid [m] (paper, Section 5.2).
BALAIDOS_ROD_LENGTH_M = 1.5
#: Burial depth of both grids [m] (paper, Sections 5.1 and 5.2).
BURIAL_DEPTH_M = 0.80


def barbera_grid(
    spacing_x: float = 89.0 / 14.0,
    spacing_y: float = 143.0 / 24.0,
    depth: float = BURIAL_DEPTH_M,
) -> GroundingGrid:
    """Reconstruction of the Barberá substation grounding grid.

    A right-angled triangular reticulated grid with legs of 89 m (x direction)
    and 143 m (y direction); the default spacings are chosen so that the
    reconstructed grid has exactly the paper's 408 conductor segments (and 223
    nodes, versus the paper's 238 — the exact internal topology of the original
    drawing is unknown).

    Parameters
    ----------
    spacing_x, spacing_y:
        Distance between interior grid lines [m].
    depth:
        Burial depth [m].
    """
    builder = GridBuilder(
        depth=depth,
        conductor_radius=0.5 * BARBERA_DIAMETER_MM * MM_TO_M,
        name="Barberá",
    )
    grid = builder.right_triangle_mesh(
        leg_x=89.0,
        leg_y=143.0,
        spacing_x=spacing_x,
        spacing_y=spacing_y,
    )
    grid.metadata.update(
        {
            "substation": "Barberá",
            "paper_segments": 408,
            "paper_dof": 238,
            "paper_area_m2": 6600.0,
            "gpr_v": 10_000.0,
        }
    )
    return grid


def _balaidos_mesh(depth: float) -> GroundingGrid:
    """The stepped (L-shaped) horizontal mesh of the Balaidos grid.

    Built as the union of two aligned rectangular meshes:

    * main field: 81 m x 36 m meshed in 9 x 4 cells,
    * upper extension: 45 m x 18 m meshed in 5 x 2 cells,

    which after removing the duplicated shared boundary yields exactly 107
    conductor segments — the number quoted by the paper.
    """
    builder = GridBuilder(
        depth=depth,
        conductor_radius=0.5 * BALAIDOS_CONDUCTOR_DIAMETER_MM * MM_TO_M,
        name="Balaidos",
    )
    main_field = builder.rectangular_mesh(width=81.0, height=36.0, nx=9, ny=4)
    extension = builder.rectangular_mesh(
        width=45.0, height=18.0, nx=5, ny=2, origin=(0.0, 36.0)
    )
    return GridBuilder.merge("Balaidos", main_field, extension)


def balaidos_grid(
    depth: float = BURIAL_DEPTH_M,
    rod_length: float = BALAIDOS_ROD_LENGTH_M,
    n_rods: int = 67,
) -> GroundingGrid:
    """Reconstruction of the Balaidos substation grounding grid.

    The horizontal mesh has exactly 107 conductor segments (see
    :func:`_balaidos_mesh`).  Sixty-seven vertical rods of 1.5 m are attached:
    one at every mesh node (62 nodes) plus, to reach the paper's count, five
    additional rods welded at the midpoints of the five longest boundary
    conductors of the lower edge (splitting those conductors in two).

    Parameters
    ----------
    depth:
        Burial depth of the horizontal mesh [m].
    rod_length:
        Rod length [m]; the rods run from ``depth`` to ``depth + rod_length``.
    n_rods:
        Number of rods to attach (67 in the paper).  Values smaller than the
        number of mesh nodes simply use the first ``n_rods`` nodes.
    """
    mesh = _balaidos_mesh(depth)
    rod_radius = 0.5 * BALAIDOS_ROD_DIAMETER_MM * MM_TO_M

    nodes = GridBuilder.node_positions(mesh)
    # Deterministic ordering: boundary-first, then by (y, x).
    order = np.lexsort((nodes[:, 0], nodes[:, 1]))
    nodes = nodes[order]

    rod_positions: list[np.ndarray] = [nodes[i, :2] for i in range(min(n_rods, nodes.shape[0]))]

    n_missing = n_rods - len(rod_positions)
    grid = GroundingGrid(name="Balaidos", metadata=dict(mesh.metadata))
    if n_missing > 0:
        # Split the n_missing longest conductors of the lower boundary (y == 0)
        # at their midpoint and plant the extra rods there.
        lower_edge = [
            (idx, c)
            for idx, c in enumerate(mesh)
            if abs(float(c.start[1])) < 1e-9 and abs(float(c.end[1])) < 1e-9
        ]
        lower_edge.sort(key=lambda item: item[1].length, reverse=True)
        to_split = {idx for idx, _ in lower_edge[:n_missing]}
        for idx, conductor in enumerate(mesh):
            if idx in to_split:
                first, second = conductor.split_at(0.5)
                grid.add(first)
                grid.add(second)
                rod_positions.append(np.asarray(first.end[:2], dtype=float))
            else:
                grid.add(conductor)
    else:
        grid.extend(mesh)

    builder = GridBuilder(
        depth=depth,
        conductor_radius=0.5 * BALAIDOS_CONDUCTOR_DIAMETER_MM * MM_TO_M,
        rod_radius=rod_radius,
        rod_length=rod_length,
        name="Balaidos",
    )
    builder.add_rods(grid, rod_positions, length=rod_length, radius=rod_radius, top_depth=depth)

    grid.metadata.update(
        {
            "substation": "Balaidos",
            "paper_conductors": 107,
            "paper_rods": 67,
            "paper_elements": 241,
            "gpr_v": 10_000.0,
        }
    )
    return grid

