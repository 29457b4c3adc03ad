"""Connectivity analysis of discretised grounding grids.

A physically meaningful grounding grid is a single connected network: every
electrode must be galvanically bonded to the rest, otherwise the constant-GPR
boundary condition of the paper (``V = V_Gamma`` on the whole electrode
surface) would not hold.  This module treats a
:class:`~repro.geometry.discretize.Mesh` as a graph — mesh nodes are vertices,
elements are edges — and provides the checks and counts used by validation,
reports and tests (number of independent meshes, node degrees, ...).
Components come from one union-find over the element node pairs.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.discretize import Mesh

__all__ = [
    "is_connected",
    "connected_components",
    "count_independent_meshes",
    "node_degrees",
    "isolated_nodes",
    "graph_summary",
]


def _graph_edges(mesh: Mesh) -> set[tuple[int, int]]:
    """Distinct node pairs joined by at least one element.

    Coincident elements (two conductors laid over the same node pair) share
    one graph edge.
    """
    return {(min(a, b), max(a, b)) for a, b in (e.node_ids for e in mesh.elements)}


def _component_roots(mesh: Mesh) -> list[int]:
    """For every node, the smallest node id of its connected component."""
    parent = list(range(mesh.n_nodes))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]  # path halving
            node = parent[node]
        return node

    for element in mesh.elements:
        a, b = (find(node) for node in element.node_ids)
        if a != b:
            parent[max(a, b)] = min(a, b)
    return [find(node) for node in range(mesh.n_nodes)]


def is_connected(mesh: Mesh) -> bool:
    """Whether every electrode of the mesh is galvanically connected."""
    return len(connected_components(mesh)) == 1


def connected_components(mesh: Mesh) -> list[set[int]]:
    """Connected components as sets of node ids.

    Largest first; components of equal size keep the order of their
    smallest node id.
    """
    components: dict[int, set[int]] = {}
    for node, root in enumerate(_component_roots(mesh)):
        components.setdefault(root, set()).add(node)
    return sorted(components.values(), key=len, reverse=True)


def count_independent_meshes(mesh: Mesh) -> int:
    """Number of independent loops (circuit meshes) of the grid network.

    For a graph with ``E`` edges, ``V`` vertices and ``C`` connected
    components the cycle-space dimension is ``E - V + C``; for a healthy,
    single-component reticulated grid this equals the number of visible
    "meshes" of the grid plan.
    """
    return len(_graph_edges(mesh)) - mesh.n_nodes + len(connected_components(mesh))


def node_degrees(mesh: Mesh) -> np.ndarray:
    """Array of node degrees (number of incident elements per node)."""
    degrees = np.zeros(mesh.n_nodes, dtype=int)
    for element in mesh.elements:
        degrees[element.node_ids[0]] += 1
        degrees[element.node_ids[1]] += 1
    return degrees


def isolated_nodes(mesh: Mesh) -> np.ndarray:
    """Ids of nodes not referenced by any element (should be empty)."""
    return np.flatnonzero(node_degrees(mesh) == 0)


def graph_summary(mesh: Mesh) -> dict:
    """Aggregate connectivity statistics used by reports and tests."""
    degrees = node_degrees(mesh)
    return {
        "n_nodes": mesh.n_nodes,
        "n_elements": mesh.n_elements,
        "n_graph_edges": len(_graph_edges(mesh)),
        "n_components": len(connected_components(mesh)),
        "n_independent_meshes": count_independent_meshes(mesh),
        "max_degree": int(degrees.max()) if degrees.size else 0,
        "mean_degree": float(degrees.mean()) if degrees.size else 0.0,
    }
