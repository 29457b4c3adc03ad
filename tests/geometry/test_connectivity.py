"""Unit tests for the connectivity analysis."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import connectivity
from repro.geometry.builder import GridBuilder
from repro.geometry.conductors import Conductor
from repro.geometry.discretize import Mesh, MeshElement, discretize_grid
from repro.geometry.grid import GroundingGrid


@pytest.fixture(scope="module")
def mesh_3x3():
    builder = GridBuilder(depth=0.8, conductor_radius=5e-3)
    return discretize_grid(builder.rectangular_mesh(30.0, 30.0, 3, 3))


@pytest.fixture(scope="module")
def disconnected_mesh():
    grid = GroundingGrid()
    grid.add(Conductor(np.array([0, 0, 0.8]), np.array([5, 0, 0.8]), 5e-3))
    grid.add(Conductor(np.array([50, 0, 0.8]), np.array([55, 0, 0.8]), 5e-3))
    return discretize_grid(grid)


class TestGraphConstruction:
    def test_graph_sizes(self, mesh_3x3):
        summary = connectivity.graph_summary(mesh_3x3)
        assert summary["n_nodes"] == mesh_3x3.n_nodes
        assert summary["n_graph_edges"] == mesh_3x3.n_elements

    def test_parallel_elements_collapse_into_one_edge(self, two_layer_soil):
        # A rod split by the interface creates two elements between two pairs
        # of nodes stacked vertically; they remain distinct edges, but two
        # coincident conductors produce a single edge over both elements.
        grid = GroundingGrid()
        grid.add(Conductor(np.array([0, 0, 0.8]), np.array([5, 0, 0.8]), 5e-3))
        grid.add(Conductor(np.array([5, 0, 0.8]), np.array([0, 0, 0.8]), 5e-3))
        summary = connectivity.graph_summary(discretize_grid(grid))
        assert summary["n_graph_edges"] == 1
        assert summary["n_elements"] == 2


class TestConnectivityChecks:
    def test_connected_grid(self, mesh_3x3):
        assert connectivity.is_connected(mesh_3x3)
        assert len(connectivity.connected_components(mesh_3x3)) == 1

    def test_disconnected_grid(self, disconnected_mesh):
        assert not connectivity.is_connected(disconnected_mesh)
        components = connectivity.connected_components(disconnected_mesh)
        assert len(components) == 2

    def test_components_sorted_by_size(self, disconnected_mesh):
        components = connectivity.connected_components(disconnected_mesh)
        assert len(components[0]) >= len(components[-1])


class TestCountsAndDegrees:
    def test_mesh_count_of_rectangular_grid(self, mesh_3x3):
        # A 3x3 reticulated grid has 9 independent meshes.
        assert connectivity.count_independent_meshes(mesh_3x3) == 9

    def test_tree_has_zero_meshes(self):
        grid = GroundingGrid()
        grid.add(Conductor(np.array([0, 0, 0.8]), np.array([5, 0, 0.8]), 5e-3))
        grid.add(Conductor(np.array([5, 0, 0.8]), np.array([10, 0, 0.8]), 5e-3))
        mesh = discretize_grid(grid)
        assert connectivity.count_independent_meshes(mesh) == 0

    def test_node_degrees(self, mesh_3x3):
        degrees = connectivity.node_degrees(mesh_3x3)
        assert degrees.shape == (mesh_3x3.n_nodes,)
        # Corners have degree 2, interior nodes degree 4.
        assert degrees.min() == 2
        assert degrees.max() == 4

    def test_no_isolated_nodes(self, mesh_3x3):
        assert connectivity.isolated_nodes(mesh_3x3).size == 0

    def test_graph_summary_keys(self, mesh_3x3):
        summary = connectivity.graph_summary(mesh_3x3)
        assert summary["n_components"] == 1
        assert summary["n_independent_meshes"] == 9
        assert summary["max_degree"] == 4
        assert summary["mean_degree"] == pytest.approx(
            2 * mesh_3x3.n_elements / mesh_3x3.n_nodes
        )


# --------------------------------------------------------------------------- property test


@st.composite
def node_edge_lists(draw):
    """A node count and element node pairs: isolated nodes and parallel edges allowed."""
    n_nodes = draw(st.integers(min_value=0, max_value=25))
    if n_nodes == 0:
        return 0, []
    node = st.integers(min_value=0, max_value=n_nodes - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=40))
    # Repeat some edges, in either orientation, as coincident elements.
    repeats = draw(st.lists(st.sampled_from(edges), max_size=5)) if edges else []
    return n_nodes, edges + [(b, a) for a, b in repeats]


def _mesh_from_edges(n_nodes, edges):
    nodes = np.zeros((n_nodes, 3))
    elements = [
        MeshElement(
            index=k,
            p0=nodes[a],
            p1=nodes[b],
            radius=5e-3,
            conductor_index=k,
            layer=1,
            node_ids=(a, b),
        )
        for k, (a, b) in enumerate(edges)
    ]
    return Mesh(GroundingGrid(), nodes, elements)


def _bfs_components(n_nodes, edges):
    """Oracle: breadth-first search from every unvisited node in id order."""
    adjacency = {node: set() for node in range(n_nodes)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen: set[int] = set()
    components = []
    for start in range(n_nodes):
        if start in seen:
            continue
        component = {start}
        queue = deque([start])
        while queue:
            for neighbour in adjacency[queue.popleft()] - component:
                component.add(neighbour)
                queue.append(neighbour)
        seen |= component
        components.append(component)
    return sorted(components, key=len, reverse=True)


@settings(max_examples=200, deadline=None)
@given(node_edge_lists())
def test_union_find_matches_bfs_oracle(graph):
    n_nodes, edges = graph
    mesh = _mesh_from_edges(n_nodes, edges)
    expected = _bfs_components(n_nodes, edges)
    n_distinct_edges = len({frozenset(edge) for edge in edges})

    assert connectivity.connected_components(mesh) == expected
    assert connectivity.is_connected(mesh) == (len(expected) == 1)
    assert connectivity.count_independent_meshes(mesh) == (
        n_distinct_edges - n_nodes + len(expected)
    )
    summary = connectivity.graph_summary(mesh)
    assert summary["n_components"] == len(expected)
    assert summary["n_graph_edges"] == n_distinct_edges
