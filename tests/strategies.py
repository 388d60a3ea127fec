"""Shared hypothesis strategies, deterministic graph corpora and the
canonical LP-core input of an object graph."""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import strategies as st

from repro.graphs.components import connected_components
from repro.graphs.graph import Graph
from repro.graphs import generators


def canonical_components(graph: Graph) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Each edge-bearing component of ``graph`` (sortable labels) as the
    ``(n, u, v)`` arrays the forest-LP core takes: vertices numbered by
    sorted label, ``u < v``, edges lexsorted.

    Built with plain Python, independently of the conversion in
    :mod:`repro.core.extension`, so tests can hold the two against each
    other.
    """
    out = []
    for members in connected_components(graph):
        index = {vert: i for i, vert in enumerate(sorted(members))}
        pairs = sorted(
            tuple(sorted((index[a], index[b])))
            for a, b in graph.induced_subgraph(members).edges()
        )
        if pairs:
            u, v = np.array(pairs, dtype=np.int64).T
            out.append((len(index), u, v))
    return out


@st.composite
def small_graphs(draw, min_vertices: int = 1, max_vertices: int = 7) -> Graph:
    """A random labelled graph on at most ``max_vertices`` vertices."""
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        edges = draw(
            st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
        )
    else:
        edges = []
    return Graph(vertices=range(n), edges=edges)


@st.composite
def small_graphs_with_edge(draw, max_vertices: int = 7) -> Graph:
    """A random graph guaranteed to contain at least one edge."""
    n = draw(st.integers(2, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    forced = draw(st.sampled_from(pairs))
    extra = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    edges = set(extra) | {forced}
    return Graph(vertices=range(n), edges=edges)


def deterministic_corpus() -> list[tuple[str, Graph]]:
    """A fixed set of structurally diverse small graphs used across
    parametrized tests (names keep failures readable)."""
    return [
        ("single_vertex", generators.empty_graph(1)),
        ("edgeless_5", generators.empty_graph(5)),
        ("single_edge", Graph(vertices=range(2), edges=[(0, 1)])),
        ("path_6", generators.path_graph(6)),
        ("cycle_5", generators.cycle_graph(5)),
        ("star_4", generators.star_graph(4)),
        ("double_star", generators.double_star_graph(3, 2)),
        ("triangle", generators.complete_graph(3)),
        ("k5", generators.complete_graph(5)),
        ("k23", generators.complete_bipartite_graph(2, 3)),
        ("grid_3x3", generators.grid_graph(3, 3)),
        ("caterpillar", generators.caterpillar_graph(3, 2)),
        ("star_plus_isolated", generators.star_plus_isolated(3, 3)),
        ("star_of_stars", generators.star_of_stars(3, 2)),
        ("two_triangles", generators.disjoint_union(
            [generators.complete_graph(3), generators.complete_graph(3)]
        )),
    ]
