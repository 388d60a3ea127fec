"""Golden pin: extension values and releases on labelled object graphs.

Object :class:`~repro.graphs.graph.Graph` inputs whose insertion order
differs from the sorted-label order: permuted ``int`` labels, ``str``
labels, and mixed ``int``/``tuple`` labels that cannot be compared, so
each component falls back to the ``(type, repr)`` ordering key.  Planted
components of 17–25 vertices at p = 0.3 take the certified sandwich path
of the forest-LP core, and the grid includes fractional Δ, so every value
depends on the local vertex ids each component is solved in.  The
expected ``repr`` strings were recorded before object graphs were
converted to :class:`~repro.graphs.compact.CompactGraph` for evaluation;
a wrong id order shows here in the last bits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.extension import SpanningForestExtension
from repro.estimators import create
from repro.graphs.generators import planted_components_compact
from repro.graphs.graph import Graph
from repro.lp.forest_core import clear_solve_cache

GRID = [0.5, 1, 1.5, 2, 2.5, 3, 4, 8, 16, 32]

LABELS = {
    "int": lambda i: i,
    "str": lambda i: f"v{i}",
    "mixed": lambda i: i if i % 3 else (i, "t"),
}

GRAPHS = {
    "int": ([5, 18, 9, 21, 1], 1401),
    "str": ([23, 7, 17, 12], 1402),
    "mixed": ([19, 6, 25, 11, 2], 1403),
}


def _object_graph(name: str) -> Graph:
    """A planted graph relabelled by a random permutation, with vertices
    and edges inserted in shuffled order."""
    sizes, seed = GRAPHS[name]
    rng = np.random.default_rng(seed)
    compact = planted_components_compact(sizes, 0.3, rng)
    u, v = compact.edge_arrays()
    n = compact.number_of_vertices()
    label = LABELS[name]
    labels = [label(int(i)) for i in rng.permutation(n)]
    graph = Graph()
    for i in rng.permutation(n).tolist():
        graph.add_vertex(labels[i])
    for k in rng.permutation(u.size).tolist():
        graph.add_edge(labels[int(u[k])], labels[int(v[k])])
    return graph


GOLDEN_GRID = {
    'int': '[13.0, 26.0, 38.75, 49.0, 48.99999999999993, 49.0, 48.999999999999986, 49.0, 49.0, 49.0]',
    'mixed': '[15.25, 30.5, 45.0, 57.0, 57.4999999999999, 57.999999999999986, 58.0, 58.0, 58.0, 58.0]',
    'str': '[14.5, 29.0, 43.0, 54.0, 54.99999999999093, 55.0, 55.0, 55.0, 55.0, 55.0]',
}

GOLDEN_RELEASE = {
    ('int', 'cc', 7): '-9.591513818426428',
    ('int', 'cc', 8): '38.902245971347156',
    ('int', 'sf', 7): '55.32782802036144',
    ('int', 'sf', 8): '63.68473762416277',
    ('mixed', 'cc', 7): '-9.59151381842642',
    ('mixed', 'cc', 8): '38.902245971347156',
    ('mixed', 'sf', 7): '70.65565604072287',
    ('mixed', 'sf', 8): '71.68473762416278',
    ('str', 'cc', 7): '-10.591513818426428',
    ('str', 'cc', 8): '37.902245971347156',
    ('str', 'sf', 7): '67.65565604072287',
    ('str', 'sf', 8): '68.68473762416278',
}


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_object_extension_values_are_pinned(graph_name):
    clear_solve_cache()
    extension = SpanningForestExtension(_object_graph(graph_name))
    assert repr(extension.values_for_grid(GRID).tolist()) == GOLDEN_GRID[graph_name]


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("estimator_name", ["cc", "sf"])
def test_object_release_values_are_pinned(graph_name, estimator_name):
    graph = _object_graph(graph_name)
    clear_solve_cache()
    estimator = create(estimator_name, epsilon=1.0)
    for seed in (7, 8):
        release = estimator.release(graph, np.random.default_rng(seed))
        assert repr(release.value) == GOLDEN_RELEASE[(graph_name, estimator_name, seed)]
