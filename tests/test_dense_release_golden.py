"""Golden pin: cc and sf releases on dense planted graphs.

Components of 20–30 vertices at p = 0.3 take the certified sandwich path
(cutting planes, then column generation), so the released values depend
on every bit the forest-LP solves return.  The expected ``repr`` strings
were recorded before HiGHS was called directly instead of through
``scipy.optimize.linprog``; any change to the LP solves' output shows here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.estimators import create
from repro.graphs.generators import planted_components_compact
from repro.lp.forest_core import clear_solve_cache

GRAPHS = {
    "a": ([20, 24, 28], 1301),
    "b": ([22, 26, 30], 1302),
}

GOLDEN = {
    ("a", "cc", 7): "-27.622711049225884",
    ("a", "cc", 8): "72.92815550340332",
    ("a", "sf", 7): "81.65565604071789",
    ("a", "sf", 8): "83.68473762416278",
    ("b", "cc", 7): "-27.622711049225884",
    ("b", "cc", 8): "72.92815550340332",
    ("b", "sf", 7): "87.65565604072287",
    ("b", "sf", 8): "89.68473762416278",
}


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("estimator_name", ["cc", "sf"])
def test_dense_release_values_are_pinned(graph_name, estimator_name):
    sizes, graph_seed = GRAPHS[graph_name]
    graph = planted_components_compact(sizes, 0.3, np.random.default_rng(graph_seed))
    clear_solve_cache()
    estimator = create(estimator_name, epsilon=1.0)
    for seed in (7, 8):
        release = estimator.release(graph, np.random.default_rng(seed))
        assert repr(release.value) == GOLDEN[(graph_name, estimator_name, seed)]
