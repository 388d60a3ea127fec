"""E11 — Lemma 3.3(2): polynomial-time evaluability of f_Δ.

Uses pytest-benchmark's actual timing machinery (several rounds) to
measure the evaluator across sizes, the LP core's solvers, and the
fast-path ablation called out in DESIGN.md.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.extension import extension_for
from repro.graphs.generators import (
    erdos_renyi,
    grid_graph,
    planted_components_compact,
    random_geometric_graph_compact,
)
from repro.lp import forest_core

from ._util import emit_table, reset_results


def _components(graph):
    """Each edge-bearing component of a :class:`CompactGraph` as the
    canonical ``(n, u, v)`` arrays of the LP core."""
    labels = graph.component_labels()
    u, v = graph.edge_arrays()
    for part in graph.component_index_sets():
        if part.size > 1:
            inside = labels[u] == part[0]
            yield part.size, np.searchsorted(part, u[inside]), np.searchsorted(
                part, v[inside]
            )


@pytest.mark.parametrize("n", [30, 60, 120])
def test_er_scaling(benchmark, n):
    """Evaluation time vs n on sparse ER graphs (Δ = 2)."""
    graph = erdos_renyi(n, 2.0 / n, np.random.default_rng(n))
    value = benchmark(lambda: extension_for(graph).value(2))
    assert value >= 0


def _auto(n, u, v):
    forest_core.clear_solve_cache()  # time the solve, not the memo
    return forest_core.solve_component(n, u, v, 2, use_fast_paths=False, max_rounds=200)


_METHODS = {
    "auto": _auto,
    "cutting_plane": lambda n, u, v: forest_core.cutting_plane_component(
        n, u, v, 2, 1e-7, 200, strict=True
    ),
    "column_generation": lambda n, u, v: forest_core.column_generation_component(
        n, u, v, 2
    ),
}


@pytest.mark.parametrize("method", sorted(_METHODS))
def test_method_comparison(benchmark, method):
    """The LP core's solvers on one moderate component (they agree;
    timing differs)."""
    graph = planted_components_compact([24], 0.12, np.random.default_rng(3))
    [(n, u, v)] = _components(graph)
    result = benchmark(lambda: _METHODS[method](n, u, v))
    assert result.value == pytest.approx(_auto(n, u, v).value, abs=1e-4)


def test_fast_path_ablation(benchmark):
    """Fast paths vs forced LP on a grid where repair certifies Δ = 3."""
    graph = grid_graph(8, 8)
    value = benchmark(lambda: extension_for(graph).value(3))
    assert value == pytest.approx(63.0)
    slow = extension_for(graph, use_fast_paths=False).value(3)
    assert slow == pytest.approx(value, abs=1e-4)


def test_geometric_summary_table(benchmark, rng):
    """One summary table for the record: values, gaps, statuses across Δ
    on a mid-size geometric graph, every component solved by the LP core
    (no Algorithm-3 shortcut)."""
    reset_results("E11")
    graph = random_geometric_graph_compact(150, 0.08, rng)
    components = list(_components(graph))
    extension = extension_for(graph)

    def run():
        rows = []
        for delta in (1, 2, 4, 8, 16):
            results = [
                forest_core.solve_component(n, u, v, delta) for n, u, v in components
            ]
            statuses = sorted({r.status for r in results})
            rows.append(
                [delta, sum(r.value for r in results), sum(r.gap for r in results),
                 sum(r.lp_rounds for r in results), ",".join(statuses)]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_table(
        "E11",
        ["Δ", "f_Δ", "certified gap", "solver rounds", "statuses"],
        rows,
        "evaluator summary on RGG(150, 0.08)",
    )
    values = [row[1] for row in rows]
    gaps = [row[2] for row in rows]
    # Monotone in delta up to certified gaps.
    for (a, ga), (b, _gb) in zip(zip(values, gaps), list(zip(values, gaps))[1:]):
        assert a <= b + ga + 1e-6
    # The engine's values (Algorithm-3 shortcut on) lie in each window.
    for row in rows:
        assert row[1] - 1e-6 <= extension.value(row[0]) <= row[1] + row[2] + 1e-6
