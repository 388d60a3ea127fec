"""Evaluating ``f_Δ`` — the LP over the Δ-bounded forest polytope.

Definition 3.1 of the paper: ``f_Δ(G) = max x(E)`` over vectors
``x ∈ R^E`` with

    x(e) ≥ 0                for every edge e,
    x(E[S]) ≤ |S| − 1       for every S ⊆ V with |S| ≥ 2,
    x(δ(v)) ≤ Δ             for every vertex v.

The paper proves polynomial-time evaluability via the ellipsoid method
with the Padberg–Wolsey separation oracle.  This module is the
*object-graph front end*: it splits the input into components, applies
the integral fast paths (max-degree check and Algorithm 3), and hands
every remaining component to the shared int-native evaluation core in
:mod:`repro.lp.forest_core` after canonicalizing it to local index
arrays.  The compact pipeline canonicalizes to the *same* arrays, so the
two paths agree bit-for-bit on every LP value.

Methods (all evaluate the same LP; cross-validated in the test suite):

``auto`` (default)
    Per connected component: (1) integral fast paths — if Δ is at least
    the max degree, or Algorithm 3 finds a spanning ⌊Δ⌋-forest, the
    optimum is ``n_c − 1`` exactly (Lemma 3.3, Item 1); (2) trees with
    integral Δ are solved exactly by the core's totally-unimodular DP;
    (3) components with at most ``EXACT_THRESHOLD`` vertices are solved
    *exactly* with every forest constraint materialized; (4) larger
    components get a certified sandwich: a cutting-plane outer bound
    (UB) plus a column-generation inner bound (LB, a feasible point of
    the polytope).  When the window shrinks below 1/2 and contains a
    single half-integer, the value snaps to it (every one of thousands
    of exactly-solved instances in our tests has a half-integral
    optimum; see DESIGN.md).  Otherwise the feasible LB is returned and
    the certified ``gap`` is recorded on the result.

``exhaustive``
    All ``2^n`` forest constraints, one HiGHS solve.  Exact; small
    components only.

``cutting_plane``
    The textbook lazy-constraint loop with the max-flow oracle (strict:
    raises on non-convergence).

``column_generation``
    Dantzig–Wolfe over explicit forests with Kruskal pricing
    (:mod:`repro.lp.column_generation`, the object-graph reference).

Structural facts exploited (verified by tests): ``f_Δ`` is additive
across components; the optimum can be fractional (a triangle with Δ = 1
has ``f_1 = 3/2``), so values are never rounded to integers.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from ..graphs.components import connected_components
from ..graphs.forests import _sort_key, repair_spanning_forest, spanning_forest
from ..graphs.graph import Edge, Graph, Vertex, canonical_edge
from . import forest_core
from .forest_core import EXACT_THRESHOLD, ForestLPError

__all__ = [
    "ForestLPError",
    "ForestLPResult",
    "forest_polytope_value",
    "forest_lp_component",
    "canonical_component_arrays",
    "EXACT_THRESHOLD",
]


class ForestLPResult(NamedTuple):
    """Outcome of evaluating ``f_Δ``.

    Attributes
    ----------
    value:
        The computed ``f_Δ(G)``.  Exact unless ``gap > 0``; when
        ``gap > 0`` the value is a *feasible* lower bound (so the
        underestimation property of Lemma 3.3 is preserved) and the true
        optimum lies in ``[value, value + gap]``.
    x:
        Edge weights of a feasible point attaining ``value`` (canonical
        edge → weight); integral fast paths return a 0/1 forest
        indicator.
    lp_rounds:
        Solver iterations (cutting-plane rounds or pricing rounds),
        summed across components.
    constraints_added:
        Lazily-added constraints or generated columns, summed.
    fast_path_components:
        Components resolved by an integral fast path.
    gap:
        Total certified optimality gap (0.0 when every component was
        solved exactly).
    status:
        Comma-separated component statuses (``fast-path``, ``exact``,
        ``snapped``, ``approx``).
    """

    value: float
    x: dict[Edge, float]
    lp_rounds: int
    constraints_added: int
    fast_path_components: int
    gap: float = 0.0
    status: str = ""


def canonical_component_arrays(
    component: Graph,
) -> tuple[list[Vertex], np.ndarray, np.ndarray]:
    """Canonicalize a component for the int-native core.

    Returns ``(ordered_vertices, u, v)`` where vertex ``ordered[i]`` has
    local index ``i`` (sorted labels when sortable, a deterministic
    type/repr order otherwise) and the edges are local index pairs with
    ``u < v``, sorted lexicographically.  The compact pipeline produces
    the same arrays for int-indexed graphs, which is what makes the two
    paths bit-identical.
    """
    vertices = component.vertex_list()
    try:
        ordered = sorted(vertices)  # type: ignore[type-var]
    except TypeError:
        ordered = sorted(vertices, key=_sort_key)
    index = {vert: i for i, vert in enumerate(ordered)}
    m = component.number_of_edges()
    u = np.empty(m, dtype=np.int64)
    v = np.empty(m, dtype=np.int64)
    for k, (a, b) in enumerate(component.edges()):
        ia, ib = index[a], index[b]
        if ia > ib:
            ia, ib = ib, ia
        u[k] = ia
        v[k] = ib
    order = np.lexsort((v, u))
    return ordered, u[order], v[order]


def _result_from_core(
    core: forest_core.CoreLPResult,
    ordered: list[Vertex],
    u: np.ndarray,
    v: np.ndarray,
) -> ForestLPResult:
    """Translate a core result back to labelled-edge form."""
    x = {
        canonical_edge(ordered[int(a)], ordered[int(b)]): float(w)
        for a, b, w in zip(u.tolist(), v.tolist(), core.x.tolist())
    }
    return ForestLPResult(
        core.value,
        x,
        core.lp_rounds,
        core.constraints_added,
        0,
        core.gap,
        core.status,
    )


def forest_polytope_value(
    graph: Graph,
    delta: float,
    *,
    use_fast_paths: bool = True,
    separation_tolerance: float = 1e-7,
    max_rounds: int = 60,
    method: str = "auto",
    exact_threshold: int = EXACT_THRESHOLD,
    cg_max_iterations: int = 120,
    assume_half_integral: bool = True,
) -> ForestLPResult:
    """Evaluate the Lipschitz extension ``f_Δ(G)`` (Algorithm 2).

    Parameters
    ----------
    graph:
        Input graph.
    delta:
        The Lipschitz / degree-bound parameter Δ > 0.
    use_fast_paths:
        If ``True`` (default), skip the LP for components where an
        integral optimal forest is found directly.
    separation_tolerance:
        Violations below this threshold count as satisfied.
    max_rounds:
        Cutting-plane iteration cap per component.
    method:
        ``"auto"`` (default), ``"exhaustive"``, ``"cutting_plane"``, or
        ``"column_generation"`` — see the module docstring.
    exact_threshold:
        ``auto`` mode: component size up to which the exhaustive exact
        formulation is used.
    cg_max_iterations:
        ``auto``/``column_generation``: pricing-round cap.
    assume_half_integral:
        ``auto`` mode: permit snapping a sub-half-unit certified window
        to its unique half-integer (integral Δ only).  Disable for fully agnostic output
        (the certified ``gap`` is then reported instead).

    Returns
    -------
    ForestLPResult
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    total_value = 0.0
    combined_x: dict[Edge, float] = {}
    lp_rounds = 0
    constraints_added = 0
    fast_path_components = 0
    total_gap = 0.0
    statuses: list[str] = []
    for component in connected_components(graph):
        sub = graph.induced_subgraph(component)
        if sub.number_of_edges() == 0:
            continue
        result = forest_lp_component(
            sub,
            delta,
            use_fast_paths=use_fast_paths,
            separation_tolerance=separation_tolerance,
            max_rounds=max_rounds,
            method=method,
            exact_threshold=exact_threshold,
            cg_max_iterations=cg_max_iterations,
            assume_half_integral=assume_half_integral,
        )
        total_value += result.value
        combined_x.update(result.x)
        lp_rounds += result.lp_rounds
        constraints_added += result.constraints_added
        fast_path_components += result.fast_path_components
        total_gap += result.gap
        statuses.append(result.status)
    return ForestLPResult(
        total_value,
        combined_x,
        lp_rounds,
        constraints_added,
        fast_path_components,
        total_gap,
        ",".join(statuses),
    )


def forest_lp_component(
    component: Graph,
    delta: float,
    *,
    use_fast_paths: bool = True,
    separation_tolerance: float = 1e-7,
    max_rounds: int = 60,
    method: str = "auto",
    exact_threshold: int = EXACT_THRESHOLD,
    cg_max_iterations: int = 120,
    assume_half_integral: bool = True,
) -> ForestLPResult:
    """Evaluate ``f_Δ`` on a single connected component with edges."""
    n = component.number_of_vertices()
    target = float(n - 1)

    if use_fast_paths:
        forest = _integral_certificate(component, delta)
        if forest is not None:
            x = {canonical_edge(a, b): 1.0 for a, b in forest.edges()}
            return ForestLPResult(target, x, 0, 0, 1, 0.0, "fast-path")

    if method == "column_generation":
        from .column_generation import forest_value_column_generation

        cg = forest_value_column_generation(
            component, delta, max_iterations=cg_max_iterations
        )
        status = "exact" if cg.gap <= 1e-6 else "approx"
        return ForestLPResult(
            min(max(cg.value, 0.0), target),
            cg.x,
            cg.iterations,
            cg.columns,
            0,
            cg.gap,
            status,
        )

    ordered, u, v = canonical_component_arrays(component)
    if method == "exhaustive":
        core = forest_core.exhaustive_component_value(n, u, v, delta)
        core = core._replace(value=min(core.value, target))
        return _result_from_core(core, ordered, u, v)
    if method == "cutting_plane":
        core = forest_core.cutting_plane_component(
            n, u, v, delta, separation_tolerance, max_rounds, strict=True
        )
        return _result_from_core(core, ordered, u, v)
    if method != "auto":
        raise ValueError(
            f"unknown method {method!r}; expected 'auto', 'exhaustive', "
            "'cutting_plane', or 'column_generation'"
        )
    core = forest_core.solve_component(
        n,
        u,
        v,
        delta,
        separation_tolerance=separation_tolerance,
        max_rounds=max_rounds,
        exact_threshold=exact_threshold,
        cg_max_iterations=cg_max_iterations,
        assume_half_integral=assume_half_integral,
        use_fast_paths=use_fast_paths,
    )
    return _result_from_core(core, ordered, u, v)


def _integral_certificate(component: Graph, delta: float) -> Optional[Graph]:
    """Return a spanning forest of ``component`` with max degree ≤ Δ if one
    is found cheaply, else ``None``.

    Two attempts: (1) Δ at least the maximum degree makes any spanning
    forest valid; (2) Algorithm 3 with ⌊Δ⌋ (complete whenever
    ``s(G) < ⌊Δ⌋``, opportunistic otherwise).
    """
    if delta >= component.max_degree():
        return spanning_forest(component)
    floor_delta = int(delta)
    if floor_delta >= 1:
        return repair_spanning_forest(component, floor_delta).forest
    return None
