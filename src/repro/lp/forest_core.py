"""Int-native evaluation core for the Δ-bounded forest LP.

Every evaluator in this module operates on a *canonical component*: a
connected graph given as ``(n, u, v)`` where vertices are the local
integers ``0..n-1`` and ``u``/``v`` are parallel int64 endpoint arrays
(``u < v`` elementwise, sorted lexicographically).  Both front ends —
the reference object-graph path (:mod:`repro.lp.forest_lp`) and the
compact pipeline (:class:`repro.core.extension.CompactSpanningForestExtension`)
— canonicalize their components to this form and call
:func:`solve_component`, so the two paths produce *bit-identical*
``f_Δ`` values by construction: same arrays in, same solver calls, same
floats out.

Evaluators (mirroring the ``auto`` strategy of ``forest_lp``):

* a **tree fast path**: on a tree (``m = n − 1``) with integral Δ the
  degree-constraint matrix is the incidence matrix of a bipartite graph,
  hence totally unimodular — the LP optimum is integral and equals the
  maximum degree-≤Δ subforest, solved exactly by a leaf-to-root DP in
  ``O(n log n)`` with no LP solve at all;
* the **exhaustive exact** formulation (every forest constraint
  materialized, bitmask-vectorized assembly) for small components;
* a **cutting-plane outer bound** with the Padberg–Wolsey min-cut
  separation oracle: every pinned edge–vertex network of one call is
  solved as a single scipy integer max flow on their disjoint union
  (capacities scaled by a power of two), falling back to the float
  :class:`~repro.flow.maxflow.FlowNetwork` when ``x`` does not scale to
  int32 exactly;
* stabilized **column generation** (Dantzig–Wolfe over explicit
  forests, Kruskal pricing with an array union-find) providing the
  feasible lower bound and a Lagrangian upper bound.

The combined ``auto`` logic — fast tree DP, exhaustive below
:data:`EXACT_THRESHOLD`, certified sandwich above it with optional
half-integral snapping for integral Δ — lives in :func:`solve_component`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .. import kernels, telemetry

from ..flow.maxflow import INFINITY, FlowNetwork
from ..graphs.compact import CompactGraph

__all__ = [
    "EXACT_THRESHOLD",
    "ForestLPError",
    "CoreLPResult",
    "solve_component",
    "tree_component_value",
    "batched_tree_values",
    "exhaustive_component_value",
    "cutting_plane_component",
    "column_generation_component",
    "violated_forest_sets",
]

EXACT_THRESHOLD = 13
"""Components up to this many vertices are solved with the exhaustive
(exact) formulation in ``auto`` mode."""

_STALL_ROUNDS = 3
_SNAP_WINDOW = 0.5 - 1e-6
_GAP_TOLERANCE = 1e-7
_SMOOTHING = 0.6


class ForestLPError(RuntimeError):
    """Raised when an LP evaluation fails to converge or the inner solver
    reports a failure."""


class CoreLPResult(NamedTuple):
    """Outcome of evaluating ``f_Δ`` on one canonical component.

    ``x`` is aligned with the input edge arrays (weight of edge ``j`` at
    position ``j``).  ``value`` is a feasible lower bound; the true
    optimum lies in ``[value, value + gap]`` (``gap == 0`` means exact).
    """

    value: float
    x: np.ndarray
    lp_rounds: int
    constraints_added: int
    gap: float
    status: str


def _as_edge_arrays(u, v) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.ascontiguousarray(u, dtype=np.int64),
        np.ascontiguousarray(v, dtype=np.int64),
    )


# ----------------------------------------------------------------------
# Auto driver
# ----------------------------------------------------------------------
# Content-addressed memo for small components.  Paper-scale sparse
# workloads (subcritical ER, planted classes, geometric dust) contain
# thousands of *identical* canonical components — the same size-3 path,
# the same size-5 blob — and each grid pass would otherwise re-solve the
# same LP thousands of times.  Keyed by the full argument tuple, so a
# hit is exactly a repeated computation; bounded in entry count (FIFO
# eviction of the oldest entry once full) AND in per-entry size (both n
# and m are capped, keeping every entry around a kilobyte, so the cache
# tops out in the low hundreds of MB even when full).
_SOLVE_CACHE: dict = {}
_SOLVE_CACHE_MAX = 100_000
_SOLVE_CACHE_MAX_N = 64
_SOLVE_CACHE_MAX_M = 96

# Always-on memo accounting (a counter bump per *lookup*, far below the
# cost of even a memoized dict probe's surrounding work); the solve
# timing histogram and span only engage under an active tracer.
_MEMO_LOOKUPS = telemetry.counter(
    "repro_lp_memo_total",
    "Content-addressed component-solve memo lookups, by result",
    labels=("result",),
)
_SOLVE_SECONDS = telemetry.histogram(
    "repro_lp_solve_seconds",
    "Wall time of uncached per-component LP solves "
    "(recorded only while tracing is enabled)",
)


def clear_solve_cache() -> None:
    """Drop every memoized component solve (frees the cache memory)."""
    _SOLVE_CACHE.clear()


def solve_component(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    delta: float,
    *,
    separation_tolerance: float = 1e-7,
    max_rounds: int = 60,
    exact_threshold: int = EXACT_THRESHOLD,
    cg_max_iterations: int = 120,
    assume_half_integral: bool = True,
    use_fast_paths: bool = True,
) -> CoreLPResult:
    """Evaluate ``f_Δ`` on one canonical connected component (``auto``).

    Strategy: tree DP when the component is a tree and Δ is integral;
    exhaustive exact up to ``exact_threshold`` vertices; otherwise a
    certified sandwich (cutting-plane outer bound, column-generation
    inner bound, optional half-integral snap for integral Δ).
    ``use_fast_paths=False`` disables the tree DP shortcut so
    differential tests can compare it against a genuinely independent LP
    evaluation.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    u, v = _as_edge_arrays(u, v)
    m = u.size
    target = float(n - 1)
    if m == 0:
        return CoreLPResult(0.0, np.zeros(0), 0, 0, 0.0, "exact")
    cache_key = None
    if n <= _SOLVE_CACHE_MAX_N and m <= _SOLVE_CACHE_MAX_M:
        cache_key = (
            n,
            u.tobytes(),
            v.tobytes(),
            float(delta),
            separation_tolerance,
            max_rounds,
            exact_threshold,
            cg_max_iterations,
            assume_half_integral,
            use_fast_paths,
        )
        hit = _SOLVE_CACHE.get(cache_key)
        if hit is not None:
            _MEMO_LOOKUPS.inc(result="hit")
            return hit
        _MEMO_LOOKUPS.inc(result="miss")
    with telemetry.span("lp.solve", n=int(n), m=int(m)) as timing:
        result = _solve_component_uncached(
            n,
            u,
            v,
            delta,
            target,
            m,
            separation_tolerance=separation_tolerance,
            max_rounds=max_rounds,
            exact_threshold=exact_threshold,
            cg_max_iterations=cg_max_iterations,
            assume_half_integral=assume_half_integral,
            use_fast_paths=use_fast_paths,
        )
    if timing.seconds is not None:
        _SOLVE_SECONDS.observe(timing.seconds)
    if cache_key is not None:
        if len(_SOLVE_CACHE) >= _SOLVE_CACHE_MAX:
            _SOLVE_CACHE.pop(next(iter(_SOLVE_CACHE)))
        _SOLVE_CACHE[cache_key] = result
    return result


def _solve_component_uncached(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    delta: float,
    target: float,
    m: int,
    *,
    separation_tolerance: float,
    max_rounds: int,
    exact_threshold: int,
    cg_max_iterations: int,
    assume_half_integral: bool,
    use_fast_paths: bool,
) -> CoreLPResult:
    if (
        use_fast_paths
        and m == n - 1
        and float(delta).is_integer()
        and _is_forest(n, u, v)
    ):
        return tree_component_value(n, u, v, int(delta))
    if n <= exact_threshold:
        return exhaustive_component_value(n, u, v, delta)

    outer = cutting_plane_component(
        n, u, v, delta, separation_tolerance, min(max_rounds, 12), strict=False
    )
    if outer.gap == 0.0:
        return outer
    upper = outer.value + outer.gap

    cg = column_generation_component(
        n,
        u,
        v,
        delta,
        max_iterations=cg_max_iterations,
        external_upper_bound=upper,
        snap_half_integral=assume_half_integral,
    )
    upper = min(upper, cg.value + cg.gap)
    lower = min(max(cg.value, 0.0), target)
    rounds = outer.lp_rounds + cg.lp_rounds
    added = outer.constraints_added + cg.constraints_added
    gap = max(upper - lower, 0.0)
    if gap <= 1e-6:
        return CoreLPResult(lower, cg.x, rounds, added, 0.0, "exact")
    # Optima are half-integral only for integral Δ (Δ = 1.5 already has
    # quarter-integral ones), so only those are snapped.
    if assume_half_integral and float(delta).is_integer():
        snapped = _unique_half_integer(lower, upper)
        if snapped is not None:
            return CoreLPResult(
                min(snapped, target), cg.x, rounds, added, 0.0, "snapped"
            )
    return CoreLPResult(lower, cg.x, rounds, added, gap, "approx")


def _unique_half_integer(lower: float, upper: float) -> Optional[float]:
    """Return the unique multiple of 1/2 in ``[lower − ε, upper + ε]`` if
    the window is narrower than 1/2, else ``None``."""
    if upper - lower >= _SNAP_WINDOW:
        return None
    eps = 1e-6
    first = np.ceil((lower - eps) * 2.0) / 2.0
    if first <= upper + eps:
        second = first + 0.5
        if second > upper + eps:
            return float(first)
    return None


def _is_forest(n: int, u: np.ndarray, v: np.ndarray) -> bool:
    """True when the edge arrays are acyclic (cheap union-find sweep)."""
    return kernels.is_forest(n, u, v)


# ----------------------------------------------------------------------
# Tree fast path: exact DP, no LP solve
# ----------------------------------------------------------------------
def tree_component_value(
    n: int, u: np.ndarray, v: np.ndarray, cap: int
) -> CoreLPResult:
    """Exact ``f_Δ`` on a forest via the degree-capped subforest DP.

    On a forest the subset constraints are implied by the box bounds, so
    the LP is a degree-constrained subgraph problem whose constraint
    matrix (a bipartite incidence matrix) is totally unimodular: the
    optimum is integral.  ``dp0[w]``/``dp1[w]`` are the best edge counts
    in the subtree of ``w`` when the edge to the parent is unused/used;
    children are merged by taking the largest positive gains up to the
    remaining capacity.  A top-down pass reconstructs one optimal
    integral subforest as the certificate ``x``.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    u, v = _as_edge_arrays(u, v)
    m = u.size
    x = np.zeros(m)
    if m == 0:
        return CoreLPResult(0.0, x, 0, 0, 0.0, "exact")

    # CSR adjacency carrying edge ids.
    endpoints = np.concatenate([u, v])
    partners = np.concatenate([v, u])
    edge_ids = np.concatenate([np.arange(m), np.arange(m)])
    order = np.argsort(endpoints, kind="stable")
    nbr = partners[order]
    nbr_edge = edge_ids[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(endpoints, minlength=n), out=indptr[1:])

    parent = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    bfs_order: list[int] = []
    roots: list[int] = []
    for root in range(n):
        if visited[root]:
            continue
        visited[root] = True
        roots.append(root)
        queue = [root]
        while queue:
            w = queue.pop()
            bfs_order.append(w)
            for k in range(indptr[w], indptr[w + 1]):
                c = int(nbr[k])
                if not visited[c]:
                    visited[c] = True
                    parent[c] = w
                    parent_edge[c] = nbr_edge[k]
                    queue.append(c)

    dp0 = [0] * n
    dp1 = [0] * n
    # Per-vertex children gains, sorted descending (ties by child index).
    gains: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for w in reversed(bfs_order):
        child_gains = gains[w]
        child_gains.sort(key=lambda item: (-item[0], item[1]))
        base = sum(dp0[c] for _, c, _ in child_gains)
        positive = [g for g, _, _ in child_gains if g > 0]
        dp0[w] = base + sum(positive[:cap])
        dp1[w] = base + sum(positive[: max(cap - 1, 0)])
        p = int(parent[w])
        if p >= 0:
            gains[p].append((dp1[w] + 1 - dp0[w], w, int(parent_edge[w])))

    # Top-down reconstruction of one optimal subforest.
    budget = [0] * n
    for root in roots:
        budget[root] = cap
    for w in bfs_order:
        take = budget[w]
        for g, c, e in gains[w]:
            if take > 0 and g > 0:
                x[e] = 1.0
                budget[c] = cap - 1
                take -= 1
            else:
                budget[c] = cap
    value = float(sum(dp0[r] for r in roots))
    return CoreLPResult(value, x, 0, 0, 0.0, "exact")


def batched_tree_values(
    n: int, u: np.ndarray, v: np.ndarray, cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """Degree-capped subforest DP over a whole forest, vectorized.

    ``(n, u, v)`` is a forest (every connected component a tree; callers
    guarantee acyclicity) over local vertices ``0..n-1``.  Returns
    ``(roots, values)``: one root per tree (its minimum-peel survivor)
    and the exact maximum number of edges of a degree-≤``cap`` subforest
    of that tree, as float64.

    This is :func:`tree_component_value` evaluated on every tree in one
    array pass instead of a Python loop per component.  The per-child
    "gain" of the reference DP is always 0 or 1 (``dp0 − dp1 ∈ {0, 1}``
    by induction), so the reference's *sum of the top-``cap`` positive
    gains* collapses to ``min(cap, #children with gain 1)`` — the whole
    bottom-up pass reduces to integer scatter-adds grouped by leaf-peel
    round.  Values are integral, so they match the reference floats
    exactly (bit-identity pinned by the differential tests).

    Complexity: O(n + m) total work — each peel round touches only the
    vertices peeled in that round plus their parents (frontier-driven,
    never a full rescan), so long paths cost O(n), not O(n²).
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    u, v = _as_edge_arrays(u, v)
    degree = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    degree = degree.astype(np.int64, copy=False)
    # nbr_sum[x] = sum of x's not-yet-peeled neighbors: once x has
    # exactly one neighbor left, nbr_sum[x] IS that neighbor's index.
    nbr_sum = np.zeros(n, dtype=np.int64)
    np.add.at(nbr_sum, u, v)
    np.add.at(nbr_sum, v, u)

    parent = np.full(n, -1, dtype=np.int64)
    is_leaf = np.zeros(n, dtype=bool)
    rounds: list[tuple[np.ndarray, np.ndarray]] = []
    frontier = np.nonzero(degree == 1)[0]
    while frontier.size:
        leaves = frontier[degree[frontier] == 1]
        if leaves.size == 0:
            break
        parents = nbr_sum[leaves]
        # Mutual-leaf pairs (a 2-vertex tree, or the final edge of a
        # path): peel only the larger endpoint so the smaller survives
        # as the tree's root — matching one deterministic orientation.
        is_leaf[leaves] = True
        keep = ~(is_leaf[parents] & (parents > leaves))
        is_leaf[leaves] = False
        peeled = leaves[keep]
        parents = parents[keep]
        parent[peeled] = parents
        degree[peeled] = 0
        np.add.at(degree, parents, -1)
        np.subtract.at(nbr_sum, parents, peeled)
        rounds.append((peeled, parents))
        frontier = np.unique(parents)

    # Bottom-up DP: every child is peeled strictly before its parent, so
    # processing rounds in peel order sees complete child aggregates.
    base = np.zeros(n, dtype=np.int64)
    cnt1 = np.zeros(n, dtype=np.int64)
    for peeled, parents in rounds:
        dp0 = base[peeled] + np.minimum(cap, cnt1[peeled])
        dp1 = base[peeled] + np.minimum(cap - 1, cnt1[peeled])
        gain = dp1 + 1 - dp0
        np.add.at(base, parents, dp0)
        np.add.at(cnt1, parents, gain)
    roots = np.nonzero(parent < 0)[0]
    values = (base[roots] + np.minimum(cap, cnt1[roots])).astype(np.float64)
    return roots, values


# ----------------------------------------------------------------------
# Exhaustive exact formulation (small components)
# ----------------------------------------------------------------------
def exhaustive_component_value(
    n: int, u: np.ndarray, v: np.ndarray, delta: float
) -> CoreLPResult:
    """Solve the LP with every forest constraint materialized.

    Subsets are enumerated as bitmasks over the ``n`` local vertices and
    the whole constraint matrix is assembled with array operations.
    """
    u, v = _as_edge_arrays(u, v)
    m = u.size
    target = float(n - 1)
    masks = np.arange(1 << n, dtype=np.int64)
    pop = np.zeros(masks.size, dtype=np.int64)
    for bit in range(n):
        pop += (masks >> bit) & 1
    keep = pop >= 2
    subsets = masks[keep]
    sizes = pop[keep]
    inc = (((subsets[:, None] >> u[None, :]) & 1) > 0) & (
        ((subsets[:, None] >> v[None, :]) & 1) > 0
    )
    touched = inc.any(axis=1)
    forest_rows = inc[touched]
    forest_rhs = (sizes[touched] - 1).astype(float)

    deg_rows_idx = np.concatenate([u, v])
    deg_cols_idx = np.concatenate([np.arange(m), np.arange(m)])
    degree_matrix = sparse.csr_matrix(
        (np.ones(2 * m), (deg_rows_idx, deg_cols_idx)), shape=(n, m)
    )
    keep_deg = np.asarray(degree_matrix.sum(axis=1)).ravel() > 0
    degree_matrix = degree_matrix[keep_deg]
    degree_rhs = np.full(int(keep_deg.sum()), float(delta))

    rows, cols = np.nonzero(forest_rows)
    forest_matrix = sparse.csr_matrix(
        (np.ones(rows.size), (rows, cols)), shape=(forest_rows.shape[0], m)
    )
    a_ub = sparse.vstack([forest_matrix, degree_matrix], format="csr")
    b_ub = np.concatenate([forest_rhs, degree_rhs])
    solution = linprog(
        -np.ones(m), A_ub=a_ub, b_ub=b_ub, bounds=(0.0, 1.0), method="highs"
    )
    if not solution.success:
        raise ForestLPError(
            f"exhaustive LP failed (status {solution.status}): {solution.message}"
        )
    x = np.maximum(np.asarray(solution.x, dtype=float), 0.0)
    value = max(-float(solution.fun), 0.0)
    return CoreLPResult(min(value, target), x, 1, 2**n, 0.0, "exact")


# ----------------------------------------------------------------------
# Padberg–Wolsey separation oracle
# ----------------------------------------------------------------------
_INT32_MAX = int(np.iinfo(np.int32).max)
_BATCH_MAX_ARCS = 1 << 20
"""A union network with more arcs than this takes the float path instead:
a bound on the batched oracle's memory (about 100 MiB at the limit), not
on its correctness."""

_SEPARATIONS = telemetry.counter(
    "repro_lp_separation_total",
    "Separation-oracle calls, by the max-flow engine that answered them",
    labels=("engine",),
)


class _SupportComponent(NamedTuple):
    """One connected component of the support ``x > tolerance``."""

    u: np.ndarray
    v: np.ndarray
    x: np.ndarray
    verts: np.ndarray


def violated_forest_sets(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    x: np.ndarray,
    tolerance: float = 1e-7,
    max_sets: int = 256,
) -> list[frozenset[int]]:
    """Return up to ``max_sets`` vertex sets with ``x(E[S]) > |S| − 1``.

    For every component of the support (edges with ``x > tolerance``, by
    ascending root) and every vertex ``w`` of it in ascending order, one
    edge–vertex network is pinned at ``w``: source → edge node at
    capacity ``x_e``, edge node → both endpoints uncapped, every vertex
    but ``w`` → sink at capacity 1.  When its max flow leaves excess
    ``x(E_c) − flow > tolerance``, the vertices on the source side of the
    minimal min cut, plus ``w``, form a violated set.  Sets are returned
    in that walk order without repeats.

    All those networks are solved together, as one integer max flow on
    their disjoint union (shared source and sink), with capacities scaled
    by a power of two ``2^k``.  The union's minimal min cut restricted to
    one copy is that copy's own minimal min cut, so one residual
    reachability pass from the source yields every copy's source side.
    ``k`` is the largest exponent at which every capacity, the uncapped
    arcs and the union's total flow fit in int32.  When ``x · 2^k`` is
    integral on the support, the integer network is exactly the float
    one and the sets are those of the float oracle; any other ``x`` (and
    any union above ``_BATCH_MAX_ARCS`` arcs) takes the float path, one
    :class:`~repro.flow.maxflow.FlowNetwork` per copy.  Each call bumps
    ``repro_lp_separation_total`` with the engine that answered it.
    """
    u, v = _as_edge_arrays(u, v)
    components = _support_components(n, u, v, np.asarray(x, dtype=float), tolerance)
    scale = _dyadic_scale(components)
    if scale is None:
        _SEPARATIONS.inc(engine="float")
        candidates = _float_cuts(n, components, tolerance)
    else:
        _SEPARATIONS.inc(engine="batched")
        candidates = _batched_cuts(components, scale, tolerance)
    violated: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for chosen in candidates:
        if len(chosen) >= 2 and chosen not in seen:
            seen.add(chosen)
            violated.append(chosen)
            if len(violated) >= max_sets:
                break
    return violated


def _support_components(
    n: int, u: np.ndarray, v: np.ndarray, x: np.ndarray, tolerance: float
) -> list[_SupportComponent]:
    """Split the support of ``x`` into components, ordered by root."""
    support = x > tolerance
    if not support.any():
        return []
    su, sv, sx = u[support], v[support], x[support]
    labels = CompactGraph.from_edge_arrays(n, su, sv).component_labels()
    edge_root = labels[su]
    order = np.argsort(edge_root, kind="stable")
    su, sv, sx = su[order], sv[order], sx[order]
    boundaries = np.nonzero(np.diff(edge_root[order]))[0] + 1
    starts = np.concatenate([[0], boundaries, [su.size]])
    components = []
    for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist()):
        cu, cv = su[lo:hi], sv[lo:hi]
        verts = np.unique(np.concatenate([cu, cv]))
        components.append(_SupportComponent(cu, cv, sx[lo:hi], verts))
    return components


def _dyadic_scale(components: list[_SupportComponent]) -> Optional[float]:
    """The scale ``2^k`` for the batched union network, or ``None`` when
    the float path must answer.

    In units of ``2^k``, each copy's flow is at most
    ``min(x(E_c), |V_c| − 1)`` and the largest capacity is that of the
    uncapped arcs, ``max x + 1``.  ``k`` is the largest exponent that
    keeps ``2^k`` times the union's total flow bound, and times that
    capacity, within int32 (``maximum_flow`` silently truncates wider
    capacities).
    """
    if not components:
        return 1.0
    arcs = sum(c.verts.size * (3 * c.x.size + c.verts.size - 1) for c in components)
    if arcs > _BATCH_MAX_ARCS:
        return None
    flow_bound = sum(
        c.verts.size * min(float(c.x.sum()), c.verts.size - 1.0) for c in components
    )
    arc_bound = max(float(c.x.max()) for c in components) + 1.0
    bound = max(flow_bound, arc_bound)
    if bound > _INT32_MAX:
        return None
    scale = 2.0 ** int(np.floor(np.log2(_INT32_MAX / bound)))
    while scale * bound > _INT32_MAX:
        scale /= 2.0
    for c in components:
        scaled = c.x * scale
        if not np.array_equal(scaled, np.floor(scaled)):
            return None
    return scale


def _float_cuts(n: int, components: list[_SupportComponent], tolerance: float):
    """Yield each violated copy's cut, one float :class:`FlowNetwork` per
    copy (packed-int labels: ``-1`` source, ``-2`` sink, ``w`` vertex,
    ``n + k`` the component's ``k``-th edge)."""
    for c in components:
        total_weight = float(c.x.sum())
        for pin in c.verts.tolist():
            network = FlowNetwork()
            for k in range(c.u.size):
                edge_node = n + k
                network.add_edge(-1, edge_node, float(c.x[k]))
                network.add_edge(edge_node, int(c.u[k]), INFINITY)
                network.add_edge(edge_node, int(c.v[k]), INFINITY)
            for w in c.verts.tolist():
                network.add_edge(int(w), -2, 0.0 if w == pin else 1.0)
            flow = network.max_flow(-1, -2)
            if total_weight - flow <= tolerance:
                continue
            source_side = network.min_cut_source_side(-1)
            yield frozenset(
                label
                for label in source_side
                if isinstance(label, int) and 0 <= label < n
            ) | frozenset([pin])


def _batched_cuts(
    components: list[_SupportComponent], scale: float, tolerance: float
):
    """Yield each violated copy's cut from one integer max flow on the
    union of every pinned copy (node 0 source, node 1 sink; a copy is its
    edge nodes followed by its vertex nodes)."""
    if not components:
        return
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    caps: list[np.ndarray] = []
    unit = int(scale)
    uncapped = int(max(float(c.x.max()) for c in components) * scale) + 1
    layout = []
    next_node = 2
    for c in components:
        m_c, n_c = c.x.size, c.verts.size
        offsets = next_node + (m_c + n_c) * np.arange(n_c, dtype=np.int64)
        next_node += (m_c + n_c) * n_c
        edge_nodes = offsets[:, None] + np.arange(m_c)
        vertex_nodes = offsets[:, None] + m_c + np.arange(n_c)
        lu = m_c + np.searchsorted(c.verts, c.u)
        lv = m_c + np.searchsorted(c.verts, c.v)
        off_pin = ~np.eye(n_c, dtype=bool)
        rows += [
            np.zeros(edge_nodes.size, dtype=np.int64),
            edge_nodes.ravel(),
            edge_nodes.ravel(),
            vertex_nodes[off_pin],
        ]
        cols += [
            edge_nodes.ravel(),
            (offsets[:, None] + lu).ravel(),
            (offsets[:, None] + lv).ravel(),
            np.ones(n_c * (n_c - 1), dtype=np.int64),
        ]
        caps += [
            np.tile((c.x * scale).astype(np.int64), n_c),
            np.full(2 * edge_nodes.size, uncapped, dtype=np.int64),
            np.full(n_c * (n_c - 1), unit, dtype=np.int64),
        ]
        layout.append((c, edge_nodes, vertex_nodes))
    data = np.concatenate(caps)
    assert 0 <= data.min() and data.max() <= _INT32_MAX
    capacity = sparse.csr_array(
        (data.astype(np.int32), (np.concatenate(rows), np.concatenate(cols))),
        shape=(next_node, next_node),
    )
    result = maximum_flow(capacity, 0, 1)
    assert result.flow_value <= _INT32_MAX
    residual = capacity - result.flow
    residual.eliminate_zeros()
    reached = np.zeros(next_node, dtype=bool)
    reached[breadth_first_order(residual, 0, return_predecessors=False)] = True
    source_flow = np.zeros(next_node, dtype=np.int64)
    lo, hi = result.flow.indptr[0], result.flow.indptr[1]
    source_flow[result.flow.indices[lo:hi]] = result.flow.data[lo:hi]
    for c, edge_nodes, vertex_nodes in layout:
        total_weight = float(c.x.sum())
        flows = source_flow[edge_nodes].sum(axis=1)
        sides = reached[vertex_nodes]
        for i, pin in enumerate(c.verts.tolist()):
            if total_weight - flows[i] / scale <= tolerance:
                continue
            yield frozenset(c.verts[sides[i]].tolist()) | frozenset([pin])


# ----------------------------------------------------------------------
# Cutting-plane loop (outer bound / strict exact)
# ----------------------------------------------------------------------
def cutting_plane_component(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    delta: float,
    separation_tolerance: float,
    max_rounds: int,
    strict: bool,
) -> CoreLPResult:
    """Lazy-constraint loop over the canonical arrays.

    Semantics match the object-path loop: oracle-certified feasibility
    gives an exact result; a stalled objective or the round cap returns
    ``value = 0`` with ``gap`` set to the last LP value (a pure outer
    bound for ``auto`` to refine), or raises when ``strict``.
    """
    u, v = _as_edge_arrays(u, v)
    m = u.size
    target = float(n - 1)
    c = -np.ones(m)
    cols = np.arange(m, dtype=np.int64)
    degree_matrix = sparse.csr_matrix(
        (np.ones(2 * m), (np.concatenate([u, v]), np.concatenate([cols, cols]))),
        shape=(n, m),
    )
    degree_rhs = np.full(n, float(delta))

    forest_sets: list[frozenset[int]] = [frozenset(range(n))]
    total_added = 0
    last_value = float("inf")
    stall = 0
    for round_number in range(1, max_rounds + 1):
        lazy_matrix, lazy_rhs = _forest_constraint_matrix(forest_sets, u, v, n)
        a_ub = sparse.vstack([degree_matrix, lazy_matrix], format="csr")
        b_ub = np.concatenate([degree_rhs, lazy_rhs])
        solution = linprog(
            c, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, 1.0), method="highs"
        )
        if not solution.success:
            raise ForestLPError(
                f"inner LP failed (status {solution.status}): {solution.message}"
            )
        lp_value = -float(solution.fun)
        x = np.maximum(np.asarray(solution.x, dtype=float), 0.0)
        violated = violated_forest_sets(
            n, u, v, x, tolerance=separation_tolerance
        )
        new_sets = [s for s in violated if s not in forest_sets]
        if not new_sets:
            value = min(max(lp_value, 0.0), target)
            return CoreLPResult(
                value, x, round_number, total_added, 0.0, "exact"
            )
        if lp_value >= last_value - 1e-9:
            stall += 1
            if stall >= _STALL_ROUNDS and not strict:
                return CoreLPResult(
                    0.0,
                    np.zeros(m),
                    round_number,
                    total_added,
                    min(lp_value, target),
                    "outer-bound",
                )
        else:
            stall = 0
        last_value = lp_value
        forest_sets.extend(new_sets)
        total_added += len(new_sets)
    if strict:
        raise ForestLPError(
            f"cutting-plane loop did not converge within {max_rounds} rounds "
            f"(n={n}, m={m}, delta={delta})"
        )
    return CoreLPResult(
        0.0, np.zeros(m), max_rounds, total_added,
        min(last_value, target), "outer-bound",
    )


def _forest_constraint_matrix(
    forest_sets: list[frozenset[int]], u: np.ndarray, v: np.ndarray, n: int
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Sparse rows for ``x(E[S]) ≤ |S| − 1``, one per set."""
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    rhs = np.empty(len(forest_sets))
    for i, subset in enumerate(forest_sets):
        rhs[i] = len(subset) - 1
        member = np.zeros(n, dtype=bool)
        member[list(subset)] = True
        inside = np.nonzero(member[u] & member[v])[0]
        rows.append(np.full(inside.size, i, dtype=np.int64))
        cols.append(inside)
    all_rows = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    all_cols = np.concatenate(cols) if cols else np.zeros(0, dtype=np.int64)
    matrix = sparse.csr_matrix(
        (np.ones(all_rows.size), (all_rows, all_cols)),
        shape=(len(forest_sets), u.size),
    )
    return matrix, rhs


# ----------------------------------------------------------------------
# Column generation (Dantzig–Wolfe, Kruskal pricing, array union-find)
# ----------------------------------------------------------------------
def _max_weight_forest_arrays(
    n: int, u: np.ndarray, v: np.ndarray, weights: np.ndarray
) -> tuple[list[int], float]:
    """Matroid-greedy maximum-weight forest (strictly positive weights).

    Dispatches to the active :mod:`repro.kernels` backend; both backends
    accumulate the float total in the identical sequential order, so the
    result is bit-identical regardless of ``REPRO_KERNEL``.
    """
    return kernels.max_weight_forest(n, u, v, weights)


def _greedy_capped_forest_arrays(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    order: list[int],
    caps: np.ndarray,
) -> tuple[list[int], np.ndarray]:
    """Greedy forest respecting per-vertex degree caps (kernel-routed)."""
    return kernels.greedy_capped_forest(n, u, v, order, caps)


def _seed_columns(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    delta: float,
    rng: np.random.Generator,
) -> list[list[int]]:
    """Initial pool: Algorithm-3 forests at several caps + capped pairs."""
    m = u.size
    seeds: list[list[int]] = [[]]
    compact = CompactGraph.from_edge_arrays(n, u, v)
    edge_index = {
        (int(a), int(b)): j for j, (a, b) in enumerate(zip(u.tolist(), v.tolist()))
    }
    maxdeg = compact.max_degree()
    for cap in range(1, min(int(delta) + 2, maxdeg) + 1):
        forest = compact.repair_spanning_forest(cap).forest
        if forest is not None:
            fu, fv = forest.edge_arrays()
            seeds.append(
                [edge_index[(int(a), int(b))] for a, b in zip(fu.tolist(), fv.tolist())]
            )
    budget = max(int(round(2 * delta)), 1)
    for _ in range(12):
        order = [int(j) for j in rng.permutation(m)]
        cap1 = int(rng.integers(1, budget + 1))
        first, degree = _greedy_capped_forest_arrays(
            n, u, v, order, np.full(n, cap1, dtype=np.int64)
        )
        seeds.append(first)
        residual = np.maximum(budget - degree, 0)
        order2 = [int(j) for j in rng.permutation(m)]
        second, _ = _greedy_capped_forest_arrays(n, u, v, order2, residual)
        seeds.append(second)
    return seeds


def column_generation_component(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    delta: float,
    *,
    max_iterations: int = 120,
    tolerance: float = _GAP_TOLERANCE,
    external_upper_bound: Optional[float] = None,
    snap_half_integral: bool = False,
    seed: int = 0,
) -> CoreLPResult:
    """Stabilized column generation on the canonical arrays.

    Returns a :class:`CoreLPResult` whose ``value`` is the best feasible
    master objective (a certified lower bound), ``gap`` the certified
    window against the best Lagrangian/external upper bound, and
    ``constraints_added`` the column count.  The upper bound is encoded
    as ``value + gap``.  ``snap_half_integral`` stops early once the
    window holds a single half-integer; it is honoured only for integral
    Δ, the only case where optima are half-integral.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    u, v = _as_edge_arrays(u, v)
    m = u.size
    if m == 0:
        return CoreLPResult(0.0, np.zeros(0), 0, 0, 0.0, "exact")
    target = float(n - 1)
    rng = np.random.default_rng(seed)
    snap = snap_half_integral and float(delta).is_integer()

    columns: list[list[int]] = []
    seen: set[frozenset[int]] = set()
    for column in _seed_columns(n, u, v, delta, rng):
        key = frozenset(column)
        if key not in seen:
            seen.add(key)
            columns.append(column)

    best_upper = min(
        external_upper_bound if external_upper_bound is not None else target,
        target,
    )
    lam_best = np.zeros(n)
    best_solution: Optional[tuple[float, np.ndarray]] = None

    for iteration in range(1, max_iterations + 1):
        master = _solve_master(columns, u, v, n, delta)
        lower = -float(master.fun)
        if len(columns) > 500:
            columns = _prune_columns(columns, master.x)
            seen = {frozenset(column) for column in columns}
            master = _solve_master(columns, u, v, n, delta)
            lower = -float(master.fun)
        if best_solution is None or lower > best_solution[0]:
            best_solution = (lower, _mixture(master.x, columns, m))
        lam = -np.minimum(master.ineqlin.marginals, 0.0)
        improved = False
        for lam_candidate in (lam, _SMOOTHING * lam_best + (1 - _SMOOTHING) * lam):
            weights = 1.0 - lam_candidate[u] - lam_candidate[v]
            chosen, value = _max_weight_forest_arrays(n, u, v, weights)
            upper = float(delta) * float(lam_candidate.sum()) + value
            if upper < best_upper:
                best_upper = upper
                lam_best = np.asarray(lam_candidate).copy()
            improved |= _add_column(chosen, seen, columns)
            # Complementary capped forest: a high-value partner column.
            degree = np.zeros(n, dtype=np.int64)
            for j in chosen:
                degree[u[j]] += 1
                degree[v[j]] += 1
            budget = max(int(round(2 * delta)), 1)
            residual = np.maximum(budget - degree, 0)
            order = [int(j) for j in np.argsort(-weights, kind="stable")]
            partner, _ = _greedy_capped_forest_arrays(n, u, v, order, residual)
            improved |= _add_column(partner, seen, columns)
            for _ in range(2):
                perturbed = weights + rng.normal(scale=1e-3, size=m)
                extra, _ = _max_weight_forest_arrays(n, u, v, perturbed)
                improved |= _add_column(extra, seen, columns)
        gap = max(best_upper - lower, 0.0)
        if gap <= tolerance:
            return CoreLPResult(
                lower, best_solution[1], iteration, len(columns), 0.0, "exact"
            )
        if snap and _unique_half_integer(lower, best_upper) is not None:
            return CoreLPResult(
                lower, best_solution[1], iteration, len(columns), gap, "approx"
            )
        if not improved:
            # No new columns at either dual point: the master is optimal
            # over all forests; the residual gap is dual-side only.
            return CoreLPResult(
                lower, best_solution[1], iteration, len(columns), 0.0, "exact"
            )
    lower, x = best_solution if best_solution else (0.0, np.zeros(m))
    return CoreLPResult(
        lower, x, max_iterations, len(columns),
        max(best_upper - lower, 0.0), "approx",
    )


def _prune_columns(columns: list[list[int]], mu: np.ndarray) -> list[list[int]]:
    """Keep active columns plus the most recent 150 generated ones."""
    active = [col for col, weight in zip(columns, mu) if weight > 1e-12]
    recent = columns[-150:]
    merged: list[list[int]] = []
    seen: set[frozenset[int]] = set()
    for column in active + recent + [[]]:
        key = frozenset(column)
        if key not in seen:
            seen.add(key)
            merged.append(column)
    return merged


def _add_column(
    column: list[int], seen: set[frozenset[int]], columns: list[list[int]]
) -> bool:
    key = frozenset(column)
    if key in seen:
        return False
    seen.add(key)
    columns.append(column)
    return True


def _mixture(mu: np.ndarray, columns: list[list[int]], m: int) -> np.ndarray:
    """The feasible edge-weight vector of the master's optimal mixture."""
    x = np.zeros(m)
    for mu_f, column in zip(mu, columns):
        if mu_f <= 1e-12:
            continue
        for j in column:
            x[j] += float(mu_f)
    return x


def _solve_master(
    columns: list[list[int]],
    u: np.ndarray,
    v: np.ndarray,
    n: int,
    delta: float,
):
    """Solve the restricted master LP and return the scipy result."""
    k = len(columns)
    c = np.array([-float(len(column)) for column in columns])
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    data: list[np.ndarray] = []
    for col_index, column in enumerate(columns):
        if not column:
            continue
        idx = np.asarray(column, dtype=np.int64)
        counts = np.bincount(
            np.concatenate([u[idx], v[idx]]), minlength=n
        )
        touched = np.nonzero(counts)[0]
        rows.append(touched)
        cols.append(np.full(touched.size, col_index, dtype=np.int64))
        data.append(counts[touched].astype(float))
    if rows:
        a_ub = sparse.csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, k),
        )
    else:
        a_ub = sparse.csr_matrix((n, k))
    b_ub = np.full(n, float(delta))
    a_eq = np.ones((1, k))
    solution = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=np.array([1.0]),
        bounds=(0.0, None),
        method="highs",
    )
    if not solution.success:
        raise ForestLPError(f"master LP failed: {solution.message}")
    return solution
