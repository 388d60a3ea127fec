"""Tests for the batched/vectorised kernel layer (PR-9 tentpole).

Two contracts:

* ``repro.kernels`` backend dispatch — ``REPRO_KERNEL`` selects numpy
  (default) or numba, unknown/unavailable backends fail loudly, and
  when numba *is* importable both backends are bit-identical on the
  shared kernel surface.
* the batched Algorithm-3 tree path in the extension engine — with
  ``batched_certificates`` on (the default) every extension value is
  bit-identical to the legacy per-component loop, pinned by a
  hypothesis differential plus the deterministic corpus.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.core.extension import extension_for
from repro.graphs.compact import as_compact
from repro.graphs.generators import erdos_renyi, random_forest_compact
from repro.lp.forest_core import batched_tree_values, tree_component_value

from .strategies import deterministic_corpus, small_graphs

_CORPUS = deterministic_corpus()
_GRID = [1.0, 2.0, 3.0, 4.0, 8.0]


@pytest.fixture(autouse=True)
def _fresh_backend(monkeypatch):
    """Each test resolves the backend from its own environment."""
    kernels._reset_backend_cache()
    yield
    kernels._reset_backend_cache()


# ----------------------------------------------------------------------
# Backend dispatch
# ----------------------------------------------------------------------
def test_default_backend_is_numpy(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    kernels._reset_backend_cache()
    assert kernels.kernel_backend() == "numpy"


def test_explicit_numpy_backend(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "numpy")
    kernels._reset_backend_cache()
    assert kernels.kernel_backend() == "numpy"


def test_unknown_backend_fails_loudly(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "cuda")
    kernels._reset_backend_cache()
    with pytest.raises(kernels.KernelBackendError, match="cuda"):
        kernels.kernel_backend()


def test_numba_backend_requires_numba(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "numba")
    kernels._reset_backend_cache()
    try:
        import numba  # noqa: F401
    except ImportError:
        with pytest.raises(kernels.KernelBackendError, match="numba"):
            kernels.kernel_backend()
    else:
        assert kernels.kernel_backend() == "numba"


def _kernel_surface(backend_env, monkeypatch, graph):
    monkeypatch.setenv("REPRO_KERNEL", backend_env)
    kernels._reset_backend_cache()
    compact = as_compact(graph)
    n = compact.number_of_vertices()
    u, v = compact.edge_arrays()
    rng = np.random.default_rng(7)
    weights = rng.random(u.size)
    return (
        kernels.connected_component_labels(n, u, v),
        kernels.is_forest(n, u, v),
        kernels.max_weight_forest(n, u, v, weights),
        kernels.greedy_capped_forest(n, u, v, 2),
    )


@pytest.mark.parametrize(
    "name,graph", _CORPUS, ids=[name for name, _ in _CORPUS]
)
def test_numba_matches_numpy_on_kernel_surface(name, graph, monkeypatch):
    pytest.importorskip("numba")
    base = _kernel_surface("numpy", monkeypatch, graph)
    fast = _kernel_surface("numba", monkeypatch, graph)
    for a, b in zip(base, fast):
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b)
        else:
            assert a == b


# ----------------------------------------------------------------------
# Batched tree DP vs the recursive reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cap", [1, 2, 3, 5])
@pytest.mark.parametrize(
    "name,graph", _CORPUS, ids=[name for name, _ in _CORPUS]
)
def test_batched_tree_values_forest_components(name, graph, cap):
    compact = as_compact(graph)
    labels = compact.component_labels()
    u, v = compact.edge_arrays()
    edge_labels = labels[u] if u.size else labels[:0]
    tree_roots = []
    for root in np.unique(labels):
        verts = np.nonzero(labels == root)[0]
        mask = edge_labels == root
        if np.count_nonzero(mask) == verts.size - 1:
            tree_roots.append((root, verts, mask))
    if not tree_roots:
        pytest.skip("corpus entry has no tree component")

    keep = np.zeros(u.size, dtype=bool)
    tree_vertex = np.zeros(compact.number_of_vertices(), dtype=bool)
    for _, verts, mask in tree_roots:
        keep |= mask
        tree_vertex[verts] = True
    # Restrict to the forest induced by the tree components; the DP is
    # defined on forests only.
    roots, values = batched_tree_values(
        compact.number_of_vertices(), u[keep], v[keep], cap
    )
    got = dict(zip(roots.tolist(), values.tolist()))

    for root, verts, mask in tree_roots:
        local = {int(g): i for i, g in enumerate(verts)}
        lu = np.array([local[int(x)] for x in u[mask]], dtype=np.int64)
        lv = np.array([local[int(x)] for x in v[mask]], dtype=np.int64)
        expected = tree_component_value(verts.size, lu, lv, cap).value
        batched_roots = [
            r for r in got if tree_vertex[r] and labels[r] == root
        ]
        assert len(batched_roots) == 1
        assert got[batched_roots[0]] == expected


@pytest.mark.parametrize("cap", [1, 2, 4])
def test_batched_tree_values_random_forest(cap):
    rng = np.random.default_rng(20230808)
    graph = random_forest_compact(300, 17, rng)
    u, v = graph.edge_arrays()
    roots, values = batched_tree_values(300, u, v, cap)
    assert roots.size == 17

    labels = graph.component_labels()
    for root, value in zip(roots.tolist(), values.tolist()):
        verts = np.nonzero(labels == labels[root])[0]
        mask = labels[u] == labels[root]
        local = {int(g): i for i, g in enumerate(verts)}
        lu = np.array([local[int(x)] for x in u[mask]], dtype=np.int64)
        lv = np.array([local[int(x)] for x in v[mask]], dtype=np.int64)
        assert value == tree_component_value(
            verts.size, lu, lv, cap
        ).value


# ----------------------------------------------------------------------
# Batched extension path vs legacy per-component loop
# ----------------------------------------------------------------------
def _grid_values(graph, batched: bool) -> np.ndarray:
    ext = extension_for(as_compact(graph), batched_certificates=batched)
    return np.asarray(ext.values_for_grid(_GRID))


@pytest.mark.parametrize(
    "name,graph", _CORPUS, ids=[name for name, _ in _CORPUS]
)
def test_batched_extension_matches_legacy_corpus(name, graph):
    assert np.array_equal(_grid_values(graph, True),
                          _grid_values(graph, False))


@settings(max_examples=60, deadline=None)
@given(graph=small_graphs(max_vertices=9))
def test_batched_extension_matches_legacy_hypothesis(graph):
    assert np.array_equal(_grid_values(graph, True),
                          _grid_values(graph, False))


def test_batched_extension_matches_legacy_random_forest():
    rng = np.random.default_rng(42)
    graph = random_forest_compact(5000, 173, rng)
    batched = np.asarray(
        extension_for(graph).values_for_grid(_GRID)
    )
    legacy = np.asarray(
        extension_for(graph, batched_certificates=False)
        .values_for_grid(_GRID)
    )
    assert np.array_equal(batched, legacy)


def test_random_forest_compact_is_forest():
    rng = np.random.default_rng(3)
    for n, trees in [(1, 1), (10, 3), (500, 20), (1000, 1000)]:
        graph = random_forest_compact(n, trees, rng)
        assert graph.number_of_vertices() == n
        assert graph.number_of_connected_components() == trees
        assert graph.number_of_edges() == n - trees
        u, v = graph.edge_arrays()
        assert kernels.is_forest(n, u, v)


def test_backend_gauge_reports_backend(monkeypatch):
    from repro import telemetry

    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    kernels._reset_backend_cache()
    kernels.kernel_backend()
    snap = telemetry.snapshot()
    value = telemetry.counter_value(
        snap, "repro_kernel_backend_info", backend="numpy"
    )
    assert value == 1.0


# ----------------------------------------------------------------------
# numpy backend's list-based loops vs the object union-find they replaced
# ----------------------------------------------------------------------
class _IntUnionFind:
    """Reference: the array union-find (path halving, union by min root)
    the numpy backend's greedy loops used before they were inlined."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


def _reference_is_forest(n, u, v):
    uf = _IntUnionFind(n)
    return all(uf.union(int(a), int(b)) for a, b in zip(u.tolist(), v.tolist()))


def _reference_max_weight_forest(n, u, v, weights):
    uf = _IntUnionFind(n)
    chosen, total = [], 0.0
    for j in np.argsort(-weights, kind="stable").tolist():
        w = weights[j]
        if w <= 0:
            break
        if uf.union(int(u[j]), int(v[j])):
            chosen.append(int(j))
            total += float(w)
    return chosen, total


def _reference_greedy_capped_forest(n, u, v, order, caps):
    uf = _IntUnionFind(n)
    degree = np.zeros(n, dtype=np.int64)
    chosen = []
    for j in order:
        a, b = int(u[j]), int(v[j])
        if degree[a] < caps[a] and degree[b] < caps[b] and uf.union(a, b):
            chosen.append(j)
            degree[a] += 1
            degree[b] += 1
    return chosen, degree


def test_max_weight_forest_is_optimal_on_small_graphs():
    """Matroid greedy: no forest outweighs it (brute force, n = 6)."""
    rng = np.random.default_rng(9)
    for _ in range(20):
        compact = as_compact(erdos_renyi(6, 0.5, rng))
        u, v = compact.edge_arrays()
        if not u.size:
            continue
        weights = rng.normal(size=u.size)
        chosen, total = kernels.max_weight_forest(6, u, v, weights)
        assert weights[chosen].min(initial=1.0) > 0
        best = 0.0
        for k in range(1, u.size + 1):
            for subset in itertools.combinations(range(u.size), k):
                picked = list(subset)
                if _reference_is_forest(6, u[picked], v[picked]):
                    best = max(best, float(weights[picked].sum()))
        assert total == pytest.approx(best, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(graph=small_graphs(min_vertices=2, max_vertices=30), seed=st.integers(0, 2**16))
def test_numpy_greedy_loops_match_union_find_reference(graph, seed):
    compact = as_compact(graph)
    n = compact.number_of_vertices()
    u, v = compact.edge_arrays()
    rng = np.random.default_rng(seed)
    order = [int(j) for j in rng.permutation(u.size)]
    caps = rng.integers(0, 4, size=n).astype(np.int64)
    weights = rng.normal(size=u.size)

    assert kernels.is_forest(n, u, v) == _reference_is_forest(n, u, v)
    chosen, total = kernels.max_weight_forest(n, u, v, weights)
    ref_chosen, ref_total = _reference_max_weight_forest(n, u, v, weights)
    assert chosen == ref_chosen
    assert total.hex() == ref_total.hex()
    chosen, degree = kernels.greedy_capped_forest(n, u, v, order, caps)
    ref_chosen, ref_degree = _reference_greedy_capped_forest(n, u, v, order, caps)
    assert chosen == ref_chosen
    assert degree.dtype == ref_degree.dtype
    assert np.array_equal(degree, ref_degree)
    if chosen:
        picked = np.asarray(chosen, dtype=np.int64)
        assert kernels.is_forest(n, u[picked], v[picked])
