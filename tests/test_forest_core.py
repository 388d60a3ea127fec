"""Tests for the int-native forest-LP core shared by both pipelines."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.flow.maxflow import INFINITY, FlowNetwork
from repro.graphs.compact import CompactGraph
from repro.graphs.generators import (
    caterpillar_graph,
    complete_graph,
    path_graph,
    random_tree,
    star_graph,
)
from repro.lp import forest_core
from repro.lp.forest_lp import canonical_component_arrays, forest_polytope_value


def _arrays(graph):
    _, u, v = canonical_component_arrays(graph)
    return graph.number_of_vertices(), u, v


def _reference_violated_sets(n, u, v, x, tolerance=1e-7, max_sets=256):
    """The separation oracle as one float :class:`FlowNetwork` per pinned
    vertex: the specification the batched oracle must reproduce."""
    x = np.asarray(x, dtype=float)
    support = x > tolerance
    if not support.any():
        return []
    su, sv, sx, sid = u[support], v[support], x[support], np.nonzero(support)[0]
    labels = CompactGraph.from_edge_arrays(n, su, sv).component_labels()
    violated, seen = [], set()
    for root in np.unique(labels[su]).tolist():
        inside = labels[su] == root
        cu, cv, cx, cid = su[inside], sv[inside], sx[inside], sid[inside]
        verts = np.unique(np.concatenate([cu, cv])).tolist()
        for pin in verts:
            network = FlowNetwork()
            for a, b, weight, j in zip(cu.tolist(), cv.tolist(), cx, cid.tolist()):
                network.add_edge(-1, n + j, float(weight))
                network.add_edge(n + j, a, INFINITY)
                network.add_edge(n + j, b, INFINITY)
            for w in verts:
                network.add_edge(w, -2, 0.0 if w == pin else 1.0)
            if float(cx.sum()) - network.max_flow(-1, -2) <= tolerance:
                continue
            side = network.min_cut_source_side(-1)
            chosen = frozenset(
                w for w in side if isinstance(w, int) and 0 <= w < n
            ) | {pin}
            if len(chosen) >= 2 and chosen not in seen:
                seen.add(chosen)
                violated.append(chosen)
                if len(violated) >= max_sets:
                    return violated
    return violated


def _connected_graph(n, p, rng):
    """G(n, p) plus the path 0-1-...-(n-1), as canonical edge arrays."""
    iu, iv = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < p
    keep[iv == iu + 1] = True
    return iu[keep].astype(np.int64), iv[keep].astype(np.int64)


def _separation_case(seed, p):
    """A random connected graph (n ≤ 20), an ``x`` on its edges and a
    ``max_sets`` that often truncates.

    ``x`` is dyadic (batched path), uniform floats or a column-generation
    mixture (float path); zeroing the edges that leave a random vertex
    subset splits the support into several components.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 21))
    u, v = _connected_graph(n, p, rng)
    kind = rng.integers(3)
    if kind == 0:
        bits = int(rng.integers(0, 21))
        x = rng.integers(0, 2**bits + 1, size=u.size) / 2.0**bits
    elif kind == 1:
        x = rng.random(u.size)
    else:
        x = forest_core.column_generation_component(
            n, u, v, int(rng.integers(1, 4)), max_iterations=int(rng.integers(1, 5))
        ).x
        # Inflate so the mixture (a feasible point) violates some sets.
        x = np.minimum(x * rng.choice([1.0, 1.5, 3.0]), 1.0)
    if rng.random() < 0.5:
        side = rng.random(n) < 0.5
        x = np.where(side[u] == side[v], x, 0.0)
    return n, u, v, x, int(rng.choice([1, 2, 3, 256]))


def _separations(engine):
    return telemetry.counter_value(
        telemetry.snapshot(), "repro_lp_separation_total", engine=engine
    )


class TestTreeDP:
    @given(n=st.integers(2, 40), delta=st.integers(1, 4), seed=st.integers(0, 500))
    @settings(max_examples=60)
    def test_matches_exhaustive_on_random_trees(self, n, delta, seed):
        """On trees the TU property makes the LP integral; the DP must
        equal the exhaustive LP optimum exactly."""
        tree = random_tree(n, np.random.default_rng(seed))
        count, u, v = _arrays(tree)
        dp = forest_core.tree_component_value(count, u, v, delta)
        if count <= forest_core.EXACT_THRESHOLD:
            exact = forest_core.exhaustive_component_value(count, u, v, delta)
            assert dp.value == pytest.approx(exact.value, abs=1e-6)
        # The certificate is a feasible degree-bounded subforest.
        chosen = dp.x > 0.5
        degrees = np.bincount(
            np.concatenate([u[chosen], v[chosen]]), minlength=count
        )
        assert degrees.max(initial=0) <= delta
        assert chosen.sum() == dp.value

    def test_star_clips_at_delta(self):
        count, u, v = _arrays(star_graph(6))
        for delta in range(1, 8):
            result = forest_core.tree_component_value(count, u, v, delta)
            assert result.value == pytest.approx(min(delta, 6))

    def test_caterpillar_known_value(self):
        # Spine of 3, 2 legs each: delta=1 yields a maximum matching.
        g = caterpillar_graph(3, 2)
        count, u, v = _arrays(g)
        result = forest_core.tree_component_value(count, u, v, 1)
        exact = forest_polytope_value(g, 1, use_fast_paths=False).value
        assert result.value == pytest.approx(exact)

    def test_rejects_cyclic_input_via_driver(self):
        """solve_component must not route a non-forest with m == n−1
        (possible only for disconnected misuse) into the DP."""
        # Triangle + isolated vertex: n=4, m=3 == n-1 but cyclic.
        u = np.array([0, 0, 1], dtype=np.int64)
        v = np.array([1, 2, 2], dtype=np.int64)
        result = forest_core.solve_component(4, u, v, 1)
        assert result.value == pytest.approx(1.5)


class TestSolveComponent:
    @given(n=st.integers(3, 9), delta=st.integers(1, 4))
    @settings(max_examples=30)
    def test_complete_graph_matches_object_path(self, n, delta):
        g = complete_graph(n)
        count, u, v = _arrays(g)
        core = forest_core.solve_component(count, u, v, delta)
        reference = forest_polytope_value(g, delta, use_fast_paths=False)
        assert core.value == pytest.approx(reference.value, abs=1e-6)

    def test_large_component_certified(self):
        g = complete_graph(16)  # above EXACT_THRESHOLD: sandwich path
        count, u, v = _arrays(g)
        core = forest_core.solve_component(count, u, v, 2)
        # f_2(K_16): a Hamiltonian path achieves n-1 = 15 with max degree 2.
        assert core.value == pytest.approx(15.0, abs=1e-5)
        assert core.gap == pytest.approx(0.0, abs=1e-5)

    def test_fractional_delta_never_snaps(self):
        """Δ = 1.5 has quarter-integral optima: this graph's f_1.5 is 51/4
        (exhaustive LP), which a half-integral snap would report as 12.5."""
        iu, iv = np.triu_indices(17, 1)
        keep = [
            5, 7, 9, 12, 13, 15, 17, 18, 19, 21, 25, 27, 29, 32, 34, 35, 39,
            40, 41, 44, 45, 46, 48, 50, 52, 53, 54, 58, 59, 61, 62, 63, 64,
            65, 67, 68, 72, 73, 75, 77, 78, 79, 80, 82, 83, 85, 86, 89, 90,
            91, 93, 95, 97, 98, 100, 104, 106, 107, 114, 115, 116, 117, 118,
            120, 121, 123, 124, 125, 126, 133,
        ]
        core = forest_core.solve_component(
            17, iu[keep], iv[keep], 1.5, max_rounds=1, cg_max_iterations=3
        )
        assert core.status != "snapped"
        assert core.value <= 12.75 + 1e-9 <= core.value + core.gap + 2e-9

    @given(
        n=st.integers(14, 20),
        p=st.floats(0.2, 0.9),
        seed=st.integers(0, 10**6),
        delta=st.sampled_from([1.5, 2.5]),
        rounds=st.integers(1, 3),
        cg_iterations=st.integers(1, 5),
    )
    @settings(max_examples=25)
    def test_fractional_delta_statuses(
        self, n, p, seed, delta, rounds, cg_iterations
    ):
        u, v = _connected_graph(n, p, np.random.default_rng(seed))
        core = forest_core.solve_component(
            n, u, v, delta, max_rounds=rounds, cg_max_iterations=cg_iterations
        )
        assert core.status in ("exact", "approx")

    def test_invalid_delta(self):
        with pytest.raises(ValueError, match="positive"):
            forest_core.solve_component(
                2, np.array([0]), np.array([1]), 0
            )


class TestSeparationOracle:
    @given(seed=st.integers(0, 10**6), p=st.floats(0.15, 0.9))
    @settings(max_examples=80)
    def test_matches_float_reference(self, seed, p):
        n, u, v, x, max_sets = _separation_case(seed, p)
        got = forest_core.violated_forest_sets(n, u, v, x, max_sets=max_sets)
        assert got == _reference_violated_sets(n, u, v, x, max_sets=max_sets)

    @pytest.mark.parametrize(
        "x_of, engine",
        [
            (lambda m, rng: np.full(m, 1 / 16), "batched"),
            (lambda m, rng: rng.integers(1, 2**20, size=m) / 2.0**20, "float"),
        ],
    )
    def test_large_dense_component_within_int32(self, x_of, engine):
        """K_64 forces a small scale, 2^19: at x = 1/16 the union's total
        flow, 64 · 63 · 2^19, is 98% of int32's limit, and weights on a
        2^-20 grid no longer scale to integers."""
        count, u, v = _arrays(complete_graph(64))
        x = x_of(u.size, np.random.default_rng(5))
        before = _separations(engine)
        got = forest_core.violated_forest_sets(count, u, v, x, max_sets=1)
        assert _separations(engine) == before + 1
        assert got == _reference_violated_sets(count, u, v, x, max_sets=1)
        assert len(got) == 1

    def test_scale_keeps_union_within_int32(self):
        count, u, v = _arrays(complete_graph(64))
        components = forest_core._support_components(
            count, u, v, np.full(u.size, 1 / 16), 1e-7
        )
        scale = forest_core._dyadic_scale(components)
        assert scale == 2.0**19
        # 64 pinned copies, each sending at most |V| − 1 = 63 units.
        assert 64 * 63 * scale <= np.iinfo(np.int32).max

    @pytest.mark.parametrize("eps, expected", [(2.0**-26, []), (2.0**-20, [{0, 1, 2}])])
    def test_excess_compared_with_tolerance(self, eps, expected):
        """Triangle with x(E) = 2 + eps: a cut only when eps > tolerance."""
        u = np.array([0, 0, 1], dtype=np.int64)
        v = np.array([1, 2, 2], dtype=np.int64)
        x = np.array([1.0, 0.75, 0.25 + eps])
        got = forest_core.violated_forest_sets(3, u, v, x)
        assert got == expected == _reference_violated_sets(3, u, v, x)

    def test_engine_counter(self):
        count, u, v = _arrays(complete_graph(6))
        batched, fallback = _separations("batched"), _separations("float")
        forest_core.violated_forest_sets(count, u, v, np.full(u.size, 0.375))
        assert (_separations("batched"), _separations("float")) == (
            batched + 1, fallback
        )
        forest_core.violated_forest_sets(count, u, v, np.full(u.size, 0.3))
        assert (_separations("batched"), _separations("float")) == (
            batched + 1, fallback + 1
        )

    def test_oversized_union_takes_float_path(self, monkeypatch):
        count, u, v = _arrays(complete_graph(6))
        x = np.full(u.size, 0.375)
        monkeypatch.setattr(forest_core, "_BATCH_MAX_ARCS", 100)
        before = _separations("float")
        got = forest_core.violated_forest_sets(count, u, v, x)
        assert _separations("float") == before + 1
        assert got == _reference_violated_sets(count, u, v, x) != []

    def test_feasible_point_passes(self):
        g = path_graph(5)
        count, u, v = _arrays(g)
        x = np.full(u.size, 0.5)
        assert forest_core.violated_forest_sets(count, u, v, x) == []

    def test_overfull_cycle_detected(self):
        # Triangle with x = 1 on each edge violates x(E[S]) <= 2.
        u = np.array([0, 0, 1], dtype=np.int64)
        v = np.array([1, 2, 2], dtype=np.int64)
        violated = forest_core.violated_forest_sets(3, u, v, np.ones(3))
        assert any(s == frozenset({0, 1, 2}) for s in violated)


class TestCuttingPlane:
    def test_matches_exhaustive_small(self):
        g = complete_graph(5)
        count, u, v = _arrays(g)
        cp = forest_core.cutting_plane_component(
            count, u, v, 2, 1e-7, 60, strict=True
        )
        exact = forest_core.exhaustive_component_value(count, u, v, 2)
        assert cp.value == pytest.approx(exact.value, abs=1e-6)
        assert cp.gap == 0.0

    def test_strict_raises_on_tiny_round_cap(self):
        g = complete_graph(6)
        count, u, v = _arrays(g)
        with pytest.raises(forest_core.ForestLPError, match="did not converge"):
            forest_core.cutting_plane_component(
                count, u, v, 2, 1e-7, 1, strict=True
            )


class TestColumnGenerationCore:
    @given(n=st.integers(3, 8), delta=st.integers(1, 3))
    @settings(max_examples=20)
    def test_lower_bound_and_agreement(self, n, delta):
        g = complete_graph(n)
        count, u, v = _arrays(g)
        cg = forest_core.column_generation_component(count, u, v, delta)
        exact = forest_core.exhaustive_component_value(count, u, v, delta)
        assert cg.value <= exact.value + 1e-6
        if cg.gap <= 1e-6:
            assert cg.value == pytest.approx(exact.value, abs=1e-5)

    def test_mixture_is_feasible(self):
        g = complete_graph(6)
        count, u, v = _arrays(g)
        cg = forest_core.column_generation_component(count, u, v, 2)
        degrees = np.zeros(count)
        np.add.at(degrees, u, cg.x)
        np.add.at(degrees, v, cg.x)
        assert degrees.max() <= 2 + 1e-6
        assert forest_core.violated_forest_sets(count, u, v, cg.x, 1e-5) == []
