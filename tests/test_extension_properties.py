"""Property tests for Lemma 3.3: the extension family's guarantees.

Checks, on a deterministic corpus, on random small graphs and on graphs
of 14–18 vertices (where the certified sandwich LP runs):
underestimation, monotonicity in Δ, Δ-Lipschitzness w.r.t. node removal
and node insertion, exactness on graphs with spanning Δ-forests, the
tightness of the Lipschitz constant (Remark 3.4), and known values of
``f_Δ`` on small families.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.core.extension import (
    SpanningForestExtension,
    evaluate_lipschitz_extension,
    extension_for,
)
from repro.graphs.components import spanning_forest_size
from repro.graphs.forests import (
    has_spanning_delta_forest_exact,
)
from repro.graphs.generators import (
    complete_bipartite_graph,
    complete_graph,
    disjoint_union,
    empty_graph,
    erdos_renyi,
    grid_graph,
    path_graph,
    star_graph,
    with_hub,
)
from repro.graphs.graph import Graph
from repro.lp.forest_core import EXACT_THRESHOLD, clear_solve_cache

from .strategies import canonical_components, deterministic_corpus, small_graphs


def _counter(name, **labels):
    return telemetry.counter_value(telemetry.snapshot(), name, **labels)


def _sandwich_solves():
    return sum(
        _counter("repro_lp_solves_total", path="sandwich", status=status)
        for status in ("exact", "snapped", "approx")
    )

_DELTAS = [1, 2, 3, 4]


class TestLemma33OnCorpus:
    def test_underestimation(self):
        for name, g in deterministic_corpus():
            ext = SpanningForestExtension(g)
            for delta in _DELTAS:
                assert ext.value(delta) <= spanning_forest_size(g) + 1e-6, (
                    name,
                    delta,
                )

    def test_monotonicity_in_delta(self):
        for name, g in deterministic_corpus():
            ext = SpanningForestExtension(g)
            values = [ext.value(d) for d in _DELTAS]
            for a, b in zip(values, values[1:]):
                assert a <= b + 1e-6, name

    def test_exact_when_spanning_delta_forest_exists(self):
        """Item 1 of Lemma 3.3."""
        for name, g in deterministic_corpus():
            if g.number_of_vertices() > 7:
                continue
            ext = SpanningForestExtension(g)
            for delta in _DELTAS:
                if has_spanning_delta_forest_exact(g, delta):
                    assert ext.value(delta) == pytest.approx(
                        spanning_forest_size(g), abs=1e-5
                    ), (name, delta)


class TestLemma33PropertyBased:
    @given(small_graphs(max_vertices=6), st.integers(1, 4))
    @settings(max_examples=60)
    def test_underestimation_and_monotone(self, g, delta):
        ext = SpanningForestExtension(g)
        value = ext.value(delta)
        assert value <= spanning_forest_size(g) + 1e-6
        assert value <= ext.value(delta + 1) + 1e-6

    @given(small_graphs(min_vertices=1, max_vertices=6), st.integers(1, 4))
    @settings(max_examples=60)
    def test_lipschitz_under_node_removal(self, g, delta):
        """|f_Δ(G) − f_Δ(G−v)| ≤ Δ for every vertex v."""
        value = evaluate_lipschitz_extension(g, delta)
        for v in g.vertex_list():
            smaller = evaluate_lipschitz_extension(g.without_vertex(v), delta)
            assert abs(value - smaller) <= delta + 1e-5
            # removal can only decrease (monotone under node addition)
            assert smaller <= value + 1e-6

    @given(small_graphs(min_vertices=1, max_vertices=5), st.integers(1, 4))
    @settings(max_examples=40)
    def test_lipschitz_under_hub_insertion(self, g, delta):
        """Inserting the worst-case (all-adjacent) node moves f_Δ by ≤ Δ."""
        value = evaluate_lipschitz_extension(g, delta)
        bigger = evaluate_lipschitz_extension(with_hub(g), delta)
        assert bigger >= value - 1e-6
        assert bigger - value <= delta + 1e-5

    @given(small_graphs(max_vertices=6), st.integers(1, 4))
    @settings(max_examples=40)
    def test_exactness_item_1(self, g, delta):
        if has_spanning_delta_forest_exact(g, delta):
            assert evaluate_lipschitz_extension(g, delta) == pytest.approx(
                spanning_forest_size(g), abs=1e-5
            )


class TestLemma33SandwichRegime:
    """Above ``EXACT_THRESHOLD`` vertices a non-tree component goes to the
    cutting-plane / column-generation sandwich (with its half-integral
    snap); the Lemma 3.3 properties must hold there too."""

    @given(
        n=st.integers(EXACT_THRESHOLD + 1, 18),
        p=st.floats(0.15, 0.4),
        seed=st.integers(0, 10**6),
        delta=st.sampled_from([1, 2]),
        removed=st.integers(0, 17),
    )
    @settings(max_examples=12)
    def test_lipschitz_and_monotone(self, n, p, seed, delta, removed):
        # G(n, p) plus the path 0-1-...-(n-1), so one component has n
        # vertices and, at Δ = 1, always reaches the LP.
        rng = np.random.default_rng(seed)
        iu, iv = np.triu_indices(n, 1)
        keep = (rng.random(iu.size) < p) | (iv == iu + 1)
        g = Graph(vertices=range(n), edges=zip(iu[keep].tolist(), iv[keep].tolist()))
        clear_solve_cache()
        before = _sandwich_solves()
        f_1, f_2 = extension_for(g).values_for_grid([1, 2])
        assert _sandwich_solves() > before
        assert f_1 <= f_2 + 1e-9 <= spanning_forest_size(g) + 2e-9
        value = f_1 if delta == 1 else f_2
        smaller = evaluate_lipschitz_extension(g.without_vertex(removed % n), delta)
        assert value - delta - 1e-6 <= smaller <= value + 1e-6


class TestKnownValues:
    def test_star_clips_at_delta(self):
        """Remark 3.4's family: f_Δ(K_{1,k}) = min(Δ, k)."""
        g = star_graph(5)
        for delta in range(1, 8):
            assert evaluate_lipschitz_extension(g, delta) == pytest.approx(
                min(delta, 5)
            )

    def test_triangle_fractional(self):
        """f_1(K3) = 3/2: x = 1/2 on each edge is optimal."""
        assert evaluate_lipschitz_extension(complete_graph(3), 1) == pytest.approx(1.5)
        assert evaluate_lipschitz_extension(complete_graph(3), 2) == pytest.approx(2.0)

    def test_edgeless_zero(self):
        assert evaluate_lipschitz_extension(empty_graph(4), 1) == 0.0

    def test_path(self):
        """Δ = 1 on a path is maximum matching (bipartite, so integral);
        Δ = 2 spans it."""
        g = path_graph(6)
        assert evaluate_lipschitz_extension(g, 1) == pytest.approx(3.0)
        assert evaluate_lipschitz_extension(g, 2) == pytest.approx(5.0)

    def test_k4_delta_1(self):
        """K4, Δ=1: degree constraints cap the sum at 4·1/2 = 2, reached
        by a perfect matching."""
        assert evaluate_lipschitz_extension(complete_graph(4), 1) == pytest.approx(2.0)

    def test_k23(self):
        """K_{2,3}: a Hamiltonian path exists, so f_2 = 4 = f_sf."""
        g = complete_bipartite_graph(2, 3)
        assert evaluate_lipschitz_extension(g, 2) == pytest.approx(4.0)

    def test_fractional_delta(self):
        assert evaluate_lipschitz_extension(star_graph(4), 2.5) == pytest.approx(2.5)

    def test_component_additivity(self):
        a = complete_graph(3)
        b = star_graph(4)
        union = disjoint_union([a, b])
        for delta in (1, 2, 3):
            expected = evaluate_lipschitz_extension(
                a, delta
            ) + evaluate_lipschitz_extension(b, delta)
            assert evaluate_lipschitz_extension(union, delta) == pytest.approx(expected)

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            evaluate_lipschitz_extension(path_graph(2), 0)

    def test_er_graph_all_deltas_monotone(self):
        g = erdos_renyi(40, 0.08, np.random.default_rng(11))
        ext = SpanningForestExtension(g)
        values = ext.values_for_grid([1, 2, 4, 8, 16, 32]).tolist()
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(spanning_forest_size(g))


class TestFastPaths:
    def test_degree_bound_skips_repair_and_lp(self):
        """Δ ≥ max degree: exact by the degree mask alone."""
        repairs = _counter("repro_extension_repairs_total")
        solves = _counter("repro_lp_solves_total")
        assert evaluate_lipschitz_extension(grid_graph(3, 3), 4) == pytest.approx(8.0)
        assert _counter("repro_extension_repairs_total") == repairs
        assert _counter("repro_lp_solves_total") == solves

    def test_repair_certifies_without_lp(self):
        """Grid with Δ = 3: Algorithm 3 finds a spanning 3-forest."""
        success = _counter("repro_extension_repairs_total", outcome="success")
        solves = _counter("repro_lp_solves_total")
        assert evaluate_lipschitz_extension(grid_graph(3, 3), 3) == pytest.approx(8.0)
        assert _counter("repro_extension_repairs_total", outcome="success") == success + 1
        assert _counter("repro_lp_solves_total") == solves

    @given(small_graphs(max_vertices=6), st.integers(1, 5))
    @settings(max_examples=60)
    def test_fast_paths_agree_with_lp(self, g, delta):
        with_fast = evaluate_lipschitz_extension(g, delta, use_fast_paths=True)
        without = evaluate_lipschitz_extension(g, delta, use_fast_paths=False)
        assert with_fast == pytest.approx(without, abs=1e-5)


class TestRemark34:
    """The Lipschitz constant Δ is tight: G = Δ isolated vertices,
    G' = G plus a hub; f_Δ(G) = 0 and f_Δ(G') = Δ."""

    @pytest.mark.parametrize("delta", [1, 2, 3, 5])
    def test_tightness(self, delta):
        g = empty_graph(delta)
        g_prime = with_hub(g)
        assert evaluate_lipschitz_extension(g, delta) == 0.0
        assert evaluate_lipschitz_extension(g_prime, delta) == pytest.approx(
            float(delta)
        )


class TestExtensionObject:
    def test_caching(self):
        g = star_graph(4)
        ext = SpanningForestExtension(g)
        ext.value(2)
        ext.value(2)
        assert ext.evaluated_deltas() == [2.0]

    def test_gap_and_exactness(self):
        g = star_graph(4)
        ext = SpanningForestExtension(g)
        assert ext.gap(4) == pytest.approx(0.0)
        assert ext.is_exact_at(4)
        assert ext.gap(2) == pytest.approx(2.0)
        assert not ext.is_exact_at(2)

    def test_true_value(self):
        g = star_graph(3)
        assert SpanningForestExtension(g).true_value == 3

    def test_graph_property(self):
        g = star_graph(2)
        assert SpanningForestExtension(g).graph is g

    def test_components_reach_the_core_canonical(self):
        """Shuffled insertion order and permuted labels: every component
        still reaches the LP core as its sorted-label arrays, components
        in first-inserted order."""
        rng = np.random.default_rng(3)
        g = erdos_renyi(60, 0.05, rng)
        labels = {v: 1000 - 7 * int(i) for v, i in zip(g.vertices(), rng.permutation(60))}
        shuffled = Graph(vertices=[labels[v] for v in rng.permutation(60).tolist()])
        for a, b in g.edges():
            shuffled.add_edge(labels[a], labels[b])
        ext = SpanningForestExtension(shuffled)
        ext.component_fingerprints()  # prepares the engine
        expected = canonical_components(shuffled)
        got = [ext._component_arrays(i) for i in range(len(expected))]
        assert len(ext._sizes) == len(expected)
        for (n, u, v), (gn, gu, gv) in zip(expected, got):
            assert (n, u.tolist(), v.tolist()) == (gn, gu.tolist(), gv.tolist())
