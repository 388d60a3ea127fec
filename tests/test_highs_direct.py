"""Differential tests: the direct HiGHS call against ``scipy.optimize.linprog``.

``forest_core._solve_lp`` hands HiGHS a CSC built with one stable sort
instead of going through ``linprog``.  Releases stay bit-identical only if
HiGHS sees the very same model, so every test here compares ``x``, the
objective and the row duals *bit for bit* against ``linprog(method="highs")``
solving the same rows, for each LP shape the forest core builds: the
exhaustive formulation, degree rows plus lazy forest rows, and the
column-generation master with its convexity row.
"""

from __future__ import annotations

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.optimize import linprog

from repro import kernels
from repro.lp import forest_core

_REAL_SOLVE_LP = forest_core._solve_lp


@st.composite
def canonical_graphs(draw, min_vertices: int = 2, max_vertices: int = 10):
    """``(n, u, v)`` with ``u < v`` sorted lexicographically, at least one edge."""
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    chosen.sort()
    u = np.array([a for a, _ in chosen], dtype=np.int64)
    v = np.array([b for _, b in chosen], dtype=np.int64)
    return n, u, v


def _columns_ascend(rows: np.ndarray, cols: np.ndarray) -> bool:
    """Within every column, row indices appear in ascending order."""
    order = np.argsort(cols, kind="stable")
    r, c = rows[order], cols[order]
    same_column = c[1:] == c[:-1]
    return bool(np.all(r[1:][same_column] > r[:-1][same_column]))


def _bit_equal(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_matches_linprog(args, result) -> None:
    """``result`` of ``_solve_lp(*args)`` equals ``linprog`` on the same LP."""
    c, col_upper, rows, cols, vals, row_lower, row_upper = args
    assert _columns_ascend(rows, cols)
    a = sparse.csr_matrix((vals, (rows, cols)), shape=(row_upper.size, c.size))
    num_ub = int(np.count_nonzero(np.isneginf(row_lower)))
    assert np.all(np.isneginf(row_lower[:num_ub]))
    assert np.array_equal(row_lower[num_ub:], row_upper[num_ub:])
    kwargs = {}
    if num_ub < row_upper.size:
        kwargs = {"A_eq": a[num_ub:], "b_eq": row_upper[num_ub:]}
    bounds = (0.0, None if np.isinf(col_upper) else col_upper)
    reference = linprog(
        c, A_ub=a[:num_ub], b_ub=row_upper[:num_ub], bounds=bounds,
        method="highs", **kwargs,
    )
    assert reference.success
    x, objective, row_dual = result
    assert _bit_equal(x, reference.x)
    assert objective.hex() == float(reference.fun).hex()
    assert _bit_equal(row_dual[:num_ub], reference.ineqlin.marginals)
    if kwargs:
        assert _bit_equal(row_dual[num_ub:], reference.eqlin.marginals)


class _Recorder:
    """Stands in for ``_solve_lp``, keeping every call and its result."""

    def __init__(self) -> None:
        self.calls: list[tuple[tuple, tuple]] = []

    def __call__(self, *args):
        result = _REAL_SOLVE_LP(*args)
        self.calls.append((args, result))
        return result


def _recording():
    recorder = _Recorder()
    return recorder, mock.patch.object(forest_core, "_solve_lp", recorder)


class TestSolveLpMatchesLinprog:
    @settings(max_examples=25)
    @given(
        graph=canonical_graphs(max_vertices=10),
        delta=st.sampled_from([0.75, 1.0, 1.5, 2.0, 3.0]),
    )
    def test_exhaustive_rows(self, graph, delta):
        n, u, v = graph
        recorder, patch = _recording()
        with patch:
            result = forest_core.exhaustive_component_value(n, u, v, delta)
        (args, solved), = recorder.calls
        _assert_matches_linprog(args, solved)
        assert result.value == min(max(-solved[1], 0.0), float(n - 1))

    @settings(max_examples=25)
    @given(
        graph=canonical_graphs(min_vertices=3, max_vertices=12),
        sets=st.lists(
            st.sets(st.integers(0, 11), min_size=2), min_size=1, max_size=8
        ),
        delta=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    )
    def test_degree_and_lazy_rows(self, graph, sets, delta):
        # One extra vertex with no edges: its degree row is empty, and
        # the set {isolated, 0} has no inside edge, so its row is too.
        n, u, v = graph
        isolated = n
        n += 1
        subsets = [frozenset(range(n)), frozenset([isolated, 0])]
        subsets += [frozenset(w % n for w in s) for s in sets]
        subsets = [s for s in subsets if len(s) >= 2]
        m = u.size
        edge_ids = np.arange(m, dtype=np.int64)
        rows = [np.concatenate([u, v])]
        cols = [np.concatenate([edge_ids, edge_ids])]
        rhs = [float(delta)] * n
        for subset in subsets:
            member = np.zeros(n, dtype=bool)
            member[list(subset)] = True
            inside = np.nonzero(member[u] & member[v])[0]
            rows.append(np.full(inside.size, len(rhs), dtype=np.int64))
            cols.append(inside)
            rhs.append(float(len(subset) - 1))
        all_rows = np.concatenate(rows)
        args = (
            -np.ones(m), 1.0, all_rows, np.concatenate(cols),
            np.ones(all_rows.size), np.full(len(rhs), -np.inf), np.array(rhs),
        )
        _assert_matches_linprog(args, forest_core._solve_lp(*args))

    @settings(max_examples=25)
    @given(
        graph=canonical_graphs(min_vertices=3, max_vertices=12),
        seed=st.integers(0, 2**16),
        delta=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    )
    def test_master_with_empty_column(self, graph, seed, delta):
        n, u, v = graph
        rng = np.random.default_rng(seed)
        columns: list[list[int]] = [[]]
        for _ in range(int(rng.integers(1, 6))):
            order = [int(j) for j in rng.permutation(u.size)]
            caps = rng.integers(1, 4, size=n).astype(np.int64)
            columns.append(kernels.greedy_capped_forest(n, u, v, order, caps)[0])
        recorder, patch = _recording()
        with patch:
            mu, objective, duals = forest_core._solve_master(columns, u, v, n, delta)
        (args, solved), = recorder.calls
        _assert_matches_linprog(args, solved)
        assert args[5][-1] == args[6][-1] == 1.0  # the convexity row
        assert _bit_equal(mu, solved[0]) and objective == solved[1]
        assert _bit_equal(duals, solved[2][:n])

    def test_sandwich_call_sites(self):
        # A dense 20-vertex component goes through the cutting-plane loop
        # and the column-generation master; every solve they make matches.
        rng = np.random.default_rng(11)
        iu, ju = np.triu_indices(20, 1)
        keep = rng.random(iu.size) < 0.3
        u, v = iu[keep].astype(np.int64), ju[keep].astype(np.int64)
        recorder, patch = _recording()
        with patch:
            for delta in (1.0, 1.5, 2.0):
                forest_core.cutting_plane_component(20, u, v, delta, 1e-7, 12, strict=False)
                forest_core.column_generation_component(20, u, v, delta, max_iterations=5)
        assert len(recorder.calls) > 10
        for args, solved in recorder.calls:
            _assert_matches_linprog(args, solved)


def test_infeasible_model_raises():
    # One column in [0, 1] that a row forces to at least 2.
    with pytest.raises(forest_core.ForestLPError, match="[Ii]nfeasible"):
        forest_core._solve_lp(
            np.array([-1.0]), 1.0,
            np.array([0]), np.array([0]), np.array([1.0]),
            np.array([2.0]), np.array([3.0]),
        )
