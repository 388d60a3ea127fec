"""E18 — Array-backed kernel: f_cc speedup on large Erdős–Rényi graphs.

Acceptance benchmark for the CompactGraph fast path: on G(n, c/n) with
``n = 10^5`` the CSR + array-union-find ``f_cc`` must be at least 5×
faster than the reference object-graph BFS.  Also reports the spanning
forest kernel and the end-to-end vectorized generator, whose advantage
is far larger (the object generator walks pair indices in O(n·m)).
"""

from __future__ import annotations

import os
import time

from repro.graphs.compact import CompactGraph
from repro.graphs.components import number_of_connected_components
from repro.graphs.generators import erdos_renyi, erdos_renyi_compact

from ._util import emit_table, reset_results

_N = 100_000
_C = 2.0
# Local acceptance bar is 5x (measured ~10x on an idle machine); CI sets
# REPRO_BENCH_MIN_SPEEDUP lower because shared runners add wall-clock
# jitter that should not fail unrelated merges.
_REQUIRED_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "5.0"))


def _best_of(repeats, fn):
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _run_experiment(rng):
    reset_results("E18")
    rows = []

    generate_time, compact = _best_of(
        1, lambda: erdos_renyi_compact(_N, _C / _N, rng)
    )
    reference = compact.to_graph()

    ref_time, ref_cc = _best_of(
        3, lambda: number_of_connected_components(reference)
    )
    # A fresh CompactGraph per round so cached component labels never
    # flatter the kernel timing.
    compact_time, compact_cc = _best_of(
        3,
        lambda: number_of_connected_components(
            CompactGraph(compact.indptr, compact.indices)
        ),
    )
    assert compact_cc == ref_cc
    speedup = ref_time / compact_time
    rows.append(
        [
            _N,
            compact.number_of_edges(),
            ref_cc,
            ref_time,
            compact_time,
            speedup,
        ]
    )

    forest_time, forest = _best_of(
        3, lambda: CompactGraph(compact.indptr, compact.indices).spanning_forest()
    )
    assert forest.number_of_edges() == _N - ref_cc

    # Generator comparison at a size the object generator can stomach.
    small_n = 20_000
    object_gen_time, _ = _best_of(
        1, lambda: erdos_renyi(small_n, _C / small_n, rng)
    )
    compact_gen_time, _ = _best_of(
        1, lambda: erdos_renyi_compact(small_n, _C / small_n, rng)
    )

    emit_table(
        "E18",
        ["n", "m", "f_cc", "ref f_cc s", "compact f_cc s", "speedup"],
        rows,
        f"G(n, {_C:g}/n): object-graph BFS vs CSR array union-find "
        f"(required speedup >= {_REQUIRED_SPEEDUP:g}x)",
    )
    emit_table(
        "E18",
        ["kernel", "seconds"],
        [
            [f"compact generate n={_N}", generate_time],
            [f"compact spanning forest n={_N}", forest_time],
            [f"object generate n={small_n}", object_gen_time],
            [f"compact generate n={small_n}", compact_gen_time],
        ],
        "supporting kernel timings",
    )

    assert speedup >= _REQUIRED_SPEEDUP, (
        f"compact f_cc speedup {speedup:.1f}x below the "
        f"{_REQUIRED_SPEEDUP:g}x acceptance bar"
    )
    return rows


def test_compact_kernel_speedup(benchmark, rng):
    benchmark.pedantic(_run_experiment, args=(rng,), rounds=1, iterations=1)
