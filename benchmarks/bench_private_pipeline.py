"""E19 — Compact-native private pipeline: end-to-end release speedup.

Acceptance benchmark for the PR-3 tentpole: running the full Algorithm-1
pipeline (``PrivateConnectedComponents`` — GEM over the whole Δ-grid,
Lipschitz-extension evaluation, Laplace release) on an
``erdos_renyi_compact`` input at ``n = 10^5`` must be at least 5× faster
than the same release on the object-graph representation, release
*bit-identical* values for the same seed, and perform **zero**
compact→object coercions (hard-guarded via
:func:`repro.graphs.compact.forbid_object_coercion`).

The sparse regime ``np = c`` with ``c < 1`` matches the paper's
``Õ(log n / ε)`` analysis and keeps every component small enough that
both paths evaluate the same exact LP values.  Object graphs convert
once to a :class:`~repro.graphs.compact.CompactGraph` and then run the
same engine, so the object leg now measures that one-time conversion
(plus the object-graph statistics around the release) rather than a
second evaluation engine.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.algorithm import PrivateConnectedComponents
from repro.graphs.compact import forbid_object_coercion, object_coercion_count
from repro.graphs.generators import erdos_renyi_compact
from repro.lp.forest_core import clear_solve_cache

from ._util import emit_table, reset_results

_N = int(os.environ.get("REPRO_BENCH_PIPELINE_N", "100000"))
_C = 0.35
_EPSILON = 1.0
_RELEASE_SEED = 20230413
# Local acceptance bar is 5x (measured ~100-300x on an idle machine); CI
# sets REPRO_BENCH_MIN_PIPELINE_SPEEDUP lower because shared runners add
# wall-clock jitter that should not fail unrelated merges.
_REQUIRED_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_PIPELINE_SPEEDUP", "5.0")
)


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _run_experiment(rng):
    reset_results("E19")

    generate_time, compact = _timed(lambda: erdos_renyi_compact(_N, _C / _N, rng))
    reference = compact.to_graph()

    # Compact-native release: hard-guarded against any object coercion.
    # The shared LP-core memo is cleared before each leg so both runs
    # are genuinely cold — neither representation may ride on component
    # solves populated by the other.
    clear_solve_cache()
    coercions_before = object_coercion_count()
    with forbid_object_coercion():
        compact_time, compact_release = _timed(
            lambda: PrivateConnectedComponents(epsilon=_EPSILON).release(
                compact, np.random.default_rng(_RELEASE_SEED)
            )
        )
    assert object_coercion_count() == coercions_before, (
        "compact pipeline performed an object-graph coercion"
    )

    clear_solve_cache()
    object_time, object_release = _timed(
        lambda: PrivateConnectedComponents(epsilon=_EPSILON).release(
            reference, np.random.default_rng(_RELEASE_SEED)
        )
    )

    # Differential agreement at scale: same seed, same released floats.
    assert compact_release.value == object_release.value, (
        compact_release.value,
        object_release.value,
    )
    assert (
        compact_release.spanning_forest.delta_hat
        == object_release.spanning_forest.delta_hat
    )

    speedup = object_time / compact_time
    rows = [
        [
            _N,
            compact.number_of_edges(),
            compact_release.true_value,
            f"{compact_release.value:.2f}",
            object_time,
            compact_time,
            speedup,
        ]
    ]
    emit_table(
        "E19",
        ["n", "m", "f_cc", "release", "object s", "compact s", "speedup"],
        rows,
        f"G(n, {_C:g}/n) end-to-end PrivateConnectedComponents: object vs "
        f"compact-native pipeline (required speedup >= {_REQUIRED_SPEEDUP:g}x)",
    )
    emit_table(
        "E19",
        ["stage", "seconds"],
        [
            [f"compact generate n={_N}", generate_time],
            ["compact release (cold extension)", compact_time],
            ["object release (cold extension)", object_time],
        ],
        "supporting stage timings",
    )

    assert speedup >= _REQUIRED_SPEEDUP, (
        f"compact pipeline speedup {speedup:.1f}x below the "
        f"{_REQUIRED_SPEEDUP:g}x acceptance bar"
    )
    return rows


def test_private_pipeline_speedup(benchmark, rng):
    benchmark.pedantic(_run_experiment, args=(rng,), rounds=1, iterations=1)
