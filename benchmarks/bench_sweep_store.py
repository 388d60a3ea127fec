"""E20 — Sweep orchestration: resume throughput and store overhead.

Two claims about the `repro.experiments` layer, measured:

1. resuming a completed sweep is dominated by store reads, not by
   recomputation — the cached pass must beat the compute pass by at
   least ``REPRO_BENCH_MIN_CACHE_SPEEDUP`` (default 3x; CI relaxes it,
   the local bar is comfortably ~100x for Algorithm-1 cells);
2. the orchestration tax (expansion, hashing, atomic writes) per cell
   stays in the low-millisecond range, i.e. negligible against any real
   mechanism evaluation.
"""

from __future__ import annotations

import os
import time

from repro.experiments import (
    GraphGrid,
    ResultStore,
    SweepSpec,
    run_sweep,
)

from ._util import emit_table, reset_results

_REQUIRED_CACHE_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_CACHE_SPEEDUP", "3.0")
)


def _spec(n_cells_per_mech: int) -> SweepSpec:
    return SweepSpec(
        name="bench-sweep-store",
        description="store-overhead benchmark grid",
        graphs=(GraphGrid("er", (40,), (("c", 1.0),)),),
        epsilons=(0.5, 1.0),
        mechanisms=("private_cc",),
        replicates=n_cells_per_mech,
        n_trials=10,
        base_seed=77,
    )


def _run_experiment(tmp_root: str):
    reset_results("E20")
    spec = _spec(10)  # 2 epsilons x 10 replicates = 20 Algorithm-1 cells
    store = ResultStore(os.path.join(tmp_root, "store"))

    start = time.perf_counter()
    computed = run_sweep(spec, store)
    compute_seconds = time.perf_counter() - start
    assert computed.n_computed == spec.cell_count()

    start = time.perf_counter()
    cached = run_sweep(spec, store)
    cached_seconds = time.perf_counter() - start
    assert cached.n_computed == 0

    speedup = compute_seconds / cached_seconds
    cells = spec.cell_count()
    emit_table(
        "E20",
        ["cells", "compute s", "resume s", "per-cell resume ms", "speedup"],
        [
            [
                cells,
                compute_seconds,
                cached_seconds,
                1000.0 * cached_seconds / cells,
                speedup,
            ]
        ],
        "sweep compute pass vs fully-cached resume pass "
        f"(required speedup >= {_REQUIRED_CACHE_SPEEDUP:g}x)",
    )
    assert speedup >= _REQUIRED_CACHE_SPEEDUP, (
        f"cached resume only {speedup:.1f}x faster than compute; "
        f"bar is {_REQUIRED_CACHE_SPEEDUP:g}x"
    )
    return speedup


def test_sweep_store_resume_speedup(benchmark, tmp_path):
    benchmark.pedantic(
        _run_experiment, args=(str(tmp_path),), rounds=1, iterations=1
    )
