"""E14 — Telemetry overhead gate: instrumented serving must stay cheap.

Acceptance benchmark for the PR-7 tentpole: the telemetry layer
(always-on counters plus span tracing with a live tracer installed)
may cost at most ``REPRO_BENCH_MAX_TELEMETRY_OVERHEAD`` (default 5%)
on the warm 32-query session workload from E21 — and must release
**bit-identical** values either way (spans read only ``perf_counter``;
they never touch RNG state).

Both legs run the identical warm-session loop; the only difference is
whether a tracer is enabled.  Each leg takes the best of
``_REPEATS`` passes so a single scheduler hiccup cannot fail the gate,
and the baseline leg re-measures with telemetry genuinely off (module
global cleared), not merely unused.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro import telemetry
from repro.graphs.generators import erdos_renyi_compact
from repro.lp.forest_core import clear_solve_cache
from repro.service import ReleaseSession

from ._util import emit_table, reset_results

_N = int(os.environ.get("REPRO_BENCH_TELEMETRY_N", "100000"))
_C = 0.35
_N_QUERIES = 32
_BASE_SEED = 20230413
# Local acceptance bar is 5%; CI sets REPRO_BENCH_MAX_TELEMETRY_OVERHEAD
# higher because shared runners add wall-clock jitter on a denominator
# of milliseconds.
_MAX_OVERHEAD = float(
    os.environ.get("REPRO_BENCH_MAX_TELEMETRY_OVERHEAD", "0.05")
)
_REPEATS = 3

_QUERIES = [
    (("cc", "sf")[i % 2], (0.25, 0.5, 1.0, 2.0)[(i // 2) % 4])
    for i in range(_N_QUERIES)
]


def _query_rng(i: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(_BASE_SEED, spawn_key=(i,))
    )


def _best_of(session, graph, repeats: int) -> tuple[list[float], float]:
    """Best (min) wall time over ``repeats`` warm passes."""
    best = None
    values = None
    for _ in range(repeats):
        pass_values, seconds = _serve_warm_on(session, graph)
        if best is None or seconds < best:
            best = seconds
        if values is None:
            values = pass_values
        else:
            assert pass_values == values, "warm passes diverged"
    return values, best


def _serve_warm_on(session, graph) -> tuple[list[float], float]:
    values = []
    start = time.perf_counter()
    for i, (name, epsilon) in enumerate(_QUERIES):
        release = session.query(
            name, epsilon=epsilon, graph=graph, rng=_query_rng(i)
        )
        values.append(release.value)
    return values, time.perf_counter() - start


def _run_experiment(rng):
    reset_results("E14")

    graph = erdos_renyi_compact(_N, _C / _N, rng)

    # Shared warmup: build the extension table once so both legs
    # measure pure hot-path serving (the tentpole's target regime).
    session = ReleaseSession()
    clear_solve_cache()
    session.query("cc", epsilon=1.0, graph=graph, rng=_query_rng(0))

    # Leg 1: telemetry off (no tracer; span() returns the shared null).
    assert not telemetry.enabled()
    off_values, off_time = _best_of(session, graph, _REPEATS)

    # Leg 2: telemetry on — a live tracer with a sink, the most
    # expensive configuration the serving CLI installs.
    sunk = []
    tracer = telemetry.Tracer(
        keep_spans=False, sink=sunk.append, sink_max_depth=0
    )
    with telemetry.tracing(tracer):
        on_values, on_time = _best_of(session, graph, _REPEATS)
    assert not telemetry.enabled()

    # Tracing observed every release (one root span per query per pass).
    assert len(sunk) == _N_QUERIES * _REPEATS
    # Bit-identity: enabling telemetry changes no released value.
    assert on_values == off_values, (
        "telemetry changed released values"
    )

    overhead = on_time / off_time - 1.0
    rows = [
        [
            _N,
            graph.number_of_edges(),
            _N_QUERIES,
            off_time,
            on_time,
            overhead,
            _MAX_OVERHEAD,
        ]
    ]
    emit_table(
        "E14",
        [
            "n",
            "m",
            "queries",
            "off s",
            "on s",
            "overhead",
            "gate",
        ],
        rows,
        f"warm 32-query session on G(n, {_C:g}/n): telemetry off vs "
        f"tracer+sink enabled (gate: overhead <= {_MAX_OVERHEAD:.0%})",
    )

    assert overhead <= _MAX_OVERHEAD, (
        f"telemetry overhead {overhead:.1%} above the "
        f"{_MAX_OVERHEAD:.0%} acceptance gate"
    )
    return rows


def test_telemetry_overhead_gate(benchmark, rng):
    benchmark.pedantic(_run_experiment, args=(rng,), rounds=1, iterations=1)
