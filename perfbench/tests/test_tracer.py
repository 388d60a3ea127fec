"""The benchmark's span tracer and metric helpers."""

from __future__ import annotations

import numpy as np

from perfbench.measure import parse_prometheus, tail
from perfbench.tracer import Tracer, _loop_waits, install, self_times


def test_self_times_partition_the_root():
    # (index, name, start, end, parent, op, tag)
    spans = [
        (0, "op", 0.0, 10.0, None, 1, None),
        (1, "extension.grid", 1.0, 6.0, 0, 1, None),
        (2, "lp.solve", 2.0, 5.0, 1, 1, None),
        (3, "mechanisms.gem", 7.0, 8.0, 0, 1, None),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0}
    assert sum(selfs.values()) == 10.0


def test_loop_wait_counts_only_other_requests_busy_time():
    spans = [
        (0, "daemon.request", 0.0, 4.0, None, "a", None),
        (1, "serving.request", 0.5, 2.0, 0, "a", None),
        (2, "daemon.account_save", 3.0, 4.0, 0, "a", None),
        (3, "daemon.request", 5.0, 6.0, None, "b", None),
    ]
    # b was sent at 1.0 and started at 5.0: a's work covered 1.0-2.0 and
    # 3.0-4.0 of that wait.
    waits = _loop_waits(spans, [("a", 0.0, 4.2), ("b", 1.0, 6.1)])
    by_op = {span[5]: span[3] - span[2] for span in waits}
    assert by_op == {"a": 0.0, "b": 2.0}


def test_tail_leaves_ten_samples_beyond():
    value, percentile = tail([float(i) for i in range(100)])
    assert value == 89.0 and percentile == 90.0
    assert tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3)


def test_parse_prometheus_reads_labelled_samples():
    text = (
        "# TYPE repro_lp_memo_total counter\n"
        'repro_lp_memo_total{result="hit"} 3\n'
        "repro_session_evictions_total 2\n"
    )
    assert parse_prometheus(text) == {
        ("repro_lp_memo_total", (("result", "hit"),)): 3.0,
        ("repro_session_evictions_total", ()): 2.0,
    }


def test_installed_spans_nest_under_the_operation_and_leave_values_alone():
    from repro.estimators import create
    from repro.graphs.generators import planted_components_compact

    graph = planted_components_compact([12] * 3, 0.4, np.random.default_rng(0))
    plain = create("cc", epsilon=1.0).release(graph, np.random.default_rng(1)).value
    tracer = Tracer()
    install(tracer)
    with tracer.root("op", 0):
        traced = create("cc", epsilon=1.0).release(graph, np.random.default_rng(1)).value
    assert traced == plain
    names = {span[1] for span in tracer.spans}
    assert {"op", "extension.grid", "mechanisms.gem", "mechanisms.laplace"} <= names
    assert all(span[5] == 0 for span in tracer.spans)
    root = next(span for span in tracer.spans if span[1] == "op")
    assert abs(sum(self_times(tracer.spans).values()) - (root[3] - root[2])) < 1e-9
