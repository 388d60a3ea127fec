"""BENCHMARK.json, perfbench/predictions.json and the code agree on names."""

from __future__ import annotations

import json
from pathlib import Path

from perfbench.measure import END_TO_END_UNITS
from perfbench.tracer import PER_LAYER_UNITS_BETTER

ROOT = Path(__file__).resolve().parents[2]


def _load(name: str) -> dict:
    return json.loads((ROOT / name).read_text())


def test_metric_and_workload_names_match_the_code():
    from perfbench.workloads import WORKLOADS

    benchmark = _load("BENCHMARK.json")
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in benchmark["per_layer"]} == (
        PER_LAYER_UNITS_BETTER
    )
    setup = next(m for m in benchmark["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in benchmark["end_to_end"])


def test_predictions_name_known_metrics_and_workloads():
    benchmark = _load("BENCHMARK.json")
    predictions = _load("perfbench/predictions.json")
    workloads = {w["name"] for w in benchmark["workloads"]}
    end_to_end = {m["name"] for m in benchmark["end_to_end"]}
    per_layer = {m["name"] for m in benchmark["per_layer"]}
    assert set(predictions["workloads"]) == workloads
    for row in predictions["layers"]:
        assert set(row["metrics"]) <= per_layer, row["layer"]
        for metric, workload in row["should_move"]:
            assert metric in end_to_end and workload in workloads
        for flat in row["flat"]:
            metric, workload = flat if isinstance(flat, list) else (None, flat)
            assert workload in workloads and (metric is None or metric in end_to_end)
    for cost in predictions["known_costs"]:
        assert cost["workload"] in workloads and cost["metric"] in end_to_end
        assert set(cost["per_layer"]) <= per_layer
