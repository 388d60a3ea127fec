"""Serving-layer telemetry acceptance tests.

The load-bearing guarantee: turning telemetry on (``--telemetry-log``,
span tracing, metric counters) changes **nothing** about served output —
serve-batch responses are byte-identical with it on or off, serial and
sharded alike.  Plus the ``repro profile`` breakdown: traced stage time
must account for (nearly) the whole release wall time.
"""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.__main__ import main
from repro.graphs.generators import planted_components_compact
from repro.graphs.io import write_edge_list
from repro.storage import read_jsonl_records


@pytest.fixture
def graph_file(tmp_path):
    graph = planted_components_compact(
        [12, 9, 6], 0.4, np.random.default_rng(2)
    )
    path = str(tmp_path / "graph.edges")
    write_edge_list(graph, path)
    return path


@pytest.fixture
def requests_file(tmp_path, graph_file):
    lines = [
        json.dumps({
            "id": i,
            "estimator": ("cc", "sf", "edge_dp")[i % 3],
            "epsilon": 0.5,
            "graph": graph_file,
            "seed": i,
        })
        for i in range(6)
    ]
    lines.append("{malformed")
    path = tmp_path / "requests.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestServeBatchByteIdentity:
    def test_serial_output_identical_with_telemetry(
        self, tmp_path, requests_file, capsys
    ):
        off = tmp_path / "off.jsonl"
        on = tmp_path / "on.jsonl"
        assert main([
            "serve-batch", "--requests", str(requests_file),
            "--output", str(off),
        ]) == 0
        assert main([
            "serve-batch", "--requests", str(requests_file),
            "--output", str(on),
            "--telemetry-log", str(tmp_path / "telemetry.jsonl"),
        ]) == 0
        assert off.read_bytes() == on.read_bytes()
        assert not telemetry.enabled()  # tracer uninstalled afterwards

    def test_parallel_output_identical_with_telemetry(
        self, tmp_path, requests_file, capsys
    ):
        off = tmp_path / "off.jsonl"
        on = tmp_path / "on.jsonl"
        assert main([
            "serve-batch", "--requests", str(requests_file),
            "--output", str(off),
        ]) == 0
        assert main([
            "serve-batch", "--requests", str(requests_file),
            "--output", str(on), "--workers", "2",
            "--telemetry-log", str(tmp_path / "telemetry.jsonl"),
        ]) == 0
        assert off.read_bytes() == on.read_bytes()
        # The parallel summary surfaces merged worker telemetry.
        err = capsys.readouterr().err
        assert "worker telemetry: 6 pipeline releases" in err

    def test_serial_log_streams_root_spans_and_metrics(
        self, tmp_path, requests_file
    ):
        log_path = tmp_path / "telemetry.jsonl"
        assert main([
            "serve-batch", "--requests", str(requests_file),
            "--output", str(tmp_path / "out.jsonl"),
            "--telemetry-log", str(log_path),
        ]) == 0
        events = list(read_jsonl_records(log_path))
        spans = [e for e in events if e["event"] == "span"]
        # One root span per successful release, none for the error line.
        assert len(spans) == 6
        assert all(s["name"] == "release" and s["depth"] == 0
                   for s in spans)
        assert {s["attrs"]["estimator"] for s in spans} == {
            "cc", "sf", "edge_dp"
        }
        (metrics,) = [e for e in events if e["event"] == "metrics"]
        assert metrics["served"] == 6
        assert metrics["errors"] == 1
        assert telemetry.counter_value(
            metrics["metrics"], "repro_session_queries_total"
        ) >= 6.0

    def test_parallel_log_merges_worker_registries(
        self, tmp_path, requests_file
    ):
        log_path = tmp_path / "telemetry.jsonl"
        assert main([
            "serve-batch", "--requests", str(requests_file),
            "--output", str(tmp_path / "out.jsonl"), "--workers", "2",
            "--telemetry-log", str(log_path),
        ]) == 0
        (metrics,) = [
            e for e in read_jsonl_records(log_path)
            if e["event"] == "metrics"
        ]
        merged = metrics["metrics"]
        # Worker processes start with zeroed registries, so the merged
        # snapshot counts exactly this batch.
        assert telemetry.counter_value(
            merged, "repro_releases_total"
        ) == 6.0
        assert telemetry.counter_value(
            merged, "repro_session_queries_total"
        ) == 6.0


class TestProfileCli:
    def test_table_breakdown_accounts_for_wall(
        self, graph_file, capsys
    ):
        assert main([
            "profile", graph_file, "--estimator", "cc",
            "--epsilon", "1.0", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "profile of cc release" in out
        # lp.solve is absent when the process-global LP memo is already
        # warm (e.g. earlier tests solved these components); the
        # memo-independent stages must always show.
        for stage in ("gem.select", "laplace.noise", "release",
                      "total traced", "separation oracle:"):
            assert stage in out

    def test_json_breakdown_within_ten_percent_of_wall(
        self, graph_file, capsys
    ):
        assert main([
            "profile", graph_file, "--estimator", "cc",
            "--epsilon", "1.0", "--seed", "3", "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["estimator"] == "cc"
        assert set(report["separation"]) == {"batched", "float"}
        stages = report["stages"]
        assert {"release", "gem.select", "laplace.noise"} <= set(stages)
        stage_total = report["stage_total_seconds"]
        assert stage_total == pytest.approx(
            sum(s["self_seconds"] for s in stages.values())
        )
        # Acceptance criterion: traced stages account for the release
        # wall time to within 10% (the root "release" span brackets the
        # whole pipeline, so only argv/IO overhead can escape).
        assert stage_total <= report["wall_seconds"] * 1.001
        assert stage_total >= report["wall_seconds"] * 0.9

    def test_matches_estimate_value_exactly(self, graph_file, capsys):
        assert main([
            "estimate", graph_file, "--estimator", "cc",
            "--epsilon", "1.0", "--seed", "5", "--json",
        ]) == 0
        estimate = json.loads(capsys.readouterr().out)
        assert main([
            "profile", graph_file, "--estimator", "cc",
            "--epsilon", "1.0", "--seed", "5", "--json",
        ]) == 0
        profiled = json.loads(capsys.readouterr().out)
        # Profiling is observation, not perturbation.
        assert profiled["value"] == estimate["value"]

    def test_unknown_estimator_errors(self, graph_file, capsys):
        assert main([
            "profile", graph_file, "--estimator", "nope",
        ]) == 1
        assert "error" in capsys.readouterr().err


class TestSweepTelemetryLog:
    def test_sweep_streams_spans_and_final_metrics(self, tmp_path):
        spec = {
            "name": "tiny-telemetry",
            "graphs": [{"family": "er", "sizes": [16],
                        "params": {"p": 0.1}}],
            "epsilons": [1.0],
            "mechanisms": ["edge_dp"],
            "replicates": 1,
            "n_trials": 2,
            "base_seed": 9,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        log_path = tmp_path / "telemetry.jsonl"
        assert main([
            "sweep", "--spec", str(spec_path),
            "--store", str(tmp_path / "store"), "--quiet",
            "--telemetry-log", str(log_path),
        ]) == 0
        assert not telemetry.enabled()
        events = list(read_jsonl_records(log_path))
        kinds = [e["event"] for e in events]
        assert kinds[-1] == "metrics"
        assert "span" in kinds  # in-process releases streamed
        (metrics,) = [e for e in events if e["event"] == "metrics"]
        assert metrics["sweep"] == "tiny-telemetry"
        assert metrics["computed"] == 1
