"""The two workloads.

Each workload is a closed loop: a caller sends its next operation only
after the previous one returned.  ``setup`` generates and saves the
inputs from the seed, starts what must run and warms up, untimed by the
operations.  ``measure`` runs one timed phase of a fixed number of
operations, the workload's nominal count for a number of seconds or a
given count (the traced phase replays the untraced phase's count),
checks every output, and returns the phase.

Two more workloads, sparse_release (cold releases on n = 3e5 sparse
graphs) and serve_stream (a replay and edit stream through
serve_edit_stream), were dropped: see perfbench/predictions.json.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.estimators import create
from repro.graphs import store
from repro.kernels import connected_component_labels
from repro.lp.forest_core import clear_solve_cache
from repro.service import ReleaseSession

from . import inputs
from .measure import (
    Op,
    Phase,
    counter_deltas,
    parse_prometheus,
    process_cpu_s,
    reset_hwm,
    vm_hwm_mb,
)
from .tracer import Tracer, install

ROOT = Path(__file__).resolve().parent.parent
# Every run of a workload does a fixed amount of work: --seconds at the
# workload's nominal rate, so runs of the same code do the same operations
# whatever the machine's speed at the time.
# dense_lp: releases per second (about its measured rate on a 2-vCPU VM).
DENSE_NOMINAL_RATE = 0.8
# daemon_http: requests per second per tenant (both together, about its
# measured rate).  Every account rewrite also costs in proportion to the
# ledger before it, so a run that sent more requests would see slower ones.
DAEMON_NOMINAL_RATE = 60.0
# op_tail_ms of daemon_http is the mean over rounds of this many
# consecutive completions of each round's tail, taken the usual way, so a
# couple of stalled requests do not decide a whole run's tail; op_p50_ms
# is the mean of the same rounds' medians.
DAEMON_TAIL_ROUND = 500


def _exact_counts(path: Path) -> dict[str, float]:
    """True cc and sf of a stored graph, from the kernel union-find."""
    graph = store.open_npz(path)
    n = graph.number_of_vertices()
    u, v = graph.edge_arrays()
    components = int(np.unique(connected_component_labels(n, u, v)).size)
    return {"cc": float(components), "sf": float(n - components)}


def _warm_up() -> None:
    """One tiny cc and sf release, so imports and first-call costs land in
    set-up rather than in the first timed operation."""
    from repro.graphs.generators import planted_components_compact

    graph = planted_components_compact([20] * 2, 0.3, np.random.default_rng(0))
    for name in ("cc", "sf"):
        create(name, epsilon=1.0).release(graph, np.random.default_rng(0))


class DenseLP:
    """Cold cc and sf releases, each on a distinct dense planted graph."""

    name = "dense_lp"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, directory: Path) -> None:
        self.paths = inputs.dense_pool(self.seed, directory)
        _warm_up()

    def close(self) -> None:
        pass

    def measure(self, *, seconds: float | None = None, op_count: int | None = None,
                tracer: Tracer | None = None) -> Phase:
        if op_count is None:
            op_count = 2 * max(1, round(seconds * DENSE_NOMINAL_RATE / 2))
        if not hasattr(self, "exact"):
            self.exact = {path: _exact_counts(path) for path in self.paths}
        if tracer is not None:
            install(tracer)
        counters = parse_prometheus(telemetry.render_prometheus())
        gc.collect()
        reset_hwm()
        phase = Phase()
        for index in range(op_count):
            # A user's new graph never hits the LP memo of an earlier release.
            clear_solve_cache()
            root = tracer.root("op", index) if tracer else contextlib.nullcontext()
            start, cpu = time.perf_counter(), time.process_time()
            try:
                with root:
                    output = self._release(index)
            except Exception:  # noqa: BLE001 - a raising operation is a failed one
                traceback.print_exc()
                output = None
            op = Op(time.perf_counter() - start, time.process_time() - cpu, True, "release")
            op.ok = output is not None and self._check(index, output)
            phase.ops.append(op)
        phase.peak_rss_mb = vm_hwm_mb()
        phase.wall_s = phase.busy_s
        phase.cpu_s = sum(op.cpu_s for op in phase.ops)
        phase.counters = counter_deltas(
            counters, parse_prometheus(telemetry.render_prometheus())
        )
        return phase

    def _plan(self, index: int) -> tuple[Path, str]:
        return self.paths[index % len(self.paths)], ("cc", "sf")[index % 2]

    def _release(self, index: int):
        path, estimator_name = self._plan(index)
        graph = store.open_npz(path)
        estimator = create(estimator_name, epsilon=1.0)
        seed = inputs.op_seed(self.seed, index)
        return graph, estimator, estimator.release(graph, np.random.default_rng(seed))

    def _check(self, index: int, output) -> bool:
        path, estimator_name = self._plan(index)
        graph, estimator, release = output
        # Same estimator, same graph object: the extension is reused, so
        # re-releasing with the seed re-runs only GEM and Laplace.
        again = estimator.release(graph, np.random.default_rng(inputs.op_seed(self.seed, index)))
        return (release.true_value == self.exact[path][estimator_name]
                and again.value == release.value)


# ----------------------------------------------------------------------
class _HttpClient:
    """Minimal keep-alive HTTP/1.1 client over one socket.

    One request in flight, response bodies framed by ``Content-Length``
    (all the daemon sends).  Lighter than ``http.client``, so the client
    adds as little as possible to the latency it measures.
    """

    def __init__(self, port: int) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n")
        self._sock.sendall(head.encode("latin-1") + body)
        while b"\r\n\r\n" not in self._buffer:
            self._receive()
        head_bytes, _, self._buffer = self._buffer.partition(b"\r\n\r\n")
        lines = head_bytes.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = next(int(line.split(":", 1)[1]) for line in lines[1:]
                      if line.lower().startswith("content-length:"))
        while len(self._buffer) < length:
            self._receive()
        data, self._buffer = self._buffer[:length], self._buffer[length:]
        return status, data

    def _receive(self) -> None:
        chunk = self._sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("the daemon closed the connection")
        self._buffer += chunk

    def close(self) -> None:
        self._sock.close()


class _DaemonProcess:
    """``repro serve`` as a child process on its own state directory."""

    def __init__(self, state_dir: Path, spans_out: Path | None = None) -> None:
        self.spans_out = spans_out
        if spans_out is None:
            argv = [sys.executable, "-m", "repro"]
        else:
            argv = [sys.executable, str(ROOT / "perfbench" / "daemon_traced.py"),
                    str(spans_out)]
        argv += ["serve", "--state-dir", str(state_dir), "--host", "127.0.0.1",
                 "--port", "0", "--max-graphs", "8"]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        state_dir.mkdir(parents=True, exist_ok=True)
        self.log = open(state_dir.parent / f"{state_dir.name}.log", "wb")
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self.log
        )
        line = self.proc.stdout.readline().decode()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = int(line.split("listening on http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def call(self, method: str, path: str, body: dict | None = None):
        client = _HttpClient(self.port)
        try:
            status, data = client.request(
                method, path, b"" if body is None else json.dumps(body).encode()
            )
        finally:
            client.close()
        if status >= 300:
            raise RuntimeError(f"{method} {path}: HTTP {status}: {data!r}")
        return json.loads(data) if path != "/metrics" else data.decode()

    def stop(self) -> list:
        """Stop the daemon, wait for it, and return its spans (if traced)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        if self.spans_out is not None and self.spans_out.exists():
            return [tuple(span) for span in json.loads(self.spans_out.read_text())]
        return []


class DaemonHttp:
    """Two tenants' client threads posting releases to ``repro serve``."""

    name = "daemon_http"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.daemon: _DaemonProcess | None = None
        self._session = None

    def setup(self, directory: Path) -> None:
        self.directory = directory
        self.graphs = inputs.daemon_pool(self.seed, directory)
        self._start(traced=False)

    def _start(self, *, traced: bool) -> None:
        suffix = "traced" if traced else "plain"
        self.daemon = _DaemonProcess(
            self.directory / f"state-{suffix}",
            self.directory / "spans.json" if traced else None,
        )
        for tenant in (*inputs.DAEMON_TENANTS, "warmup"):
            self.daemon.call("PUT", f"/v1/tenants/{tenant}", {"total_epsilon": 1e9})
        for index, graph in enumerate(self.graphs):
            for estimator in ("cc", "sf"):
                self.daemon.call("POST", "/v1/release", {
                    "id": f"warmup-{index}-{estimator}", "tenant": "warmup",
                    "estimator": estimator, "epsilon": 1.0, "graph": str(graph), "seed": 0,
                })

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def measure(self, *, seconds: float | None = None, op_count: dict | None = None,
                tracer: Tracer | None = None) -> Phase:
        if tracer is not None:
            self.close()
            self._start(traced=True)
        daemon = self.daemon
        pid = daemon.proc.pid
        audit = self.directory / ("state-traced" if tracer else "state-plain") / "audit.jsonl"
        audit_before = audit.stat().st_size
        metrics_before = parse_prometheus(daemon.call("GET", "/metrics"))
        cpu_before = process_cpu_s(pid)
        records: dict[int, list] = {}
        # The clients' own garbage collection would add pauses to the
        # latencies they measure; this process runs none of the program.
        gc.disable()
        start = time.perf_counter()

        def client(tenant_index: int) -> None:
            connection = _HttpClient(daemon.port)
            mine = records[tenant_index] = []
            limit = (round(seconds * DAEMON_NOMINAL_RATE) if op_count is None
                     else op_count[tenant_index])
            try:
                for body in inputs.daemon_requests(self.seed, tenant_index, self.graphs):
                    if len(mine) >= limit:
                        break
                    payload = json.dumps(body).encode()
                    sent = time.perf_counter()
                    try:
                        status, data = connection.request("POST", "/v1/release", payload)
                    except OSError:
                        # The connection broke: a failed operation ends this caller.
                        mine.append((body, 0, b"", sent, time.perf_counter()))
                        break
                    mine.append((body, status, data, sent, time.perf_counter()))
            finally:
                connection.close()

        threads = [threading.Thread(target=client, args=(t,))
                   for t in range(len(inputs.DAEMON_TENANTS))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase = Phase(wall_s=time.perf_counter() - start)
        gc.enable()
        phase.cpu_s = process_cpu_s(pid) - cpu_before
        phase.peak_rss_mb = vm_hwm_mb(pid)
        metrics = counter_deltas(
            metrics_before, parse_prometheus(daemon.call("GET", "/metrics"))
        )
        phase.counters = metrics
        phase.op_counts = {t: len(mine) for t, mine in records.items()}

        ok_by_tenant = self._check_ledgers(records)
        for tenant_index, mine in records.items():
            for body, status, data, sent, done in mine:
                ok = status == 200 and ok_by_tenant[tenant_index]
                if ok:
                    ok = json.loads(data).get("value") == self._expected(body)
                phase.ops.append(Op(done - sent, 0.0, ok, body["tenant"]))
                phase.op_windows.append((body["id"], sent, done))
        by_completion = [d - s for _, s, d in sorted(phase.op_windows, key=lambda w: w[2])]
        phase.p50_rounds = phase.tail_rounds = [
            by_completion[first:first + DAEMON_TAIL_ROUND]
            for first in range(0, len(by_completion) - DAEMON_TAIL_ROUND + 1, DAEMON_TAIL_ROUND)
        ]

        if tracer is not None:
            phase.spans = daemon.stop()
            self.daemon = None
        appended = sum(status == 200 for mine in records.values() for _, status, *_ in mine)
        server_sum = sum(v for (name, _), v in metrics.items()
                         if name == "repro_daemon_request_seconds_sum")
        server_count = sum(v for (name, _), v in metrics.items()
                           if name == "repro_daemon_request_seconds_count")
        server_mean = server_sum / server_count if server_count else 0.0
        phase.extra["daemon.server_s"] = server_mean
        phase.extra["daemon.client_minus_server_ms"] = 1000.0 * (
            statistics.fmean(op.latency_s for op in phase.ops) - server_mean
        )
        phase.extra["daemon.audit_bytes"] = (
            (audit.stat().st_size - audit_before) / appended if appended else 0.0
        )
        return phase

    def _check_ledgers(self, records: dict[int, list]) -> dict[int, bool]:
        """Audit-log ε totals, account spend and the ε requested agree."""
        summary = self.daemon.call("GET", "/v1/audit/summary")["tenants"]
        result = {}
        for tenant_index, mine in records.items():
            tenant = inputs.DAEMON_TENANTS[tenant_index]
            requested = math.fsum(body["epsilon"] for body, status, *_ in mine
                                  if status == 200)
            spent = self.daemon.call("GET", f"/v1/tenants/{tenant}")["spent"]
            audited = summary.get(tenant, {}).get("epsilon", 0.0)
            result[tenant_index] = requested == spent == audited
        return result

    def _expected(self, body: dict) -> float:
        """The value an in-process session releases for the same request."""
        if self._session is None:
            self._session = ReleaseSession()
            self._loaded = {str(path): store.open_npz(path) for path in self.graphs}
        return self._session.query(
            body["estimator"], epsilon=body["epsilon"],
            graph=self._loaded[body["graph"]], seed=body["seed"],
        ).value


WORKLOADS = {
    cls.name: cls for cls in (DenseLP, DaemonHttp)
}
