"""Measurement helpers shared by the workloads: operation records, the
end-to-end metric summary, ``/proc`` readers and the result stamp."""

from __future__ import annotations

import os
import platform
import re
import statistics
from dataclasses import dataclass, field
from pathlib import Path

# Name -> unit of every end-to-end metric, in the order printed:
#   setup_s        median of five set-ups (inputs generated and saved,
#                  daemon started, untimed warm-up);
#   ops_per_s      successful operations per second over the whole phase;
#   op_p50_ms      median operation latency (daemon_http: the mean over
#                  rounds of each round's median);
#   op_tail_ms     latency at the highest percentile with TAIL_BEYOND
#                  samples beyond it (percentile and count in the stamp;
#                  daemon_http: the mean of that over rounds);
#   cpu_ms_per_op  user + system CPU of the working process over the whole
#                  phase, per operation (the daemon's, for daemon_http);
#   success_ratio  1 - error rate: operations that succeeded and passed
#                  their output check, over operations attempted;
#   peak_rss_mb    VmHWM of the working process over the timed phase.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cpu_ms_per_op": "ms",
    "success_ratio": "ratio",
    "peak_rss_mb": "MiB",
}

# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


@dataclass
class Op:
    """One completed operation as the caller saw it."""

    latency_s: float
    cpu_s: float
    ok: bool
    kind: str = ""


@dataclass
class Phase:
    """One timed phase: its operations and process-level readings."""

    ops: list[Op] = field(default_factory=list)
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    # User + system CPU seconds of the working process over the phase.
    cpu_s: float = 0.0
    # Latencies of each round, where the median (and the tail) is taken per
    # round and averaged rather than taken over the whole phase.
    p50_rounds: list[list[float]] = field(default_factory=list)
    tail_rounds: list[list[float]] = field(default_factory=list)
    # Registry counter deltas over the phase, keyed (name, labels).
    counters: dict = field(default_factory=dict)
    # Per-layer metrics the workload measures itself.
    extra: dict = field(default_factory=dict)
    # Traced phases of the daemon: its spans, and (op id, sent, done) per
    # request, since its spans live in another process.
    spans: list = field(default_factory=list)
    op_windows: list = field(default_factory=list)
    # The workload's kind of each operation id, and per-caller op counts.
    op_kinds: dict = field(default_factory=dict)
    op_counts: dict = field(default_factory=dict)

    @property
    def busy_s(self) -> float:
        return sum(op.latency_s for op in self.ops)


def tail(latencies: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` at the highest percentile that leaves at
    least :data:`TAIL_BEYOND` samples beyond it (the minimum when there are
    too few samples)."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def end_to_end(phase: Phase, setup_times: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced phase, plus the details the
    result stamp records (tail percentile and sample count).

    Throughput and CPU per operation are totals over the whole phase, not
    medians over its parts: the shared host runs slow for stretches of
    ten seconds or more, and a total weighs them by how long they lasted
    where a median over parts jumps between the slow and the fast speed.
    For the same reason daemon_http's median (and tail) latency is the
    mean of its rounds' medians (tails): the median of the whole phase is
    a fast request when the slow stretches took less than half the phase
    and a slow one when they took more.
    """
    latencies = [op.latency_s for op in phase.ops]
    if phase.tail_rounds:
        tails = [tail(round_latencies) for round_latencies in phase.tail_rounds]
        tail_value = statistics.fmean(value for value, _ in tails)
        tail_pct = statistics.median(pct for _, pct in tails)
    else:
        tail_value, tail_pct = tail(latencies)
    ok = sum(op.ok for op in phase.ops)
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ok / phase.wall_s,
        "op_p50_ms": 1000.0 * statistics.fmean(
            statistics.median(round_latencies)
            for round_latencies in (phase.p50_rounds or [latencies])
        ),
        "op_tail_ms": 1000.0 * tail_value,
        "cpu_ms_per_op": 1000.0 * phase.cpu_s / len(phase.ops),
        "success_ratio": ok / len(phase.ops),
        "peak_rss_mb": phase.peak_rss_mb,
    }
    details = {
        "samples": len(latencies),
        "tail_percentile": round(tail_pct, 3),
        "setup_runs_s": setup_times,
    }
    return values, details


# ----------------------------------------------------------------------
# /proc readers
def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) in MiB.  ``ru_maxrss`` is not used: it
    survives ``execve``, so a child would report its parent's peak."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def reset_hwm() -> None:
    """Restart this process's VmHWM from its current RSS, so the timed
    phase's peak excludes set-up.  Left as is where the kernel refuses."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of process ``pid``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields after the command name start at field 3 (state); utime and
    # stime are fields 14 and 15.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# Stamp
def git_sha(root: Path) -> str:
    """HEAD's commit id read from ``root/.git``; ``"unknown"`` in a plain
    checkout without git metadata."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(root: Path) -> dict:
    import numpy
    import scipy

    from repro import kernels

    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": kernels.kernel_backend(),
        "REPRO_KERNEL": os.environ.get("REPRO_KERNEL", ""),
        "nproc": os.cpu_count(),
    }


# ----------------------------------------------------------------------
# Prometheus text -> counter deltas
_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> dict:
    """``{(name, ((label, value), ...)): float}`` for every sample line."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        labels = tuple(sorted(_LABEL.findall(match.group(3) or "")))
        samples[(match.group(1), labels)] = float(match.group(4))
    return samples


def counter_deltas(before: dict, after: dict) -> dict:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}
