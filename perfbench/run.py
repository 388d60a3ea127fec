"""The repository's benchmark: one release-pipeline workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload dense_lp --seed 1 --seconds 40 --trace 0

``--workload`` is ``dense_lp`` or ``daemon_http`` (see ``BENCHMARK.json``
for why each exists) or ``all``.
The run generates its inputs from ``--seed`` under ``.perfbench_work/``,
sets up five times (``setup_s`` is the median), measures a fixed number
of operations (``--seconds`` at the workload's nominal rate, so every run
of the same code does the same work), and checks every output.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs half as many operations twice, untraced then with layer spans
installed (:mod:`perfbench.tracer`), and prints the per-layer metrics of
the traced phase.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it stamps the result with the code and environment it
measured.  The exit code is 1 when any operation failed or any check did
not hold.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("dense_lp", "daemon_http")

sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def _load_program():
    """Import the program from this checkout's ``src`` (never from an
    installed copy); ``None`` when it is not there."""
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return None
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: repro resolved outside the checkout: {repro.__file__}",
              file=sys.stderr)
        return None
    return repro


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench.measure import END_TO_END_UNITS, end_to_end
    from perfbench.tracer import PER_LAYER_UNITS, Tracer, per_layer
    from perfbench.workloads import WORKLOADS

    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workload = WORKLOADS[name](seed)
    setup_times = []
    try:
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.close()
                shutil.rmtree(workdir / f"setup{repeat - 1}")
            directory = workdir / f"setup{repeat}"
            directory.mkdir(parents=True)
            start = time.perf_counter()
            workload.setup(directory.relative_to(ROOT))
            setup_times.append(time.perf_counter() - start)
        # A traced run measures the per-layer metrics on the second of two
        # phases of the same operations; each is half as long.
        phase = workload.measure(seconds=seconds / 2 if trace else seconds)
        phases = [phase]
        if trace:
            tracer = Tracer()
            traced = workload.measure(op_count=phase.op_counts or len(phase.ops),
                                      tracer=tracer)
            phases.append(traced)
            values = per_layer(traced, tracer, overhead=traced.wall_s / phase.wall_s)
            units, details = PER_LAYER_UNITS, {}
        else:
            values, details = end_to_end(phase, setup_times)
            units = END_TO_END_UNITS
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    details.update({k: v for p in phases for k, v in p.extra.items() if "." not in k})
    return {
        "workload": name,
        "correct": all(op.ok for p in phases for op in p.ops),
        "attempted": sum(len(p.ops) for p in phases),
        "failed": sum(not op.ok for p in phases for op in p.ops),
        "metrics": {key: {"value": float(values[key]), "unit": unit}
                    for key, unit in units.items()},
        "details": details,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like on any other exit, so the daemon child is
    # stopped and waited for and the inputs are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if _load_program() is None:
        return 2
    from perfbench.measure import stamp

    os.chdir(ROOT)
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(f"{args.workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace}): "
              f"{result['attempted']} operations, {result['failed']} failed")
        for key, metric in result["metrics"].items():
            print(f"  {key:<40} {metric['value']:>16.6g} {metric['unit']}")
        print(json.dumps({"stamp": stamp(ROOT), "details": result["details"]}, sort_keys=True))
        print(json.dumps({key: result[key] for key in
                          ("correct", "attempted", "failed", "metrics")}), flush=True)
        return 0 if result["correct"] else 1

    # Each workload in a process of its own, so one's memory cannot show
    # in the next one's peak_rss_mb.
    results = []
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        print(child.stdout, end="", flush=True)
        lines = child.stdout.strip().splitlines()
        try:
            results.append((name, json.loads(lines[-1])))
        except (IndexError, ValueError):
            results.append((name, {"correct": False, "attempted": 1, "failed": 1,
                                   "metrics": {}}))
    correct = all(r["correct"] for _, r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{name}.{key}": metric
                    for name, r in results for key, metric in r["metrics"].items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
