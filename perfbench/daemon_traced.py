"""Run ``repro serve`` with the benchmark's layer spans installed.

Usage: ``python3 perfbench/daemon_traced.py SPANS_JSON serve [serve args]``

Wraps the layer entry points (see :mod:`perfbench.tracer`), runs the
``repro`` command line with the remaining arguments, and when the daemon
has shut down (SIGTERM) writes every span it recorded to ``SPANS_JSON``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.tracer import Tracer, install  # noqa: E402
from repro.__main__ import main  # noqa: E402


def run(argv: list[str]) -> int:
    spans_out, command = Path(argv[0]), argv[1:]
    tracer = Tracer()
    install(tracer)
    code = main(command)
    spans_out.write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
