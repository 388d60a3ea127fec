"""Each benchmark file owns its experiment IDs.

``reset_results(id)`` truncates ``benchmarks/results/<id>.txt``, so two
benchmark files sharing an ID wipe each other's tables.  The scan is
static: no benchmark runs.
"""

from __future__ import annotations

import pathlib
import re
from collections import defaultdict

_BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
_ID = re.compile(r'\b(?:reset_results|emit_table)\(\s*"([^"]+)"')


def test_experiment_ids_are_unique_per_file():
    owners: dict[str, set[str]] = defaultdict(set)
    for path in sorted(_BENCH_DIR.glob("bench_*.py")):
        for experiment in _ID.findall(path.read_text(encoding="utf-8")):
            owners[experiment].add(path.name)
    assert owners, f"no experiment IDs found under {_BENCH_DIR}"
    shared = {e: sorted(files) for e, files in owners.items() if len(files) > 1}
    assert not shared, f"experiment IDs shared by several benchmark files: {shared}"
