"""The benchmark's inputs are a pure function of ``--seed``.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q

Sizes are shrunk through the generators' size arguments; the seeding and
the request plans are the benchmark's own.
"""

from __future__ import annotations

import itertools

import numpy as np

from perfbench import inputs
from repro.graphs.store import open_npz


def _fingerprints(paths) -> list[str]:
    return [open_npz(path).fingerprint() for path in paths]


def test_dense_pool_fingerprints_follow_the_seed(tmp_path):
    runs = {}
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        (tmp_path / label).mkdir()
        runs[label] = _fingerprints(inputs.dense_pool(seed, tmp_path / label, count=4))
    assert runs["a"] == runs["b"]
    assert len(set(runs["a"])) == 4  # every release gets a distinct graph
    assert runs["a"] != runs["c"]


def test_daemon_inputs_follow_the_seed(tmp_path):
    graphs = inputs.daemon_pool(8, tmp_path, n=500)
    assert _fingerprints(graphs) == _fingerprints(inputs.daemon_pool(8, tmp_path, n=500))

    def plan(seed, tenant):
        return list(itertools.islice(inputs.daemon_requests(seed, tenant, graphs), 50))

    assert plan(8, 0) == plan(8, 0)
    assert plan(8, 0) != plan(9, 0)
    assert plan(8, 0) != plan(8, 1)
    assert {body["epsilon"] for body in plan(8, 0)} <= set(inputs.DAEMON_EPSILONS)


def test_release_seeds_follow_the_seed():
    seeds = [inputs.op_seed(1, i) for i in range(100)]
    assert seeds == [inputs.op_seed(1, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert seeds != [inputs.op_seed(2, i) for i in range(100)]
    assert np.all(np.asarray(seeds) >= 0)
