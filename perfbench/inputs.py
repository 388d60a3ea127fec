"""Seeded inputs of the two workloads.

Every function here is a pure function of its seed (and the directory it
writes to): the same seed gives graphs with identical fingerprints and
identical request plans, and a different seed gives different ones
(pinned by ``perfbench/tests/test_inputs.py``).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.graphs.generators import erdos_renyi_compact, planted_components_compact
from repro.graphs.compact import CompactGraph
from repro.graphs.store import save_npz

# The dense graphs' structure is drawn from this fixed seed; --seed rotates
# their vertex labels (see dense_pool).
STRUCTURE_SEED = 0

# dense_lp: distinct planted graphs, 8 components x 30 vertices, p = 0.3.
DENSE_COMPONENTS, DENSE_SIZE, DENSE_P = 8, 30, 0.3
DENSE_POOL = 64

# daemon_http: 4 resident graphs, 2 tenants.
DAEMON_N, DAEMON_GRAPHS, DAEMON_C = 20_000, 4, 0.35
DAEMON_TENANTS = ("tenant0", "tenant1")
# Binary fractions: ledger, audit and request sums are exact.
DAEMON_EPSILONS = (0.125, 0.25, 0.5)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def op_seed(seed: int, index: int) -> int:
    """Release seed of operation ``index`` of a run with ``seed``."""
    return int(np.random.SeedSequence([seed, 7, index]).generate_state(1)[0])


def _rotated(graph: CompactGraph, offset: int) -> CompactGraph:
    """``graph`` with every vertex ``v`` relabelled ``(v + offset) mod n``."""
    n = graph.number_of_vertices()
    u, v = graph.edge_arrays()
    return CompactGraph.from_edge_arrays(n, (u + offset) % n, (v + offset) % n)


# ----------------------------------------------------------------------
def dense_pool(seed: int, directory: Path, count: int = DENSE_POOL) -> list[Path]:
    """Write ``count`` distinct planted graphs; their paths.

    The structure is fixed and ``seed`` rotates the labels by whole
    components, so that every graph keeps its components' LP work: drawn
    afresh per seed, the 20-odd graphs of a run cost 15% more on one seed
    than on another.
    """
    rng = _rng(STRUCTURE_SEED, 2)
    rotation = _rng(seed, 2)
    paths = []
    for index in range(count):
        graph = planted_components_compact([DENSE_SIZE] * DENSE_COMPONENTS, DENSE_P, rng)
        graph = _rotated(graph, DENSE_SIZE * int(rotation.integers(1, DENSE_COMPONENTS)))
        path = directory / f"planted_{index:03d}.npz"
        save_npz(graph, path)
        paths.append(path)
    return paths


# ----------------------------------------------------------------------
def daemon_pool(seed: int, directory: Path, n: int = DAEMON_N) -> list[Path]:
    paths = []
    for index in range(DAEMON_GRAPHS):
        graph = erdos_renyi_compact(n, DAEMON_C / n, _rng(seed, 8, index))
        path = directory / f"resident_{index}.npz"
        save_npz(graph, path)
        paths.append(path)
    return paths


def daemon_requests(seed: int, tenant_index: int, graphs: list[Path]):
    """Endless deterministic ``POST /v1/release`` bodies of one tenant."""
    rng = _rng(seed, 9, tenant_index)
    tenant = DAEMON_TENANTS[tenant_index]
    index = 0
    while True:
        yield {
            "id": f"{tenant}-{index:06d}",
            "tenant": tenant,
            "estimator": ("cc", "sf")[int(rng.integers(2))],
            "epsilon": float(DAEMON_EPSILONS[int(rng.integers(len(DAEMON_EPSILONS)))]),
            "graph": str(graphs[int(rng.integers(len(graphs)))]),
            "seed": int(rng.integers(2**31 - 1)),
        }
        index += 1
