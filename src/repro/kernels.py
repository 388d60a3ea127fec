"""Pluggable integer-kernel backends for the hot array loops.

The compact pipeline's innermost integer kernels — the connected-
component union-find, the forest/acyclicity check, and the Kruskal-style
greedy forest selections used by column-generation pricing — live here
behind a tiny dispatch layer:

* ``numpy`` (the default): a vectorized numpy labeling plus
  sequential union-find loops over Python lists (path halving, union by
  min root).  This backend has no dependencies beyond numpy and is
  always available.
* ``numba``: ``@njit``-compiled sequential loops for the same kernels.
  Requires the optional ``numba`` extra (``pip install .[fast]``).

Select with the ``REPRO_KERNEL`` environment variable (``numpy`` or
``numba``).  Every kernel is integer-only (or performs float additions
in the exact same sequential order on both backends), so the two
backends are **bit-identical** by construction — pinned by the
differential tests in ``tests/test_kernels.py``.  Asking for ``numba``
without numba installed raises :class:`KernelBackendError` loudly at
first use rather than silently falling back.
"""

from __future__ import annotations

import os

import numpy as np

from . import telemetry

__all__ = [
    "KernelBackendError",
    "kernel_backend",
    "connected_component_labels",
    "is_forest",
    "max_weight_forest",
    "greedy_capped_forest",
]

_ENV_VAR = "REPRO_KERNEL"
_VALID = ("numpy", "numba")

_BACKEND_INFO = telemetry.gauge(
    "repro_kernel_backend_info",
    "Active integer-kernel backend (value 1 for the selected backend)",
    labels=("backend",),
)

_backend: str | None = None


class KernelBackendError(RuntimeError):
    """Raised when ``REPRO_KERNEL`` names an unusable backend."""


def kernel_backend() -> str:
    """Resolve the active backend from ``REPRO_KERNEL`` (memoized).

    Returns ``"numpy"`` (the default) or ``"numba"``.  The resolution is
    cached process-wide; tests use :func:`_reset_backend_cache` after
    monkeypatching the environment.
    """
    global _backend
    if _backend is None:
        requested = os.environ.get(_ENV_VAR, "numpy").strip().lower()
        if requested not in _VALID:
            raise KernelBackendError(
                f"{_ENV_VAR}={requested!r} is not a valid kernel backend; "
                f"choose one of {', '.join(_VALID)}"
            )
        if requested == "numba":
            try:
                _numba_kernels()
            except ImportError as exc:
                raise KernelBackendError(
                    f"{_ENV_VAR}=numba requires the optional numba "
                    f"dependency (pip install 'repro-kalemaj-rst23[fast]'); "
                    f"import failed: {exc}"
                ) from exc
        _backend = requested
        _BACKEND_INFO.set(1, backend=_backend)
    return _backend


def _reset_backend_cache() -> None:
    """Forget the resolved backend (test hook)."""
    global _backend
    _backend = None


# ----------------------------------------------------------------------
# Connected-component labels (canonical min-vertex labeling)
# ----------------------------------------------------------------------
def connected_component_labels(
    n: int, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Label each vertex with its component's minimum vertex index.

    The output is canonical — it depends only on the edge set, not the
    algorithm — so every backend produces the identical int64 array.
    """
    if kernel_backend() == "numba":
        return _numba_kernels()["labels"](
            np.int64(n),
            np.ascontiguousarray(u, dtype=np.int64),
            np.ascontiguousarray(v, dtype=np.int64),
        )
    return _labels_numpy(n, u, v)


def _labels_numpy(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized hook-and-compress union-find (Shiloach–Vishkin style).

    Alternate full pointer jumping with a vectorized "hook every cross
    edge to the smaller root" step (``np.minimum.at`` resolves
    conflicting hooks).  Roots only ever decrease, so the pointer
    structure stays acyclic and the loop merges at least one pair of
    roots per round — O(log n) rounds in practice, each a constant
    number of O(n + m) array ops.
    """
    parent = np.arange(n, dtype=np.int64)
    while True:
        # Full path compression by pointer doubling.
        while True:
            grandparent = parent[parent]
            if np.array_equal(grandparent, parent):
                break
            parent = grandparent
        pu, pv = parent[u], parent[v]
        cross = pu != pv
        if not cross.any():
            break
        pu, pv = pu[cross], pv[cross]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        # Edges already inside one component stay that way; drop them
        # so later rounds touch only the still-merging frontier.
        u, v = u[cross], v[cross]
    return parent


# ----------------------------------------------------------------------
# Acyclicity check
# ----------------------------------------------------------------------
def is_forest(n: int, u: np.ndarray, v: np.ndarray) -> bool:
    """True when the edge arrays are acyclic (union-find sweep)."""
    if kernel_backend() == "numba":
        return bool(
            _numba_kernels()["is_forest"](
                np.int64(n),
                np.ascontiguousarray(u, dtype=np.int64),
                np.ascontiguousarray(v, dtype=np.int64),
            )
        )
    # Path-halving find on both endpoints, then union by min root (the
    # numba kernels' policy), inlined over Python lists.
    parent = list(range(n))
    for a, b in zip(u.tolist(), v.tolist()):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a == b:
            return False
        if a < b:
            parent[b] = a
        else:
            parent[a] = b
    return True


# ----------------------------------------------------------------------
# Greedy forest selections (column-generation pricing inner loops)
# ----------------------------------------------------------------------
def max_weight_forest(
    n: int, u: np.ndarray, v: np.ndarray, weights: np.ndarray
) -> tuple[list[int], float]:
    """Matroid-greedy maximum-weight forest (strictly positive weights).

    The float total is accumulated edge by edge in the identical
    sequential order on both backends, so the result is bit-identical.
    """
    order = np.argsort(-weights, kind="stable")
    if kernel_backend() == "numba":
        chosen, total = _numba_kernels()["max_weight_forest"](
            np.int64(n),
            np.ascontiguousarray(u, dtype=np.int64),
            np.ascontiguousarray(v, dtype=np.int64),
            np.ascontiguousarray(weights, dtype=np.float64),
            np.ascontiguousarray(order, dtype=np.int64),
        )
        return chosen.tolist(), float(total)
    # Python lists, not numpy scalars, in the loop: indexing them is
    # several times cheaper.
    parent = list(range(n))
    ul, vl = u.tolist(), v.tolist()
    wl = np.asarray(weights, dtype=np.float64).tolist()
    chosen_list: list[int] = []
    total = 0.0
    for j in order.tolist():
        w = wl[j]
        if w <= 0:
            break
        a, b = ul[j], vl[j]
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            if a < b:
                parent[b] = a
            else:
                parent[a] = b
            chosen_list.append(j)
            total += w
    return chosen_list, total


def greedy_capped_forest(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    order: list[int],
    caps: np.ndarray,
) -> tuple[list[int], np.ndarray]:
    """Greedy forest respecting per-vertex degree caps."""
    if kernel_backend() == "numba":
        chosen, degree = _numba_kernels()["greedy_capped_forest"](
            np.int64(n),
            np.ascontiguousarray(u, dtype=np.int64),
            np.ascontiguousarray(v, dtype=np.int64),
            np.ascontiguousarray(order, dtype=np.int64),
            np.ascontiguousarray(caps, dtype=np.int64),
        )
        return chosen.tolist(), degree
    parent = list(range(n))
    ul, vl, capl = u.tolist(), v.tolist(), caps.tolist()
    degree = [0] * n
    chosen_list: list[int] = []
    for j in order:
        a, b = ul[j], vl[j]
        if degree[a] >= capl[a] or degree[b] >= capl[b]:
            continue
        ra, rb = a, b
        while parent[ra] != ra:
            parent[ra] = parent[parent[ra]]
            ra = parent[ra]
        while parent[rb] != rb:
            parent[rb] = parent[parent[rb]]
            rb = parent[rb]
        if ra == rb:
            continue
        if ra < rb:
            parent[rb] = ra
        else:
            parent[ra] = rb
        chosen_list.append(j)
        degree[a] += 1
        degree[b] += 1
    return chosen_list, np.array(degree, dtype=np.int64)


# ----------------------------------------------------------------------
# numba backend (compiled lazily on first use)
# ----------------------------------------------------------------------
_numba_cache: dict | None = None


def _numba_kernels() -> dict:
    """Compile and memoize the njit kernels (raises ImportError without
    numba installed)."""
    global _numba_cache
    if _numba_cache is not None:
        return _numba_cache
    from numba import njit  # noqa: PLC0415 - optional dependency

    @njit(cache=True)
    def _find(parent, a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    @njit(cache=True)
    def _labels(n, u, v):
        # Sequential union-find with union-by-min-root, then a full
        # compression pass; the min-root policy makes every root the
        # minimum vertex of its component, matching the canonical
        # numpy labeling exactly.
        parent = np.arange(n, dtype=np.int64)
        for k in range(u.size):
            ra = _find(parent, u[k])
            rb = _find(parent, v[k])
            if ra != rb:
                if ra < rb:
                    parent[rb] = ra
                else:
                    parent[ra] = rb
        out = np.empty(n, dtype=np.int64)
        for a in range(n):
            out[a] = _find(parent, a)
        return out

    @njit(cache=True)
    def _is_forest(n, u, v):
        parent = np.arange(n, dtype=np.int64)
        for k in range(u.size):
            ra = _find(parent, u[k])
            rb = _find(parent, v[k])
            if ra == rb:
                return False
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb
        return True

    @njit(cache=True)
    def _max_weight_forest(n, u, v, weights, order):
        parent = np.arange(n, dtype=np.int64)
        chosen = np.empty(order.size, dtype=np.int64)
        count = 0
        total = 0.0
        for i in range(order.size):
            j = order[i]
            w = weights[j]
            if w <= 0:
                break
            ra = _find(parent, u[j])
            rb = _find(parent, v[j])
            if ra != rb:
                if ra < rb:
                    parent[rb] = ra
                else:
                    parent[ra] = rb
                chosen[count] = j
                count += 1
                total += w
        return chosen[:count].copy(), total

    @njit(cache=True)
    def _greedy_capped_forest(n, u, v, order, caps):
        parent = np.arange(n, dtype=np.int64)
        degree = np.zeros(n, dtype=np.int64)
        chosen = np.empty(order.size, dtype=np.int64)
        count = 0
        for i in range(order.size):
            j = order[i]
            a, b = u[j], v[j]
            if degree[a] >= caps[a] or degree[b] >= caps[b]:
                continue
            ra = _find(parent, a)
            rb = _find(parent, b)
            if ra == rb:
                continue
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb
            chosen[count] = j
            count += 1
            degree[a] += 1
            degree[b] += 1
        return chosen[:count].copy(), degree

    _numba_cache = {
        "labels": _labels,
        "is_forest": _is_forest,
        "max_weight_forest": _max_weight_forest,
        "greedy_capped_forest": _greedy_capped_forest,
    }
    return _numba_cache
