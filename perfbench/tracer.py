"""Span tracing for the traced benchmark run, installed from outside the
program.

:func:`install` wraps each layer's entry points (the functions and
methods listed in :data:`LAYER_ENTRY_POINTS`) at every place the
program binds them: the defining module or class, plus every ``repro.*``
module that imported the function by name.  The program itself is not
edited and its own ``repro.telemetry`` spans stay disabled.

Each span records its name, start, end, parent span, operation id and an
optional tag (work done, an LP status, a stats delta).  Parents come from
a context variable, so asyncio tasks and threads keep separate stacks; a
call that starts on a fresh executor thread finds its parent through the
operation id it serves.  Spans stay in memory until the run ends.

Self time is a span's duration minus its direct children's durations,
the same partition as :func:`repro.telemetry.aggregate_stage_times`, so
the self times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import importlib
import inspect
import itertools
import os
import statistics
import sys
import time

# (module, owner attribute or None, function name, span name, tag kind).
# The span name's prefix up to the first dot is the layer.
LAYER_ENTRY_POINTS = (
    ("repro.kernels", None, "connected_component_labels", "kernels.labels", "edges"),
    ("repro.kernels", None, "is_forest", "kernels.is_forest", "edges"),
    ("repro.kernels", None, "max_weight_forest", "kernels.max_weight_forest", "edges"),
    ("repro.kernels", None, "greedy_capped_forest", "kernels.greedy_capped_forest", "edges"),
    ("repro.graphs.store", None, "open_npz", "graphs.open", None),
    ("repro.data.datasets", None, "resolve_graph_ref", "graphs.resolve", None),
    ("repro.graphs.compact", "CompactGraph", "apply_edits", "graphs.apply_edits", None),
    ("repro.graphs.compact", "CompactGraph", "fingerprint", "graphs.fingerprint", None),
    ("repro.lp.forest_core", None, "solve_component", "lp.solve", "status"),
    ("repro.lp.forest_core", None, "violated_forest_sets", "lp.separation", None),
    ("repro.flow.maxflow", "FlowNetwork", "max_flow", "lp.maxflow", None),
    ("repro.core.extension", None, "extension_for", "extension.build", None),
    ("repro.core.extension", "CompactSpanningForestExtension", "_prepare",
     "extension.prepare", None),
    ("repro.core.extension", "_ComponentwiseExtension", "values_for_grid",
     "extension.grid", None),
    ("repro.core.extension", "_ComponentwiseExtension", "_batched_tree_pass",
     "extension.batched_trees", None),
    ("repro.core.extension", "_ComponentwiseExtension", "component_fingerprints",
     "extension.component_fingerprints", None),
    ("repro.core.extension", "_ComponentwiseExtension", "preload_component_tables",
     "extension.preload", None),
    ("repro.core.extension", "_ComponentwiseExtension", "preload_values",
     "extension.preload", None),
    ("repro.core.extension", "_ComponentwiseExtension", "export_component_tables",
     "cache.export", None),
    ("repro.mechanisms.gem", None, "generalized_exponential_mechanism",
     "mechanisms.gem", None),
    ("repro.mechanisms.laplace", None, "laplace_noise", "mechanisms.laplace", None),
    ("repro.service.session", "ReleaseSession", "query", "session.query", "session"),
    ("repro.service.cache", None, "extension_key", "cache.key", None),
    ("repro.service.cache", None, "component_extension_key", "cache.component_key", None),
    ("repro.service.cache", "ExtensionCache", "load", "cache.load", None),
    ("repro.service.cache", "ExtensionCache", "load_component", "cache.load", None),
    ("repro.service.cache", "ExtensionCache", "store", "cache.store", None),
    ("repro.service.cache", "ExtensionCache", "store_component", "cache.store", None),
    ("repro.service.batch", "_RequestServer", "serve_line", "serving.line", None),
    ("repro.service.batch", "_RequestServer", "serve_request", "serving.request", "op_body"),
    ("repro.service.streaming", None, "parse_edit_event", "serving.parse_edits", None),
    ("repro.service.daemon.app", "ReleaseDaemon", "_post_release", "daemon.request",
     "op_http"),
    ("repro.service.daemon.audit", "AuditLog", "append_release", "daemon.audit_append",
     None),
    ("repro.service.daemon.accounts", "AccountStore", "get_or_create",
     "daemon.account_load", None),
    ("repro.service.daemon.accounts", "AccountStore", "save", "daemon.account_save",
     "account_bytes"),
    ("repro.service.daemon.http", None, "json_response_bytes", "daemon.respond",
     "op_response"),
)

LAYERS = (
    "kernels", "graphs", "lp", "extension", "mechanisms", "session", "cache",
    "serving", "daemon",
)

_SESSION_COUNTERS = ("graph_hits", "graph_misses", "disk_warm_starts")


class Tracer:
    """In-memory span recorder.

    ``spans`` holds ``(index, name, start, end, parent, op, tag)`` tuples
    with ``time.perf_counter`` times, which on Linux read the system-wide
    monotonic clock, so spans from the daemon process line up with the
    client's request times.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._indices = itertools.count()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        # Operation id -> (index, op) of its outermost open span, for calls
        # that begin on an executor thread with no inherited context.
        self._open_ops: dict = {}

    def _enter(self, op_hint):
        parent = self._current.get()
        if parent is None and op_hint is not None:
            parent = self._open_ops.get(op_hint)
        op = parent[1] if parent is not None else op_hint
        index = next(self._indices)
        token = self._current.set((index, op))
        root = parent is None and op is not None
        if root:
            self._open_ops[op] = (index, op)
        return index, (parent[0] if parent is not None else None), op, token, root

    def _exit(self, name, entered, start, tag) -> None:
        end = time.perf_counter()
        index, parent, op, token, root = entered
        self._current.reset(token)
        if root:
            self._open_ops.pop(op, None)
        self.spans.append((index, name, start, end, parent, op, tag))

    def root(self, name: str, op):
        """Context manager for one operation's root span."""
        return _RootSpan(self, name, op)


class _RootSpan:
    def __init__(self, tracer: Tracer, name: str, op) -> None:
        self._tracer, self._name, self._op = tracer, name, op

    def __enter__(self):
        self._entered = self._tracer._enter(self._op)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self._tracer._exit(self._name, self._entered, self._start, None)
        return False


# ----------------------------------------------------------------------
# Tags: what a span records besides its timing.
def _tag_edges(args, kwargs, result, before):
    return int(len(args[1])) if len(args) > 1 else None


def _tag_status(args, kwargs, result, before):
    return getattr(result, "status", None)


def _session_counts(session) -> tuple:
    return tuple(getattr(session.stats, name) for name in _SESSION_COUNTERS)


def _tag_session(args, kwargs, result, before):
    after = _session_counts(args[0])
    return [b - a for a, b in zip(before, after)]


def _tag_account_bytes(args, kwargs, result, before):
    store, account = args[0], args[1]
    try:
        return os.path.getsize(store.path_for(account.tenant))
    except OSError:
        return None


_TAGS = {
    "edges": _tag_edges,
    "status": _tag_status,
    "session": _tag_session,
    "account_bytes": _tag_account_bytes,
}


def _op_hint(kind, args):
    """Operation id a call serves, for spans that may open a stack."""
    if kind == "op_body":  # _RequestServer.serve_request(self, request, index)
        request = args[1] if len(args) > 1 else None
        return request.get("id") if isinstance(request, dict) else None
    if kind == "op_response":  # json_response_bytes(status, payload, ...)
        payload = args[1] if len(args) > 1 else None
        return payload.get("id") if isinstance(payload, dict) else None
    if kind == "op_http":  # ReleaseDaemon._post_release(self, http_request)
        try:
            body = args[1].json_body()
        except (ValueError, AttributeError, IndexError):
            return None
        return body.get("id") if isinstance(body, dict) else None
    return None


def _wrap(tracer: Tracer, function, name: str, kind):
    tag_fn = _TAGS.get(kind)
    before_fn = _session_counts if kind == "session" else None
    hint = kind in ("op_body", "op_http", "op_response")

    if inspect.iscoroutinefunction(function):
        @functools.wraps(function)
        async def async_wrapper(*args, **kwargs):
            entered = tracer._enter(_op_hint(kind, args) if hint else None)
            start = time.perf_counter()
            try:
                return await function(*args, **kwargs)
            finally:
                tracer._exit(name, entered, start, None)

        return async_wrapper

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        before = before_fn(args[0]) if before_fn is not None else None
        entered = tracer._enter(_op_hint(kind, args) if hint else None)
        start = time.perf_counter()
        result = None
        try:
            result = function(*args, **kwargs)
            return result
        finally:
            tag = tag_fn(args, kwargs, result, before) if tag_fn else None
            tracer._exit(name, entered, start, tag)

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`LAYER_ENTRY_POINTS` for ``tracer``."""
    for module_name, owner_name, attr, name, kind in LAYER_ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if owner_name is None:
            original = getattr(module, attr)
            wrapped = _wrap(tracer, original, name, kind)
            # Every import site: modules that did ``from x import attr``.
            for other_name, other in list(sys.modules.items()):
                if other is None or not other_name.startswith("repro"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)
        else:
            owner = getattr(module, owner_name)
            setattr(owner, attr, _wrap(tracer, inspect.getattr_static(owner, attr), name, kind))


# ----------------------------------------------------------------------
# Aggregation

# Name -> (unit, better) of every per-layer metric.
PER_LAYER_UNITS_BETTER = {
    "kernels.calls": ("count", "lower"),
    "kernels.self_s": ("s", "lower"),
    "kernels.edges_per_s": ("edges/s", "higher"),
    "graphs.open_s": ("s", "lower"),
    "graphs.apply_edits_s": ("s", "lower"),
    "graphs.fingerprint_s": ("s", "lower"),
    "lp.solves": ("count", "lower"),
    "lp.solve_self_s": ("s", "lower"),
    "lp.solve_p50_ms": ("ms", "lower"),
    "lp.separation_s": ("s", "lower"),
    "lp.maxflow_calls": ("count", "lower"),
    "lp.memo_hit_ratio": ("ratio", "higher"),
    "lp.status.exact": ("count", "higher"),
    "lp.status.snapped": ("count", "lower"),
    "lp.status.approx": ("count", "lower"),
    "extension.prepare_s": ("s", "lower"),
    "extension.batched_trees_s": ("s", "lower"),
    "extension.batched_tree_components": ("count", "higher"),
    "extension.grid_self_s": ("s", "lower"),
    "extension.repairs": ("count", "lower"),
    "extension.repair_success_ratio": ("ratio", "higher"),
    "mechanisms.gem_s": ("s", "lower"),
    "mechanisms.laplace_s": ("s", "lower"),
    # Mean duration of one session query of each class.
    "session.query_s.first_touch": ("s", "lower"),
    "session.query_s.warm_hit": ("s", "lower"),
    "session.query_s.disk_warm": ("s", "lower"),
    "session.query_s.new_version": ("s", "lower"),
    "session.graph_hit_ratio": ("ratio", "higher"),
    "session.evictions": ("count", "lower"),
    "cache.load_s": ("s", "lower"),
    "cache.store_s": ("s", "lower"),
    "cache.component_key_s": ("s", "lower"),
    "cache.component_keys": ("count", "lower"),
    "cache.export_s": ("s", "lower"),
    "cache.component_hit_ratio": ("ratio", "higher"),
    "cache.promotions": ("count", "lower"),
    "cache.bytes_written": ("bytes", "lower"),
    "serving.line_self_s": ("s", "lower"),
    # Mean server time per request, from repro_daemon_request_seconds.
    "daemon.server_s": ("s", "lower"),
    "daemon.client_minus_server_ms": ("ms", "lower"),
    "daemon.loop_wait_s": ("s", "lower"),
    "daemon.audit_append_s": ("s", "lower"),
    "daemon.account_save_s": ("s", "lower"),
    # Mean bytes written per account save and appended per audited release.
    "daemon.account_bytes": ("bytes", "lower"),
    "daemon.audit_bytes": ("bytes", "lower"),
    **{f"{layer}.self_share": ("ratio", "lower") for layer in LAYERS},
    "telemetry.attributed_share": ("ratio", "higher"),
    "telemetry.trace_overhead": ("ratio", "lower"),
}
PER_LAYER_UNITS = {name: unit for name, (unit, _) in PER_LAYER_UNITS_BETTER.items()}

def self_times(spans) -> dict[int, float]:
    """``{span index: self seconds}`` (duration minus direct children)."""
    child = {}
    for index, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start)
    return {
        index: max((end - start) - child.get(index, 0.0), 0.0)
        for index, _, start, end, _, _, _ in spans
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans,
    counters: dict,
    busy_seconds: float,
    op_kinds: dict | None = None,
) -> dict[str, float]:
    """Per-layer metrics from one traced phase.

    ``counters`` maps ``(metric, labels)`` to the phase's delta of the
    program's own registry series; ``busy_seconds`` is the callers' summed
    operation latency, the denominator of every share; ``op_kinds`` maps
    an operation id to the workload's name for it (used to split session
    queries into classes).
    """
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)

    def total(name):
        return sum(s[3] - s[2] for s in by_name.get(name, ()))

    def self_total(prefix):
        return sum(
            selfs[s[0]] for n, group in by_name.items()
            if n == prefix or n.startswith(prefix + ".") for s in group
        )

    def count(metric, **labels):
        want = tuple(sorted(labels.items()))
        return sum(
            value for (name, key), value in counters.items()
            if name == metric and all(item in key for item in want)
        )

    out: dict[str, float] = {}
    kernel_spans = [s for n, g in by_name.items() if n.startswith("kernels.") for s in g]
    kernel_self = self_total("kernels")
    out["kernels.calls"] = float(len(kernel_spans))
    out["kernels.self_s"] = kernel_self
    out["kernels.edges_per_s"] = _ratio(sum(s[6] or 0 for s in kernel_spans), kernel_self)

    out["graphs.open_s"] = total("graphs.open")
    out["graphs.apply_edits_s"] = total("graphs.apply_edits")
    out["graphs.fingerprint_s"] = total("graphs.fingerprint")

    solves = by_name.get("lp.solve", [])
    out["lp.solves"] = float(len(solves))
    out["lp.solve_self_s"] = sum(selfs[s[0]] for s in solves)
    out["lp.solve_p50_ms"] = (
        1000.0 * statistics.median(s[3] - s[2] for s in solves) if solves else 0.0
    )
    out["lp.separation_s"] = total("lp.separation")
    out["lp.maxflow_calls"] = float(len(by_name.get("lp.maxflow", [])))
    hits = count("repro_lp_memo_total", result="hit")
    out["lp.memo_hit_ratio"] = _ratio(hits, hits + count("repro_lp_memo_total", result="miss"))
    for status in ("exact", "snapped", "approx"):
        out[f"lp.status.{status}"] = float(sum(1 for s in solves if s[6] == status))

    out["extension.prepare_s"] = total("extension.prepare")
    out["extension.batched_trees_s"] = total("extension.batched_trees")
    out["extension.batched_tree_components"] = count("repro_extension_batched_trees_total")
    out["extension.grid_self_s"] = sum(selfs[s[0]] for s in by_name.get("extension.grid", ()))
    repairs = count("repro_extension_repairs_total")
    out["extension.repairs"] = repairs
    out["extension.repair_success_ratio"] = _ratio(
        count("repro_extension_repairs_total", outcome="success"), repairs
    )

    out["mechanisms.gem_s"] = total("mechanisms.gem")
    out["mechanisms.laplace_s"] = total("mechanisms.laplace")

    classes: dict[str, list[float]] = {
        "first_touch": [], "warm_hit": [], "disk_warm": [], "new_version": []
    }
    for span in by_name.get("session.query", ()):
        classes[_query_class(span, op_kinds or {})].append(span[3] - span[2])
    for label, durations in classes.items():
        out[f"session.query_s.{label}"] = statistics.fmean(durations) if durations else 0.0
    graph_hits = count("repro_session_graph_lookups_total", result="hit")
    out["session.graph_hit_ratio"] = _ratio(
        graph_hits, graph_hits + count("repro_session_graph_lookups_total", result="miss")
    )
    out["session.evictions"] = count("repro_session_evictions_total")

    out["cache.load_s"] = total("cache.load")
    out["cache.store_s"] = total("cache.store")
    out["cache.component_key_s"] = total("cache.component_key")
    out["cache.component_keys"] = float(len(by_name.get("cache.component_key", [])))
    out["cache.export_s"] = total("cache.export")
    component_hits = count("repro_session_component_lookups_total", result="hit")
    out["cache.component_hit_ratio"] = _ratio(
        component_hits,
        component_hits + count("repro_session_component_lookups_total", result="miss"),
    )
    out["cache.promotions"] = count("repro_session_component_promotions_total")

    out["serving.line_self_s"] = self_total("serving")

    out["daemon.loop_wait_s"] = total("daemon.loop_wait")
    out["daemon.audit_append_s"] = total("daemon.audit_append")
    saves = by_name.get("daemon.account_save", [])
    out["daemon.account_save_s"] = total("daemon.account_save")
    sizes = [s[6] for s in saves if s[6] is not None]
    out["daemon.account_bytes"] = statistics.fmean(sizes) if sizes else 0.0

    attributed = 0.0
    for layer in LAYERS:
        layer_self = self_total(layer)
        attributed += layer_self
        out[f"{layer}.self_share"] = _ratio(layer_self, busy_seconds)
    out["telemetry.attributed_share"] = _ratio(attributed, busy_seconds)
    return out


def _query_class(span, op_kinds: dict) -> str:
    hits, misses, disk_warm = span[6] or (0, 0, 0)
    if misses == 0:
        return "warm_hit"
    if disk_warm:
        return "disk_warm"
    return "new_version" if op_kinds.get(span[5]) == "version" else "first_touch"


def per_layer(phase, tracer: Tracer, *, overhead: float) -> dict[str, float]:
    """Every per-layer metric of a traced phase.

    In-process phases use ``tracer``'s spans; the daemon's come from its
    own process in ``phase.spans``.  Only spans inside a measured operation
    count, so output checks and warm-up requests leave no trace.
    """
    if phase.op_windows:
        measured = {op for op, _, _ in phase.op_windows}
        spans = [s for s in phase.spans if s[5] in measured]
        spans += _loop_waits(spans, phase.op_windows)
    else:
        spans = [s for s in tracer.spans if s[5] is not None]
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    values.update(layer_metrics(spans, phase.counters, phase.busy_s, phase.op_kinds))
    values.update({k: v for k, v in phase.extra.items() if k in values})
    values["telemetry.trace_overhead"] = overhead
    return values


def _loop_waits(spans, windows) -> list[tuple]:
    """One ``daemon.loop_wait`` span per daemon request: the part of the
    time between the client sending it and the daemon starting on it
    during which the daemon was running another request's synchronous
    work, so its event loop (or the interpreter lock) was taken."""
    started = {s[5]: s[2] for s in spans if s[1] == "daemon.request"}
    merged: list[list[float]] = []
    for _, _, start, end, *_ in sorted(
        (s for s in spans if s[1] not in ("daemon.request", "daemon.loop_wait")),
        key=lambda s: s[2],
    ):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    starts = [interval[0] for interval in merged]
    waits = []
    next_index = max((s[0] for s in spans), default=0) + 1
    for op, sent, _ in windows:
        begin = started.get(op)
        if begin is None:
            continue
        busy = 0.0
        for start, end in merged[max(bisect.bisect_right(starts, sent) - 1, 0):]:
            if start >= begin:
                break
            busy += max(min(end, begin) - max(start, sent), 0.0)
        waits.append((next_index, "daemon.loop_wait", sent, sent + busy, None, op, None))
        next_index += 1
    return waits
