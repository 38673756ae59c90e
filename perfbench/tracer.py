"""Span tracing from outside the program: wrap public functions by module attribute.

Each wrapped call records one span (id, parent id, name, start, end) in
memory; spans are written out when the traced process finishes.  A span's
self time is its duration minus the time its child spans cover.  Names
bound with ``from ... import`` are separate module attributes, so they are
wrapped where they are looked up, under the name of the layer that owns
the function.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name).  The span name is the layer that owns the code.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("io_store", "load_tracks", "io_store.load_tracks"),
    ("io_store", "load_vessel_meta", "io_store.load_vessel_meta"),
    ("io_store", "load_model", "io_store.load_model"),
    ("io_store", "speed_at_density", "fundamental_diagram.speed_at_density"),
    ("trajectory", "speed_series", "trajectory.speed_series"),
    ("trajectory", "derive_gap", "trajectory.derive_gap"),
    ("trajectory", "fleet_flow_samples", "trajectory.fleet_flow_samples"),
    ("regression", "bin_points", "regression.bin_points"),
    ("regression", "rank_families", "regression.rank_families"),
    ("regression", "fit_curve", "regression.fit_curve"),
    ("fundamental_diagram", "fit_curve", "regression.fit_curve"),
    ("fundamental_diagram", "fit_fd", "fundamental_diagram.fit_fd"),
    ("fundamental_diagram", "estimate_breakpoint", "fundamental_diagram.estimate_breakpoint"),
    ("fundamental_diagram", "speed_at_density", "fundamental_diagram.speed_at_density"),
    ("fundamental_diagram", "derive_characteristics",
     "fundamental_diagram.derive_characteristics"),
    ("traffic_state", "select_k", "traffic_state.select_k"),
    ("traffic_state", "kmeans", "traffic_state.kmeans"),
    ("traffic_state", "silhouette", "traffic_state.silhouette"),
    ("traffic_state", "assign_points", "traffic_state.assign_points"),
    ("traffic_state", "classify_flow_density", "traffic_state.classify_flow_density"),
    ("service", "classify_flow_density", "traffic_state.classify_flow_density"),
)

BREAKPOINT = "fundamental_diagram.estimate_breakpoint"


def _count_load(counts, args, kwargs, result, stack):
    load = result[1] if isinstance(result, tuple) else result
    counts["io_store.rows_accepted"] += len(load.items)
    counts["io_store.rows_rejected"] += len(load.rejects)


def _count_gaps(counts, args, kwargs, result, stack):
    # Gaps recomputed inside fleet_flow_samples would count twice.
    if not any(name == "trajectory.fleet_flow_samples" for _, name in stack):
        counts["trajectory.gaps_overlap_flagged"] += sum(g.overlap_flagged for g in result)


def _count_flow(counts, args, kwargs, result, stack):
    counts["trajectory.flow_samples"] += len(result)


def _count_fit(counts, args, kwargs, result, stack):
    if any(name == BREAKPOINT for _, name in stack):
        counts["breakpoint.fits"] += 1


def _count_candidates(counts, args, kwargs, result, stack):
    candidates = args[2] if len(args) > 2 else kwargs["candidates"]
    counts["breakpoint.candidates"] += len(candidates)


def _count_kmeans(counts, args, kwargs, result, stack):
    counts["traffic_state.kmeans.iterations"] += getattr(result, "iterations_run", 0)


HOOKS = {
    "io_store.load_tracks": _count_load,
    "io_store.load_vessel_meta": _count_load,
    "trajectory.derive_gap": _count_gaps,
    "trajectory.fleet_flow_samples": _count_flow,
    "regression.fit_curve": _count_fit,
    BREAKPOINT: _count_candidates,
    "traffic_state.kmeans": _count_kmeans,
}


class Tracer:
    """Collects spans and counters; thread-safe for a threading server."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        # Same bookkeeping as span(), inlined: speed_at_density alone is called
        # ~250,000 times per calibrate job.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][0] if stack else -1
            sid = next(self._ids)
            stack.append((sid, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end))
            if hook is not None:
                with self._lock:
                    hook(self.counts, args, kwargs, result, stack)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Replace each target attribute of the given fairway modules by a wrapper."""
        for module_name, attr, span_name in TARGETS:
            module = modules[module_name]
            setattr(module, attr, self.wrap(span_name, getattr(module, attr)))

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around a block, such as a whole job."""
        stack = self._stack()
        parent = stack[-1][0] if stack else -1
        sid = next(self._ids)
        stack.append((sid, name))
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)


def summarize(runs) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds over several traced processes.

    ``runs`` holds one span list per process; span ids are unique only
    within one process.  Children of one parent run one after another on
    one thread, so the part of a span its children cover is the sum of
    their durations.
    """
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for spans in runs:
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for sid, _, name, start, end in spans:
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[sid]
    return dict(out)


def load(path):
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    return raw["spans"], Counter(raw["counts"])
