"""Spans around the calls into each layer of diamond_bottleneck.

The tracer replaces module attributes at the layer boundaries with thin
wrappers that record a span: name, start, end, parent span and point id.
Spans stay in memory until the run ends.  The boundaries are the names
through which one module calls another (``sweeps.tci_best``,
``qci._maxmin_batch``, ...), so nothing under ``src/`` is edited.  A
boundary whose attribute no longer exists is skipped and reported; the
metrics it feeds read 0, so the run fails unless it is in ``RETIRABLE``.

``PointTimer`` is the only wrapper an untraced pass installs: two clock
reads around each ``compute_point`` call.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name).  The layer of a span is the part of its
# name before the first dot; qci spans get their cell count appended.
BOUNDARIES = (
    ("sweeps", "upper_bound", "upper_bound"),
    ("sweeps", "qci_lower_bound", "qci"),
    ("sweeps", "tci_best", "tci"),
    ("sweeps", "mmse_rate", "mmse"),
    ("qci", "_maxmin_batch", "numerics.maxmin"),
    ("tci", "_maxmin_batch", "numerics.maxmin"),
    ("mmse", "sample_gains", "channel.sample_gains"),
    ("mmse", "integrate_semiinfinite", "numerics.quadrature"),
    ("upper_bound", "bisect", "numerics.bisect"),
)
# Boundaries that may disappear on purpose: once MMSE is computed by a fixed
# quadrature rule it neither samples gains nor calls the Laguerre quadrature.
RETIRABLE = ("mmse.sample_gains", "mmse.integrate_semiinfinite")
TIMED = (
    "upper_bound", "qci.J2", "qci.J4", "qci.J8", "tci", "mmse",
    "numerics.maxmin", "numerics.quadrature", "channel.sample_gains",
)
SELF_TIMED = ("upper_bound", "qci", "tci", "mmse", "numerics", "channel")
COUNTED = (
    "numerics.maxmin.calls", "numerics.maxmin.lanes", "tci.kernel_calls", "mmse.draws",
    "numerics.quadrature.calls", "numerics.bisect.calls", "qci.infeasible",
    "qci.J2.iters", "qci.J4.iters", "qci.J8.iters",
)

_NAME, _START, _END, _PARENT, _POINT, _INFO = range(6)


def module(name: str):
    """A diamond_bottleneck submodule (the package re-exports functions that
    shadow some submodule names, so attribute access is not enough)."""
    return importlib.import_module(f"diamond_bottleneck.{name}")


class PointTimer:
    """Wraps ``sweeps.compute_point``: per-point wall time and results."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.points: list[tuple[object, list, float]] = []

    def wrap(self, compute_point):
        points = self.points
        tracer = self.tracer
        clock = time.perf_counter

        def timed_point(config, *args, **kwargs):
            if tracer is not None:
                tracer.point = len(points)
            start = clock()
            results = compute_point(config, *args, **kwargs)
            points.append((config, results, clock() - start))
            return results

        return timed_point


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.point = -1

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_name = f"qci.J{args[0]}" if name == "qci" else name
            info = None
            if name == "numerics.maxmin":
                info = math.prod(np.broadcast_shapes(*(np.shape(a) for a in args[:4])))
            elif name == "channel.sample_gains":
                info = int(args[1])
            index = len(spans)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.point, info]
            spans.append(span)
            stack.append(index)
            span[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()
            if name == "qci":
                span[_INFO] = (int(result.iterations), bool(result.feasible))
            return result

        return traced

    def dump(self, path: str, pass_index: int) -> None:
        """Append this pass's spans to a JSON-lines file."""
        with open(path, "a") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "pass": pass_index,
                    "id": index,
                    "name": span[_NAME],
                    "start": span[_START],
                    "end": span[_END],
                    "parent": span[_PARENT],
                    "point": span[_POINT],
                    "info": span[_INFO],
                }) + "\n")


@contextmanager
def installed(timer: PointTimer, tracer: Tracer | None):
    """Install the point timer, and the tracer's boundaries when given.

    Yields the boundaries, as ``module.attribute``, that the package lacks.
    """
    patches = [(module("sweeps"), "compute_point", timer.wrap)]
    missing = []
    if tracer is not None:
        for module_name, attribute, name in BOUNDARIES:
            owner = module(module_name)
            if hasattr(owner, attribute):
                patches.append((owner, attribute, lambda fn, n=name: tracer.wrap(n, fn)))
            else:
                missing.append(f"{module_name}.{attribute}")
    originals = []
    try:
        for owner, attribute, make in patches:
            original = getattr(owner, attribute)
            setattr(owner, attribute, make(original))
            originals.append((owner, attribute, original))
        yield missing
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def layer_metrics(spans: list[list], wall_s: float) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer busy and self times of one pass, and its exact work counts.

    A span's self time is its duration minus its children's durations.
    ``sweeps.self_s`` is the pass wall time minus every other layer's self
    time, so the layer self times add up to the wall time.  With every
    span nested inside a scheme span, as now, that is the wall time minus
    the time spent inside the schemes.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[_PARENT] >= 0:
            child_time[span[_PARENT]] += span[_END] - span[_START]

    busy = dict.fromkeys(TIMED, 0.0)
    own = dict.fromkeys(SELF_TIMED, 0.0)
    counts = dict.fromkeys(COUNTED, 0)
    for index, span in enumerate(spans):
        name = span[_NAME]
        duration = span[_END] - span[_START]
        own[name.split(".", 1)[0]] += duration - child_time[index]
        busy[name] = busy.get(name, 0.0) + duration
        if name.startswith("qci."):
            iterations, feasible = span[_INFO]
            counts[f"{name}.iters"] = counts.get(f"{name}.iters", 0) + iterations
            counts["qci.infeasible"] += not feasible
        elif name == "numerics.maxmin":
            counts["numerics.maxmin.calls"] += 1
            counts["numerics.maxmin.lanes"] += span[_INFO]
            if span[_PARENT] >= 0 and spans[span[_PARENT]][_NAME] == "tci":
                counts["tci.kernel_calls"] += 1
        elif name == "channel.sample_gains":
            counts["mmse.draws"] += span[_INFO]
        elif name in ("numerics.quadrature", "numerics.bisect"):
            counts[f"{name}.calls"] += 1

    times = {f"{name}.s": busy[name] for name in TIMED}
    lanes = counts["numerics.maxmin.lanes"]
    times["numerics.maxmin.us_per_lane"] = busy["numerics.maxmin"] / lanes * 1e6 if lanes else 0.0
    times.update({f"{layer}.self_s": value for layer, value in own.items()})
    times["sweeps.self_s"] = wall_s - math.fsum(own.values())
    return times, counts
