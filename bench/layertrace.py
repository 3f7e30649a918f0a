"""Per-layer tracing from outside the library.

``Tracer.install`` rebinds each traced function in every ``statmanifold``
module namespace that holds it, and patches ``MetricField.__call__`` and
``ParameterDomain.contains`` on their classes; ``uninstall`` puts the
originals back.  A name the library no longer has is skipped and reported
as absent, so the benchmark keeps running when functions are merged or
deleted.

Each wrapped call is a span: name, start, end, parent span and the request
id of the benchmark operation that caused it.  Self time is a span's duration
minus the time its child spans cover.  Spans are kept in memory while
``recording`` is set and written out by the caller at the end.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

import numpy as np

# (module, function, group): spans of one group add up into one layer metric.
# ``calls`` of a group counts only spans not nested in a span of the same
# group, so a public entry point and the helper it calls count once.
SPAN_TARGETS = [
    ("quadrature", "integrate", "quadrature.integrate"),
    ("manifold", "fisher_metric", "manifold.fisher_metric"),
    ("manifold", "metric_derivatives", "manifold.metric_derivatives"),
    ("manifold", "christoffel", "manifold.curvature"),
    ("manifold", "riemann", "manifold.curvature"),
    ("manifold", "ricci", "manifold.curvature"),
    ("manifold", "scalar_curvature", "manifold.curvature"),
    ("manifold", "geometry_report", "manifold.curvature"),
    ("manifold", "geodesic_integrate", "manifold.geodesic_integrate"),
    ("models", "pdf_2d", "models.density"),
    ("models", "mvn_pdf", "models.density"),
    ("ergodic", "ig_correlation", "ergodic.ig_correlation"),
    ("ergodic", "ig_correlation_2d", "ergodic.ig_correlation"),
    ("ergodic", "mvn_ig_correlation", "ergodic.ig_correlation"),
    ("ergodic", "distinguishability_F_numeric", "ergodic.maximizer"),
    ("ergodic", "mvn_distinguishability", "ergodic.maximizer"),
    ("ergodic", "classify", "ergodic.classify"),
    ("canonical", "oscillator_mixing_trace", "canonical.oscillator_mixing_trace"),
    ("cli", "main", "cli.main"),
    ("cli", "write_rows", "cli.write_rows"),
]
GROUPS = sorted({group for _, _, group in SPAN_TARGETS})
# Counted, not timed: these run tens of thousands of times per pass.
METHOD_TARGETS = [
    ("manifold", "MetricField", "__call__", "manifold.metric_evals"),
    ("manifold", "ParameterDomain", "contains", "manifold.domain_contains.calls"),
]
ERROR_RULE_TARGET = ("quadrature", "integrate_with_error")


def _spec(args, kwargs):
    """The IntegrationSpec of ``integrate(fn, spec)``-style calls, if any."""
    return args[1] if len(args) > 1 else kwargs.get("spec")


def _nodes(spec) -> int:
    try:
        return int(spec.order) ** int(spec.dim)
    except (AttributeError, TypeError, ValueError):
        return 0


def _density_points(name, args) -> int:
    try:
        if name == "pdf_2d":
            return int(np.broadcast(args[0], args[1]).size)
        x = np.asarray(args[0])
        return 1 if x.ndim == 1 else int(x.shape[1])
    except (IndexError, ValueError, TypeError):
        return 0


class Tracer:
    """Span and counter collector for one benchmark process."""

    def __init__(self):
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.spans = []
        self.recording = False
        self.request_id = None
        self.absent = []
        self._stack = []          # open spans: [span_id, start, child_time]
        self._group_depth = Counter()
        self._next_id = 0
        self._fine_order = None   # order of the enclosing integrate_with_error
        self._undo = []

    # -- spans ---------------------------------------------------------------
    def _wrap(self, name, group, fn):
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            if tracer._group_depth[group] == 0:
                tracer.calls[group] += 1
            tracer._group_depth[group] += 1
            if group == "quadrature.integrate":
                spec = _spec(args, kwargs)
                nodes = _nodes(spec)
                tracer.counts["quadrature.integrate.nodes"] += nodes
                if tracer._fine_order is not None and getattr(spec, "order", None) != tracer._fine_order:
                    tracer.counts["quadrature.coarse_nodes"] += nodes
            elif group == "models.density":
                tracer.counts["models.density_points"] += _density_points(name, args)
            frame = [span_id, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._group_depth[group] -= 1
                duration = end - frame[1]
                tracer.self_s[group] += duration - frame[2]
                if tracer._stack:
                    tracer._stack[-1][2] += duration
                if tracer.recording:
                    tracer.spans.append((tracer.request_id, span_id, parent, name, frame[1], end))
            if name == "geodesic_integrate":
                tracer.counts["manifold.geodesic.steps"] += max(0, len(getattr(result, "states", ())) - 1)
            return result

        return traced

    def _count(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _error_rule(self, fn):
        tracer = self

        def with_error(*args, **kwargs):
            outer = tracer._fine_order
            tracer._fine_order = getattr(_spec(args, kwargs), "order", None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._fine_order = outer

        return with_error

    # -- installation --------------------------------------------------------
    def _rebind(self, module_name, attr, make_wrapper):
        home = sys.modules.get(f"statmanifold.{module_name}")
        original = getattr(home, attr, None) if home is not None else None
        if original is None:
            self.absent.append(f"{module_name}.{attr}")
            return
        wrapper = make_wrapper(original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "statmanifold" or name.startswith("statmanifold.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append((module, key, original))

    def install(self) -> None:
        self.absent = []
        for module_name, attr, group in SPAN_TARGETS:
            self._rebind(module_name, attr, lambda fn, a=attr, g=group: self._wrap(a, g, fn))
        self._rebind(*ERROR_RULE_TARGET, self._error_rule)
        for module_name, cls_name, attr, key in METHOD_TARGETS:
            cls = getattr(sys.modules.get(f"statmanifold.{module_name}"), cls_name, None)
            original = getattr(cls, attr, None) if cls is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{cls_name}.{attr}")
                continue
            setattr(cls, attr, self._count(key, original))
            self._undo.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def snapshot(self) -> dict:
        """Copy of every counter, to diff one pass against the next."""
        out = {f"{g}.self_s": self.self_s[g] for g in GROUPS}
        out.update({f"{g}.calls": self.calls[g] for g in GROUPS})
        out.update(self.counts)
        return out
