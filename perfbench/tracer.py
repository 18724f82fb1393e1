"""Spans around wml's public functions, recorded from outside the package.

``Tracer.install`` replaces each timed function by a wrapper in the
namespace of every wml module that holds it, because the modules import
names directly (``from .quad import integrate_real_line``).  quad's own
namespace is left alone: its ``integrate_half_line`` calls
``integrate_real_line`` internally, and that is one integral, not two.
The callable handed to an integrator is wrapped too, so integrand time
can be split from quadrature time.

Span stacks are per thread.  ``sweep_kernel`` computes rows on a thread
pool, so the pool class in ``wml.experiments`` is swapped for one whose
``map`` opens a ``experiments.sweep_row`` span per row, parented under
the span that submitted it.  A span opened on any other thread with an
empty stack is parented under the current op.

Spans are kept in memory as lists
``[id, parent, op, name, start_ns, end_ns, info]`` and written out once,
when the run ends.  ``info`` is what a span keeps from its result
(evaluations and convergence for an integral, the route of a weak
moment, bytes written); it is None when the call raised.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

# Timed public functions per layer (= module of src/wml): those the three
# workloads reach.
LAYER_FUNCTIONS = {
    "quad": ("integrate_real_line", "integrate_half_line"),
    "models": ("density", "kernel_eval", "char_fn", "classical_fisher_info"),
    "features": ("feature_map", "weak_moment", "weak_cumulants"),
    "geometry": ("jacobian", "metric_tensor", "numerical_rank"),
    "experiments": ("run_experiment", "sweep_kernel"),
    "cli": ("main",),
    "serialize": ("dumps_json", "experiment_doc"),
}

PANEL_NODES = 15  # evaluations per 7/15 Gauss-Kronrod panel

_clock = time.perf_counter_ns


def _quad_info(args, kwargs, result):
    return (result.evaluations, bool(result.converged))


# What a span keeps from its call, by span name.
_INFO = {
    "quad.integrate_real_line": _quad_info,
    "quad.integrate_half_line": _quad_info,
    "features.weak_moment": lambda a, k, r: r.path,
    "experiments.run_experiment": lambda a, k, r: a[0] if a else k.get("name"),
    "serialize.dumps_json": lambda a, k, r: len(r.encode()),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._root = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else self._root

    def call(self, name, fn, args, kwargs, parent=None):
        """Run fn under a span.  A call that raises keeps its span, with no
        info."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else self._root
        span = [next(self._ids), parent, self.op, name, 0, 0, None]
        stack.append(span[0])
        span[4] = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[5] = _clock()
            stack.pop()
            self.spans.append(span)
        info = _INFO.get(name)
        if info:
            span[6] = info(args, kwargs, result)
        return result

    def run_op(self, op_id, fn):
        """Run one benchmark op under a root span ``bench.op``."""
        self.op = op_id
        stack = self._stack()
        sid = next(self._ids)
        self._root = sid
        stack.append(sid)
        start = _clock()
        try:
            return fn()
        finally:
            end = _clock()
            stack.pop()
            self._root = None
            self.spans.append([sid, None, op_id, "bench.op", start, end, None])

    def _wrapper(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _quad_wrapper(self, name, fn):
        tracer = self

        def traced(f, *args, **kwargs):
            integrand = tracer._wrapper("quad.integrand", f)
            return tracer.call(name, fn, (integrand,) + args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        """Wrap every timed function wherever a wml module holds it."""
        modules = {name: getattr(package, name) for name in
                   ("quad", "models", "features", "geometry", "experiments", "cli", "serialize")}
        for layer, names in LAYER_FUNCTIONS.items():
            owner = modules[layer]
            for fname in names:
                original = getattr(owner, fname)
                span = f"{layer}.{fname}"
                make = self._quad_wrapper if layer == "quad" else self._wrapper
                wrapped = make(span, original)
                for mod_name, mod in modules.items():
                    if layer == "quad" and mod_name == "quad":
                        continue
                    if getattr(mod, fname, None) is original:
                        self._patch(mod, fname, wrapped)
        if getattr(modules["experiments"], "ThreadPoolExecutor", None) is ThreadPoolExecutor:
            self._patch(modules["experiments"], "ThreadPoolExecutor", self._pool_class())

    def _patch(self, mod, attr, value):
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self):
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                parent = tracer.current()

                def row(*args):
                    return tracer.call("experiments.sweep_row", fn, args, {}, parent=parent)

                return super().map(row, *iterables, **kwargs)

        return TracedPool

    def write(self, path):
        """Write the spans as JSON lines: id, parent, op, name, start, end (ns), info."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _covered(intervals, lo, hi) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_metrics(spans, n_ops: int) -> dict:
    """Per-layer metrics of one pass, normalised per op (counts per pass
    where the unit says so).  A span's self time is its duration minus the
    part of it that its child spans cover (children on pool threads may
    overlap; their union counts once)."""
    children = defaultdict(list)
    for sid, parent, _, _, start, end, _ in spans:
        children[parent].append((start, end))
    by_name = defaultdict(list)
    self_ns = defaultdict(int)
    for span in spans:
        sid, _, _, name, start, end, _ = span
        by_name[name].append(span)
        self_ns[name] += (end - start) - _covered(children.get(sid, ()), start, end)

    def count(name):
        return len(by_name[name])

    def self_ms(*names):
        return sum(self_ns[n] for n in names) / 1e6

    def layer_self_ms(layer):
        return self_ms(*(f"{layer}.{f}" for f in LAYER_FUNCTIONS[layer]))

    # integrals that returned; one aborted by its integrand (NoDensity on
    # the auto route) counts in self time only
    quad = [s for n in ("quad.integrate_real_line", "quad.integrate_half_line")
            for s in by_name[n] if s[6] is not None]
    integrals = len(quad)
    panels = sum(s[6][0] for s in quad) / PANEL_NODES
    quad_self = layer_self_ms("quad")
    integrand = sum(s[5] - s[4] for s in by_name["quad.integrand"]) / 1e6

    moments = by_name["features.weak_moment"]
    jac_ids = {s[0] for s in by_name["geometry.jacobian"]}
    fm_in_jac = sum(1 for s in by_name["features.feature_map"] if s[1] in jac_ids)
    run_ms = defaultdict(float)
    for s in by_name["experiments.run_experiment"]:
        if s[6] is not None:
            run_ms[s[6]] += (s[5] - s[4]) / 1e6
    written = sum(s[6] or 0 for s in by_name["serialize.dumps_json"])

    out = {
        "quad.integrals": integrals / n_ops,
        "quad.panels": panels / n_ops,
        "quad.panels_per_integral": panels / integrals if integrals else 0.0,
        "quad.us_per_panel": quad_self * 1e3 / panels if panels else 0.0,
        "quad.self_ms": quad_self / n_ops,
        "quad.integrand_ms": integrand / n_ops,
        "quad.nonconverged": float(sum(1 for s in quad if not s[6][1])),
        "models.density_calls": count("models.density") / n_ops,
        "models.kernel_calls": count("models.kernel_eval") / n_ops,
        "models.charfn_calls": count("models.char_fn") / n_ops,
        "models.ms": layer_self_ms("models") / n_ops,
        "features.feature_map_calls": count("features.feature_map") / n_ops,
        "features.weak_moment_calls": len(moments) / n_ops,
        "features.charfn_route_share":
            sum(1 for s in moments if s[6] == "charfn") / len(moments) if moments else 0.0,
        "features.self_ms": layer_self_ms("features") / n_ops,
        "geometry.jacobian_calls": len(jac_ids) / n_ops,
        "geometry.feature_maps_per_jacobian": fm_in_jac / len(jac_ids) if jac_ids else 0.0,
        "geometry.jacobian_self_ms": self_ms("geometry.jacobian") / n_ops,
        "geometry.linalg_ms": self_ms("geometry.metric_tensor", "geometry.numerical_rank") / n_ops,
        "experiments.sweep_self_ms":
            self_ms("experiments.sweep_kernel", "experiments.sweep_row") / n_ops,
        "cli.self_ms": layer_self_ms("cli") / n_ops,
        "serialize.ms": layer_self_ms("serialize") / n_ops,
        "serialize.bytes": written / n_ops,
    }
    out.update({f"experiments.run_ms.{name}": ms for name, ms in run_ms.items()})
    return out
