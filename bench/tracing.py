"""Span tracing of the neqatom layers, from outside the package.

:class:`Tracer` replaces the public names each module calls in the layer
below (``neqatom.cli.scan``, ``neqatom.response.integrate_evanescent``,
...) with wrappers that record a span per call, and restores them when
the ``installed()`` block ends. Nothing inside ``src/`` changes. The
integrand each engine receives is wrapped too, which is how initial
panels and splits are counted without the engine's cooperation.

A span is ``(id, parent, request, thread, name, start, end, nodes)``.
``request`` is the index of the CLI command that caused it; ``nodes`` is
the number of k nodes for optics and integrand spans, else None. A span
opened in a worker thread with nothing open on that thread takes as its
parent the innermost span open on the thread that started the request.
The layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name); a name a later version no longer has
# is skipped, and its metrics read 0
WRAPPED = (
    ("neqatom.cli", "load_config", "cli.load_config"),
    ("neqatom.cli", "surface_mode_frequency", "optics.surface_mode_frequency"),
    ("neqatom.cli", "scan", "analysis.scan"),
    ("neqatom.cli", "environment_scan", "analysis.environment_scan"),
    ("neqatom.cli", "crossover_distance", "response.crossover_distance"),
    ("neqatom.cli", "alpha_pair", "response.alpha_pair"),
    ("neqatom.analysis", "steady_point", "analysis.steady_point"),
    ("neqatom.analysis", "closest_thermal", "analysis.closest_thermal"),
    ("neqatom.analysis", "distance_to_thermal", "analysis.distance_to_thermal"),
    ("neqatom.analysis", "alpha_pair", "response.alpha_pair"),
    ("neqatom.analysis", "transition_rates", "atom.transition_rates"),
    ("neqatom.analysis", "steady_state", "atom.steady_state"),
    ("neqatom.response", "response_vectors", "response.response_vectors"),
    ("neqatom.response", "alpha_pair", "response.alpha_pair"),
    ("neqatom.response", "slab_amplitudes", "optics.slab_amplitudes"),
)
ENGINES = (
    ("neqatom.response", "integrate_propagative", "prop"),
    ("neqatom.response", "integrate_oscillatory", "osc"),
    ("neqatom.response", "integrate_evanescent", "evan"),
)
ENGINE_KINDS = tuple(kind for _, _, kind in ENGINES)
LAYERS = ("cli", "analysis", "atom", "response", "quadrature", "optics")


def panel_counts(nodes: list) -> tuple:
    """(tail_nodes, initial_panels, splits) from an engine's integrand calls.

    Calls of fewer than 15 nodes before the first panel pass are tail
    evaluations (``integrate_evanescent`` makes one); the first call of
    15 nodes or more is the initial pass of 15-node K15 panels, and each
    later 30 nodes are one split into two panels.
    """
    i = 0
    while i < len(nodes) and nodes[i] < 15:
        i += 1
    if i == len(nodes):
        return sum(nodes), 0, 0
    return sum(nodes[:i]), nodes[i] // 15, sum(nodes[i + 1:]) // 30


class Tracer:
    """In-memory span recorder; install it around the calls to trace."""

    def __init__(self):
        self.spans = []
        self.engine_calls = []
        self.request = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._root_stack:
            parent = self._root_stack[-1]
        else:
            parent = None
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, perf_counter()

    def _close(self, sid, parent, name, start, nodes=None):
        end = perf_counter()
        self._stack().pop()
        self.spans.append((sid, parent, self.request, threading.get_ident(),
                           name, start, end, nodes))

    @contextmanager
    def span(self, name: str):
        sid, parent, start = self._open()
        try:
            yield sid
        finally:
            self._close(sid, parent, name, start)

    @contextmanager
    def request_span(self, request: int, name: str = "cli.run_command"):
        """Root span of one CLI command; worker-thread spans attach under it."""
        self.request = request
        self._root_stack = self._stack()
        try:
            with self.span(name):
                yield
        finally:
            self._root_stack = None
            self.request = None

    def take(self) -> tuple:
        """Return and forget the spans and engine calls recorded so far."""
        spans, calls = self.spans, self.engine_calls
        self.spans, self.engine_calls = [], []
        return spans, calls

    def _wrap(self, fn, name):
        tracer = self
        counts_nodes = name == "optics.slab_amplitudes"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, start = tracer._open()
            try:
                return fn(*args, **kwargs)
            finally:
                nodes = len(args[2]) if counts_nodes else None
                tracer._close(sid, parent, name, start, nodes)
        return wrapper

    def _wrap_engine(self, fn, kind):
        tracer = self
        signature = inspect.signature(fn)
        name = f"quadrature.{kind}"
        integrand_name = f"response.integrand.{kind}"

        @functools.wraps(fn)
        def engine(integrand, *args, **kwargs):
            bound = signature.bind(integrand, *args, **kwargs)
            bound.apply_defaults()
            spec = bound.arguments.get("spec")
            nodes = []

            def traced_integrand(k, aux):
                sid, parent, start = tracer._open()
                try:
                    return integrand(k, aux)
                finally:
                    nodes.append(len(k))
                    tracer._close(sid, parent, integrand_name, start, len(k))

            sid, parent, start = tracer._open()
            reported, failed = None, False
            try:
                result = fn(traced_integrand, *args, **kwargs)
                reported = result.evaluations
                return result
            except BaseException as exc:
                failed = True
                best = getattr(exc, "best", None)
                reported = getattr(best, "evaluations", None)
                raise
            finally:
                tracer._close(sid, parent, name, start)
                tail, initial, splits = panel_counts(nodes)
                tracer.engine_calls.append({
                    "span": sid, "kind": kind, "tail": tail,
                    "initial_panels": initial, "splits": splits,
                    "evals": sum(nodes), "reported_evals": reported,
                    "failed": failed,
                    "budget": getattr(spec, "max_subdivisions", None),
                })
        return engine

    @contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        saved = []
        try:
            targets = ([(*t, self._wrap) for t in WRAPPED]
                       + [(*t, self._wrap_engine) for t in ENGINES])
            for module_name, attr, name, wrap in targets:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, wrap(fn, name))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append((s[5], s[6]))
    return {s[0]: (s[6] - s[5]) - covered_length(children[s[0]], s[5], s[6])
            for s in spans}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def pass_metrics(spans, engine_calls) -> dict:
    """Per-layer counts and times of one traced pass.

    Times are summed over threads, so with two worker threads a layer's
    time can exceed the pass's wall time.
    """
    own = self_times(spans)
    by_name = defaultdict(list)
    layer_self = defaultdict(float)
    for s in spans:
        by_name[s[4]].append(s)
        layer_self[layer_of(s[4])] += own[s[0]]

    def total(name):
        return sum(s[6] - s[5] for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS if layer != "quadrature"}
    m["cli.load_config_s"] = total("cli.load_config")
    m["optics.surface_mode_frequency_s"] = total("optics.surface_mode_frequency")

    searches = calls("analysis.closest_thermal")
    m["analysis.closest_thermal.calls"] = searches
    m["analysis.closest_thermal_s"] = total("analysis.closest_thermal")
    m["analysis.distance_evals_per_search"] = (
        calls("analysis.distance_to_thermal") / searches if searches else 0.0)

    roots = {s[0] for s in by_name["response.crossover_distance"]}
    m["response.alpha_pair.calls"] = calls("response.alpha_pair")
    m["response.response_vectors.calls"] = calls("response.response_vectors")
    m["response.integrand_s"] = sum(total(f"response.integrand.{k}") for k in ENGINE_KINDS)
    m["response.alpha_pair_per_root"] = (
        sum(s[1] in roots for s in by_name["response.alpha_pair"]) / len(roots)
        if roots else 0.0)

    slab = by_name["optics.slab_amplitudes"]
    nodes = sum(s[7] for s in slab)
    m["optics.slab_amplitudes.calls"] = len(slab)
    m["optics.nodes"] = nodes
    m["optics.slab_amplitudes_s"] = total("optics.slab_amplitudes")
    m["optics.ns_per_node"] = 1e9 * m["optics.slab_amplitudes_s"] / nodes if nodes else 0.0

    for kind in ENGINE_KINDS:
        rows = [c for c in engine_calls if c["kind"] == kind]
        budget = [c["splits"] / c["budget"] for c in rows if c["budget"]]
        p = f"quadrature.{kind}"
        m[f"{p}.calls"] = len(rows)
        m[f"{p}.initial_panels"] = sum(c["initial_panels"] for c in rows)
        m[f"{p}.splits"] = sum(c["splits"] for c in rows)
        m[f"{p}.evals"] = sum(c["evals"] for c in rows)
        m[f"{p}.self_s"] = sum(own[s[0]] for s in by_name[p])
        m[f"{p}.failures"] = sum(c["failed"] for c in rows)
        m[f"{p}.max_budget_used"] = max(budget, default=0.0)
    return m


def point_durations(spans) -> list:
    """Per-point latency samples: steady_point spans, else alpha_pair spans."""
    points = [s for s in spans if s[4] == "analysis.steady_point"]
    if not points:
        points = [s for s in spans if s[4] == "response.alpha_pair"]
    return [s[6] - s[5] for s in points]
