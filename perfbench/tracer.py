"""Per-layer tracing by wrapping lindbladsim's public functions from outside.

Each target is replaced at the module or class attribute where its caller
looks it up, so no program source changes. A wrapped call records a span
(name, parent span, start, end) in memory; counts are taken at the same
boundary. A layer's self time is its span minus the time covered by the
spans it caused. Spans are only recorded while the tracer is active, so
input building and checks stay out of the figures.
"""
from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

# (module, attribute path, span name): each public function is wrapped in
# every namespace a caller reads it from.
TARGETS = [
    ("series", "segment_time", "series.segment_time"),
    ("series", "choose_orders", "series.choose_orders"),
    ("series", "CPMapApprox.as_superoperator", "series.as_superoperator"),
    ("series", "CPMapApprox.normalizer_sum_squares", "series.normalizer_sum_squares"),
    ("series", "CPMapApprox.iter_terms", "series.iter_terms"),
    ("series", "simulate", "series.simulate"),
    ("series", "batched_kraus_sum", "linalg.batched_kraus_sum"),
    ("timedep", "batched_kraus_sum", "linalg.batched_kraus_sum"),
    ("series", "canonical_rule", "quadrature.canonical_rule"),
    ("timedep", "canonical_rule", "quadrature.canonical_rule"),
    ("cli", "canonical_rule", "quadrature.canonical_rule"),
    ("series", "exact_channel", "models.exact_channel"),
    ("models", "exact_channel", "models.exact_channel"),
    ("series", "diamond_sandwich", "metrics.diamond_sandwich"),
    ("metrics", "diamond_sandwich", "metrics.diamond_sandwich"),
    ("timedep", "td_simulate", "timedep.td_simulate"),
    ("timedep", "rk4_reference", "timedep.rk4_reference"),
    ("modelio", "load_model", "modelio.load_model"),
    ("primitives", "verification_matrix", "primitives.verification_matrix"),
    ("cli", "main", "cli.main"),
]
SAMPLER = "timedep.sampler"


def _count_result(tracer, name, args, result):
    """Work counts read at the span boundary from arguments, results or yielded items."""
    if name == "series.iter_terms":
        tracer.counts["series.kraus_terms"] += 1
    elif name == "series.simulate":
        report = result[1]
        tracer.counts["series.kraus_terms"] += report.kraus_terms
        tracer.counts["series.segments"] += report.segments
    elif name == "linalg.batched_kraus_sum":
        tracer.counts["linalg.kraus_mats"] += args[1].shape[0]
    elif name == "quadrature.canonical_rule":
        tracer.counts["quadrature.canonical_rule_calls"] += 1
    elif name == SAMPLER:
        tracer.counts["timedep.sampler_calls"] += 1


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []          # [name, parent index or -1, start, end]
        self.counts = defaultdict(int)
        self.absent = []
        self._stack = []
        self._restore = []

    def _enter(self, name):
        self.spans.append([name, self._stack[-1] if self._stack else -1,
                           perf_counter(), 0.0])
        self._stack.append(len(self.spans) - 1)

    def _exit(self):
        self.spans[self._stack.pop()][3] = perf_counter()

    def wrap_callable(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            _count_result(tracer, name, args, result)
            return result
        return traced

    def wrap_generator(self, fn, name):
        """Each resumption of the generator is one span; the consumer's work between
        resumptions stays with the caller. Yielded items are counted."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                traced_step = tracer.active
                if traced_step:
                    tracer._enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    if traced_step:
                        tracer._exit()
                if traced_step:
                    _count_result(tracer, name, args, item)
                yield item
        return traced

    def install(self, package):
        """Wrap every target; a target the program no longer has is recorded as absent."""
        for module_name, attr_path, name in TARGETS:
            try:
                owner = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                self.absent.append(f"{module_name}.{attr_path}")
                continue
            *owners, attr = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attr_path}")
                continue
            wrap = (self.wrap_generator if inspect.isgeneratorfunction(original)
                    else self.wrap_callable)
            setattr(owner, attr, wrap(original, name))
            self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def take(self):
        """Per-name self time and counts of the spans since the last take; clears them."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, _, start, end) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        counts = dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return dict(self_s), dict(calls), counts
