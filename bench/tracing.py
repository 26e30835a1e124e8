"""Spans for the traced run, recorded from outside the package.

While a run is instrumented, each function in TARGETS is replaced, in every
``sgdstab`` module namespace that binds it (or on its class, for methods),
by a wrapper that records one span per call: name, start, end, parent span,
pass index, run id and a few attributes taken from the arguments and the
result.  Spans are kept in memory and written out when the run ends.  The
package itself is not modified.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from sgdstab.instances import ProblemInstance
from sgdstab.montecarlo import EmpiricalMoments

# (module, attribute) pairs; a dotted attribute is a method of a class.
TARGETS = (
    ("instances", "load_instance"),
    ("instances", "save_instance"),
    ("instances", "classify"),
    ("instances", "StreamPool.get"),
    ("stability", "stability_verdict"),
    ("stability", "variance_threshold"),
    ("stability", "curvature_operators"),
    ("stability", "rank_one_bound"),
    ("stability", "necessary_bound_eigvec"),
    ("stability", "sharpness"),
    ("moments", "iterate_moments"),
    ("moments", "ExactStepper.__init__"),
    ("moments", "ExactStepper.step"),
    ("moments", "cross_term"),
    ("moments", "write_trajectory_csv"),
    ("moments", "covariance_limit"),
    ("moments", "asymptotic_quantities"),
    ("montecarlo", "simulate_sgd"),
    ("montecarlo", "simulate_mixture"),
    ("montecarlo", "empirical_threshold"),
    ("montecarlo", "write_empirical_csv"),
    ("montecarlo", "_fisher_yates_batches"),
)

# Spans whose allocation peak is measured, in a separate pass, by tracemalloc.
ALLOC_SPANS = frozenset({"stability.stability_verdict", "stability.curvature_operators", "moments.covariance_limit"})

DRAW_SPANS = frozenset({"instances.StreamPool.get", "montecarlo._fisher_yates_batches"})
SIMULATE_SPANS = ("montecarlo.simulate_sgd", "montecarlo.simulate_mixture")


class Span:
    __slots__ = ("id", "parent", "name", "pass_index", "start", "end", "attrs")

    def __init__(self, span_id, parent, name, pass_index, attrs):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.pass_index = pass_index
        self.attrs = attrs
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store.  ``track_alloc`` turns on tracemalloc peaks for ALLOC_SPANS."""

    def __init__(self, run_id: str, track_alloc: bool = False):
        self.run_id = run_id
        self.track_alloc = track_alloc
        self.pass_index = 0
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str, attrs: dict | None = None) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.pass_index, attrs)
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def passes(self) -> dict[int, list[Span]]:
        grouped = defaultdict(list)
        for span in self.spans:
            grouped[span.pass_index].append(span)
        return grouped

    def write(self, path) -> None:
        rows = [[s.id, s.parent, s.name, s.pass_index, s.start, s.end, s.attrs] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "columns": ["id", "parent", "name", "pass", "start", "end", "attrs"], "spans": rows}, fh)


def _call_attrs(name: str, args) -> dict | None:
    attrs = {}
    for arg in args:
        if isinstance(arg, ProblemInstance):
            attrs.update(label=arg.label, d=arg.d, n=arg.n)
            break
    if name.startswith("stability.") and len(args) > 1 and isinstance(args[1], int):
        attrs["batch"] = args[1]
    if name == "instances.load_instance":
        attrs["bytes"] = os.path.getsize(args[0])
    return attrs or None


def _wrap(tracer: Tracer, name: str, fn):
    measure_alloc = tracer.track_alloc and name in ALLOC_SPANS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = _call_attrs(name, args)
        tracking = measure_alloc and not tracemalloc.is_tracing()
        if tracking:
            tracemalloc.start()
        span = tracer.open(name, attrs)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
            if tracking:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                span.attrs = {**(span.attrs or {}), "peak_alloc_bytes": peak}
        if isinstance(result, EmpiricalMoments):
            span.attrs = {
                **(span.attrs or {}),
                "replicates": result.replicates,
                "steps": result.mean_sq_perp.size - 1,
                "diverged_count": result.diverged_count,
            }
        return result

    return wrapper


@contextmanager
def instrumented(tracer: Tracer):
    """Swap every TARGETS function for its span-recording wrapper; restore on exit."""
    modules = [m for key, m in list(sys.modules.items()) if key == "sgdstab" or key.startswith("sgdstab.")]
    saved = []
    try:
        for module_name, attr in TARGETS:
            owner = sys.modules[f"sgdstab.{module_name}"]
            span_name = f"{module_name}.{attr}".replace(".__init__", ".init")
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(owner, class_name)
                fn = cls.__dict__[method]
                saved.append((cls, method, fn))
                setattr(cls, method, _wrap(tracer, span_name, fn))
                continue
            fn = getattr(owner, attr)
            wrapper = _wrap(tracer, span_name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        saved.append((module, key, fn))
                        setattr(module, key, wrapper)
        yield tracer
    finally:
        for owner, key, fn in reversed(saved):
            setattr(owner, key, fn)


def _pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer values of one pass, from its spans."""
    by_id = {s.id: s for s in spans}
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            child_time[s.parent] += s.duration

    def named(name, pred=None):
        return [s for s in by_name[name] if pred is None or pred(s)]

    def total(name, pred=None):
        return sum(s.duration for s in named(name, pred))

    def self_time(name):
        return sum(s.duration - child_time[s.id] for s in named(name))

    def attr(s, key, default=0):
        return (s.attrs or {}).get(key, default)

    def inside(s, name):
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == name:
                return True
        return False

    loads = named("instances.load_instance")
    load_s = sum(s.duration for s in loads)
    simulated = [s for name in SIMULATE_SPANS for s in named(name)]
    replicates = sum(attr(s, "replicates") for s in simulated)
    return {
        "cli.analyze.self_s": self_time("cli.analyze"),
        "cli.sweep.self_s": self_time("cli.sweep"),
        "cli.simulate.self_s": self_time("cli.simulate"),
        "instances.load_instance.s": load_s,
        "instances.load_instance.mb_per_s": sum(attr(s, "bytes") for s in loads) / 1e6 / load_s if load_s else 0.0,
        "instances.save_instance.s": total("instances.save_instance"),
        "instances.classify.s": total("instances.classify"),
        "stability.stability_verdict.s": total("stability.stability_verdict"),
        "stability.curvature_operators.s": total("stability.curvature_operators"),
        "stability.rank_one_bound.s": total("stability.rank_one_bound"),
        "stability.necessary_bound_eigvec.s": total("stability.necessary_bound_eigvec"),
        "stability.sharpness.s": total("stability.sharpness"),
        "moments.iterate_moments.d24.s": total("moments.iterate_moments", lambda s: attr(s, "d") == 24),
        "moments.iterate_moments.n256.s": total("moments.iterate_moments", lambda s: attr(s, "n") == 256),
        "moments.ExactStepper.init.s": total("moments.ExactStepper.init"),
        "moments.write_trajectory_csv.s": total("moments.write_trajectory_csv"),
        "moments.covariance_limit.s": total("moments.covariance_limit"),
        "moments.asymptotic_quantities.s": total("moments.asymptotic_quantities"),
        "montecarlo.simulate_sgd.draw.s": sum(
            s.duration for name in DRAW_SPANS for s in named(name) if inside(s, "montecarlo.simulate_sgd")
        ),
        "montecarlo.simulate_sgd.kernel.s": self_time("montecarlo.simulate_sgd"),
        "montecarlo.simulate_mixture.s": total("montecarlo.simulate_mixture"),
        "montecarlo.empirical_threshold.s": total("montecarlo.empirical_threshold"),
        "montecarlo.write_empirical_csv.s": total("montecarlo.write_empirical_csv"),
        "montecarlo.diverged_frac": sum(attr(s, "diverged_count") for s in simulated) / replicates if replicates else 0.0,
        "stability.analyses": float(
            len(
                {
                    (attr(s, "label", ""), attr(s, "batch"))
                    for name in ("stability.stability_verdict", "stability.curvature_operators")
                    for s in named(name)
                }
            )
        ),
        "moments.steps": float(len(named("moments.ExactStepper.step"))),
        "montecarlo.replicate_steps": float(sum(attr(s, "replicates") * attr(s, "steps") for s in simulated)),
    }


def layer_metrics(tracer: Tracer, passes) -> dict[str, float]:
    """Median over the given pass indices of each per-pass layer value."""
    grouped = tracer.passes()
    per_pass = [_pass_metrics(grouped.get(i, [])) for i in passes]
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}


def alloc_peaks_mb(tracer: Tracer) -> dict[str, float]:
    """Largest tracemalloc peak per ALLOC_SPANS name, in MB."""
    peaks = {f"{name}.peak_alloc_mb": 0.0 for name in sorted(ALLOC_SPANS)}
    for s in tracer.spans:
        if s.attrs and "peak_alloc_bytes" in s.attrs:
            key = f"{s.name}.peak_alloc_mb"
            peaks[key] = max(peaks[key], s.attrs["peak_alloc_bytes"] / 1e6)
    return peaks
