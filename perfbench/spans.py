"""Spans around the package's module-level functions, from outside the package.

install() replaces every reference to a hooked function inside the loaded
dgratio modules (including names imported with ``from ... import``) with a
wrapper that records a span, and restore() puts the originals back.  A hook
whose module or attribute no longer exists is recorded as missing; the
metrics that need it are then reported as absent, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from statistics import median
from typing import Callable, Optional

# (module, attribute, span name).  Several functions may share a span name.
HOOKS = [
    ("dgratio.cli", "run", "cli"),
    ("dgratio.registry", "verify_family", "registry.verify_family"),
    ("dgratio.ratio", "independence_ratio", "ratio"),
    ("dgratio.ratio", "independence_ratio_exact", "stategraph.exact"),
    ("dgratio.ratio", "compute_ratio", "search"),
    ("dgratio.stategraph", "_independence_gap_graph", "stategraph.gap_build"),
    ("dgratio.stategraph", "build_state_graph", "stategraph.window_build"),
    ("dgratio.stategraph", "_prune", "stategraph.prune"),
    ("dgratio.stategraph", "extremal_mean_cycle", "stategraph.extremal"),
    ("dgratio.stategraph", "verify_periodic_dominating", "stategraph.witness_check"),
    ("dgratio.stategraph", "verify_periodic_identifying", "stategraph.witness_check"),
    ("dgratio.stategraph", "verify_periodic_coloring", "stategraph.witness_check"),
    ("dgratio.meancycle", "csr_from_adjacency", "meancycle.csr"),
    ("dgratio.meancycle", "min_mean_cycle_howard", "meancycle.howard"),
    ("dgratio.meancycle", "_evaluate", "meancycle.evaluate"),
    ("dgratio.meancycle", "_min_mean_cycle_descent", "meancycle.descent"),
    ("dgratio.search", "alpha_interval", "search.interval"),
    ("dgratio.search", "_alpha_circulant_solution", "search.circulant"),
    ("dgratio.core", "verify_periodic_independent", "core.verify"),
]


class Tracer:
    """Span durations, self times and counters, kept in memory.

    Self time is a span's duration minus the durations of its direct child
    spans; one thread, so children never overlap.
    """

    def __init__(self, clock: Callable[[], float] = time.process_time):
        self.clock = clock
        self.stack: list[list] = []  # [name, child_seconds]
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self.parent_calls: Counter = Counter()

    def note_max(self, key: str, value) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def wrap(self, name: str, fn: Callable, on_return=None, on_error=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            parent = tracer.stack[-1][0] if tracer.stack else None
            tracer.stack.append(frame)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                duration = tracer._close(frame, start, parent)
                if on_error is not None:
                    on_error(tracer, exc, duration)
                raise
            duration = tracer._close(frame, start, parent)
            if on_return is not None:
                on_return(tracer, result, duration)
            return result

        return wrapper

    def _close(self, frame: list, start: float, parent: Optional[str]) -> float:
        duration = self.clock() - start
        self.stack.pop()
        name = frame[0]
        self.calls[name] += 1
        self.parent_calls[(name, parent)] += 1
        self.total[name] += duration
        self.self_s[name] += duration - frame[1]
        if self.stack:
            self.stack[-1][1] += duration
        return duration


# ---------------------------------------------------------------------------
# Counters read from return values
# ---------------------------------------------------------------------------


def _gap_build_done(tracer: Tracer, result, duration: float) -> None:
    order, adjacency = result
    tracer.counts["gap_build.states"] += len(order)
    tracer.counts["gap_build.edges"] += sum(map(len, adjacency))


def _gap_build_failed(tracer: Tracer, exc: Exception, duration: float) -> None:
    if type(exc).__name__ == "StateSpaceError":
        tracer.counts["gap_build.aborted"] += 1
        tracer.total["gap_build.aborted_s"] += duration


def _window_built(tracer: Tracer, graph, duration: float) -> None:
    tracer.counts["window.states"] += len(graph.states)
    tracer.counts["window.arcs"] += sum(map(len, graph.arcs))


def _csr_done(tracer: Tracer, result, duration: float) -> None:
    tracer.counts["csr.edges"] += len(result[1])


def _search_done(tracer: Tracer, report, duration: float) -> None:
    counters = report.counters
    tracer.counts["search.nodes"] += counters.get("nodes", 0)
    tracer.counts["search.circulant_rounds"] += counters.get("circulant_rounds", 0)
    tracer.note_max("search.interval_max_n", counters.get("interval_max_n", 0))
    tracer.counts["search.bounded"] += report.status == "bounded"


def _points_done(tracer: Tracer, verdicts, duration: float) -> None:
    tracer.counts["registry.points"] += len(verdicts)


CALLBACKS = {
    "stategraph.gap_build": (_gap_build_done, _gap_build_failed),
    "stategraph.window_build": (_window_built, None),
    "meancycle.csr": (_csr_done, None),
    "search": (_search_done, None),
    "registry.verify_family": (_points_done, None),
}


class Hooks:
    """Installs and removes the wrappers for one tracer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: set[str] = set()
        self._patched: list[tuple] = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "dgratio" or n.startswith("dgratio.")]
        for module_name, attr, span in HOOKS:
            try:
                original = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.missing.add(span)
                continue
            on_return, on_error = CALLBACKS.get(span, (None, None))
            wrapper = self.tracer.wrap(span, original, on_return, on_error)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))

    def restore(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    # a ratio with an empty base reads 0; its base is reported beside it
    return num / den if den else 0.0


def _layer_metrics():
    def calls(span):
        return lambda t: t.calls[span]

    def total(span):
        return lambda t: t.total[span]

    def self_s(span):
        return lambda t: t.self_s[span]

    def count(key):
        return lambda t: t.counts[key]

    gap = "stategraph.gap_build"
    rows = [
        ("cli.self_s", "s", self_s("cli"), ["cli"]),
        ("registry.verify_family.self_s", "s", self_s("registry.verify_family"), ["registry.verify_family"]),
        ("registry.points", "count", count("registry.points"), ["registry.verify_family"]),
        ("ratio.calls", "count", calls("ratio"), ["ratio"]),
        ("ratio.self_s", "s", self_s("ratio"), ["ratio"]),
        ("core.verify.calls", "count", calls("core.verify"), ["core.verify"]),
        ("core.verify.s", "s", total("core.verify"), ["core.verify"]),
        (f"{gap}.calls", "count", calls(gap), [gap]),
        (f"{gap}.s", "s", total(gap), [gap]),
        (f"{gap}.states", "count", count("gap_build.states"), [gap]),
        (f"{gap}.edges", "count", count("gap_build.edges"), [gap]),
        (f"{gap}.aborted", "count", count("gap_build.aborted"), [gap]),
        (f"{gap}.aborted_s", "s", total("gap_build.aborted_s"), [gap]),
        (f"{gap}.useful_share", "ratio",
         lambda t: _ratio(t.calls[gap] - t.counts["gap_build.aborted"], t.calls[gap]), [gap]),
        ("meancycle.csr.s", "s", total("meancycle.csr"), ["meancycle.csr"]),
        ("meancycle.csr.edges", "count", count("csr.edges"), ["meancycle.csr"]),
        ("meancycle.howard.calls", "count", calls("meancycle.howard"), ["meancycle.howard"]),
        ("meancycle.howard.s", "s", total("meancycle.howard"), ["meancycle.howard"]),
        ("meancycle.howard.evaluations", "count",
         lambda t: t.parent_calls[("meancycle.evaluate", "meancycle.howard")],
         ["meancycle.howard", "meancycle.evaluate"]),
        ("meancycle.descent.calls", "count", calls("meancycle.descent"), ["meancycle.descent"]),
        ("stategraph.window_build.s", "s", total("stategraph.window_build"), ["stategraph.window_build"]),
        ("stategraph.window.states", "count", count("window.states"), ["stategraph.window_build"]),
        ("stategraph.window.arcs", "count", count("window.arcs"), ["stategraph.window_build"]),
        ("stategraph.prune.s", "s", total("stategraph.prune"), ["stategraph.prune"]),
        ("stategraph.extremal.s", "s", total("stategraph.extremal"), ["stategraph.extremal"]),
        ("stategraph.witness_check.s", "s", total("stategraph.witness_check"), ["stategraph.witness_check"]),
        ("search.calls", "count", calls("search"), ["search"]),
        ("search.s", "s", total("search"), ["search"]),
        ("search.interval.s", "s", total("search.interval"), ["search.interval"]),
        ("search.circulant.s", "s", total("search.circulant"), ["search.circulant"]),
        ("search.nodes", "count", count("search.nodes"), ["search"]),
        ("search.nodes_per_s", "1/s",
         lambda t: _ratio(t.counts["search.nodes"], t.total["search.interval"] + t.total["search.circulant"]),
         ["search", "search.interval", "search.circulant"]),
        ("search.circulant_rounds", "count", count("search.circulant_rounds"), ["search"]),
        ("search.interval_max_n", "count", lambda t: t.maxima.get("search.interval_max_n", 0), ["search"]),
        ("search.bounded", "count", count("search.bounded"), ["search"]),
    ]
    return rows


LAYER_METRICS = _layer_metrics()
OVERHEAD_METRIC = ("trace.overhead_s", "s")


def layer_values(sweeps: list[Tracer], missing: set[str]) -> tuple[dict, list[str]]:
    """Per-layer metrics, each the median over traced sweeps; and the absent names."""
    values, absent = {}, []
    for name, unit, read, needs in LAYER_METRICS:
        if missing.intersection(needs):
            absent.append(name)
            continue
        values[name] = {"value": median(read(t) for t in sweeps), "unit": unit}
    return values, absent
