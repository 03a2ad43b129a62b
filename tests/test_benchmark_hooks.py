"""The benchmark's per-layer spans still find what they wrap in the package.

perfbench/spans.py wraps package functions by name and reads their return
values; a renamed function or a changed return shape would make its metrics
absent or wrong in a traced run.  These checks fail the suite instead.
"""

import importlib
import sys
from fractions import Fraction
from pathlib import Path

import dgratio.ratio
import dgratio.stategraph
from dgratio import meancycle
from dgratio.core import DistanceSet
from dgratio.stategraph import _independence_gap_graph

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import spans  # noqa: E402


def test_every_hooked_name_resolves():
    for module, attr, span in spans.HOOKS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr, span)


def test_traced_independence_ratio_records_the_gap_engine():
    distances = DistanceSet([2, 5, 11])
    order, arcs = _independence_gap_graph(distances, 10**6)
    edges = len(meancycle.csr_from_adjacency(arcs)[1])
    tracer = spans.Tracer()
    hooks = spans.Hooks(tracer)
    hooks.install()
    try:
        report = dgratio.ratio.independence_ratio(distances)
    finally:
        hooks.restore()
    assert report.method == "stategraph"
    assert not hooks.missing
    assert tracer.counts["gap_build.states"] == len(order) == 20  # F states; 52 masks
    assert tracer.counts["gap_build.edges"] == edges
    assert tracer.counts["csr.edges"] == edges
    assert tracer.parent_calls[("meancycle.evaluate", "meancycle.howard")] >= 1
    values, absent = spans.layer_values([tracer], hooks.missing)
    assert absent == []
    assert values["stategraph.gap_build.calls"]["value"] == 1


def test_traced_domination_records_the_window_graph():
    tracer = spans.Tracer()
    hooks = spans.Hooks(tracer)
    hooks.install()
    try:
        density, _ = dgratio.stategraph.min_dominating_density(DistanceSet([1, 2]))
    finally:
        hooks.restore()
    assert density == Fraction(1, 5)
    assert not hooks.missing
    assert tracer.counts["window.states"] == 16
    assert tracer.counts["window.arcs"] == 31
    assert tracer.parent_calls[("stategraph.prune", "stategraph.window_build")] == 1
    values, absent = spans.layer_values([tracer], hooks.missing)
    assert absent == []
    assert values["stategraph.window.states"]["value"] == 16
