"""The numpy gap engine against a plain breadth-first oracle and the wide
int64 engine it replaced, its grown states against the candidate-mask scan,
its exact state count, its memory, and the byte-stable table it feeds."""

import tracemalloc
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from dgratio import cli, meancycle
from dgratio.core import DistanceSet
from dgratio.stategraph import (
    DEFAULT_CAPS,
    EngineCaps,
    StateSpaceError,
    _gap_state_masks,
    _independence_gap_graph,
    independence_ratio_exact,
)

from oracles import scan_gap_state_masks, wide_gap_graph, wide_min_mean_cycle_howard

REFERENCE_TABLE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "table_k1-10_i1-12.csv"


def python_gap_graph(distances: DistanceSet):
    """Oracle: the gap graph by a queue over states, one arc at a time.

    States are masks of occupied offsets behind the latest element; an arc
    labelled g appends an element g positions later.  States are numbered in
    discovery order, and each state's arcs are listed in increasing g.
    """
    s = distances.max_element
    sbits = 0
    for d in distances:
        sbits |= 1 << d
    window = (1 << s) - 1
    index = {1: 0}
    order = [1]
    adjacency = []
    i = 0
    while i < len(order):
        m = order[i]
        out = []
        for g in range(1, s + 2):
            if (m << g) & sbits:
                continue
            nm = ((m << g) & window) | 1
            j = index.get(nm)
            if j is None:
                j = len(order)
                index[nm] = j
                order.append(nm)
            out.append((g, j))
        adjacency.append(out)
        i += 1
    return order, adjacency


def _small_sets(top=12):
    return [combo for size in (1, 2, 3) for combo in combinations(range(1, top + 1), size)]


# the gap-large benchmark pool and the 90 cells of `table --k 1..10 --i 1..12`
# that are not all odd (those are answered by a shortcut)
GAP_LARGE_POOL = [
    (11, 18), (8, 19), (2, 21), (10, 19), (4, 21), (1, 22), (7, 20), (13, 18),
    (12, 19), (5, 22), (8, 21), (10, 21), (7, 22), (17, 18), (13, 20), (18, 19),
]
TABLE_SETS = [
    (1, 1 + k, 1 + k + i) for k in range(1, 11) for i in range(1, 13) if k % 2 or i % 2
]


def test_builder_matches_the_python_oracle():
    for combo in _small_sets():
        distances = DistanceSet(combo)
        order, arcs = _independence_gap_graph(distances, 10**6)
        want_order, want_adjacency = python_gap_graph(distances)
        assert order.tolist() == want_order, combo
        indptr, dst, w = meancycle.csr_from_adjacency(arcs)
        want = [np.asarray(a) for a in meancycle.csr_from_adjacency(want_adjacency)]
        assert indptr.tolist() == want[0].tolist(), combo
        assert dst.tolist() == want[1].tolist(), combo
        assert w.tolist() == want[2].tolist(), combo
        assert list(arcs) == want_adjacency, combo


def test_builder_in_blocks_of_one_state_matches_the_python_oracle(monkeypatch):
    # the BFS then takes one queued state per block
    monkeypatch.setattr(meancycle, "_ARC_BLOCK", 1)
    for combo in [(1,), (2, 3), (1, 4, 7), (2, 5, 11), (3, 8, 12)]:
        order, arcs = _independence_gap_graph(DistanceSet(combo), 10**6)
        want_order, want_adjacency = python_gap_graph(DistanceSet(combo))
        assert order.tolist() == want_order, combo
        assert list(arcs) == want_adjacency, combo


def test_lean_engine_matches_the_wide_oracle(evaluate_calls):
    sets = _small_sets() + TABLE_SETS + GAP_LARGE_POOL
    assert len(sets) == 404
    for combo in sets:
        distances = DistanceSet(combo)
        order, arcs = _independence_gap_graph(distances, 10**6)
        want = wide_gap_graph(distances, 10**6)
        assert arcs.dst.dtype == np.int32 and arcs.w.dtype == np.int8, combo
        for got, expected in zip((order, arcs.indptr, arcs.dst, arcs.w), want):
            assert np.array_equal(got.astype(np.int64), expected), combo
        evaluate_calls.clear()
        got = meancycle.min_mean_cycle_howard(arcs.indptr, arcs.dst, arcs.w)
        *expected, evaluations = wide_min_mean_cycle_howard(*want[1:])
        assert got == tuple(expected), combo
        assert len(evaluate_calls) == evaluations, combo


def test_grown_masks_equal_the_scan():
    assert len(TABLE_SETS) == 90
    for combo in _small_sets(14) + GAP_LARGE_POOL + TABLE_SETS:
        distances = DistanceSet(combo)
        got = _gap_state_masks(distances, 10**6)
        want = scan_gap_state_masks(distances, 10**6)
        assert got.dtype == want.dtype and np.array_equal(got, want), combo


@pytest.mark.parametrize("combo, states", [((19, 22), 589_824), ((21, 22), 1_048_576), ((2, 5, 11), 52)])
def test_required_is_exact_under_every_cap(combo, states):
    distances = DistanceSet(combo)
    for cap in (10, 1000, DEFAULT_CAPS.independence_max_states):
        if states <= cap:
            assert len(_gap_state_masks(distances, cap)) == states
            continue
        with pytest.raises(StateSpaceError) as info:
            _gap_state_masks(distances, cap)
        assert info.value.required == states, cap
        with pytest.raises(StateSpaceError) as info:
            scan_gap_state_masks(distances, cap)
        assert info.value.required == states, cap


def _peak_bytes_of_a_refusal(count_states, distances, cap):
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    with pytest.raises(StateSpaceError):
        count_states(distances, cap)
    return tracemalloc.get_traced_memory()[1] - base


def test_a_refused_count_stays_within_the_scans_memory():
    distances, cap = DistanceSet([21, 22]), DEFAULT_CAPS.independence_max_states
    tracemalloc.start()
    try:
        grown = _peak_bytes_of_a_refusal(_gap_state_masks, distances, cap)
        scanned = _peak_bytes_of_a_refusal(scan_gap_state_masks, distances, cap)
    finally:
        tracemalloc.stop()
    assert 0 < grown <= scanned


def test_the_gap_engine_holds_memory_per_state():
    # {18,19}: 131,072 states and 720,896 arcs.  With int64 arrays spanning
    # every arc, the whole call peaked at about 60 MB traced; the narrow CSR
    # and block-bounded scratch keep it near 30 MB.
    distances = DistanceSet([18, 19])
    _, arcs = _independence_gap_graph(distances, DEFAULT_CAPS.independence_max_states)
    assert arcs.dst.dtype == np.int32
    assert arcs.w.dtype.kind == "i" and arcs.w.dtype.itemsize == 1
    del arcs
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value, _ = independence_ratio_exact(distances)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert value == Fraction(18, 37)
    assert peak < 35 * 10**6


def test_cap_reports_the_exact_state_count():
    with pytest.raises(StateSpaceError) as info:
        _independence_gap_graph(DistanceSet([21, 22]), 1000)
    assert info.value.required == 1_048_576
    with pytest.raises(StateSpaceError) as info:
        independence_ratio_exact(DistanceSet([19, 22]), EngineCaps(independence_max_states=1000))
    assert info.value.required == 589_824


def test_element_cap_reports_the_refused_element():
    # the element cap refuses max(S) itself, before any state is counted
    with pytest.raises(StateSpaceError) as info:
        independence_ratio_exact(DistanceSet([1, 4, 30]))
    assert info.value.required == 30
    with pytest.raises(StateSpaceError) as info:
        independence_ratio_exact(DistanceSet([1, 5]), EngineCaps(independence_max_element=4))
    assert info.value.required == 5


def test_cap_is_inclusive_and_counts_like_the_oracle():
    distances = DistanceSet([2, 5, 11])
    states = len(python_gap_graph(distances)[0])
    assert states == 52
    order, _ = _independence_gap_graph(distances, states)
    assert len(order) == states
    with pytest.raises(StateSpaceError) as info:
        _independence_gap_graph(distances, states - 1)
    assert info.value.required == states


def test_table_matches_the_reference_bytes(tmp_path):
    out = tmp_path / "table.csv"
    assert cli.run(["table", "--k", "1..10", "--i", "1..12", "--out", str(out)]) == 0
    assert out.read_bytes() == REFERENCE_TABLE.read_bytes()
