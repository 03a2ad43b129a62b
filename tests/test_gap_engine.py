"""The gap engine's F automaton against a plain breadth-first F oracle and
the mask engine it is the quotient of, the two order facts under which its
Howard run retraces the mask engine's, its grown masks against the
candidate-mask scan, its exact mask count, its memory, and the byte-stable
table it feeds."""

import tracemalloc
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from dgratio import cli, meancycle, stategraph
from dgratio.core import DistanceSet
from dgratio.stategraph import (
    DEFAULT_CAPS,
    EngineCaps,
    StateSpaceError,
    _breadth_first_order,
    _gap_state_masks,
    _independence_gap_graph,
    _mask_key,
    independence_ratio_exact,
)

from oracles import f_state_bfs, mask_gap_graph, scan_gap_state_masks, wide_gap_graph, wide_min_mean_cycle_howard

REFERENCE_TABLE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "table_k1-10_i1-12.csv"


def python_gap_graph(distances: DistanceSet):
    """Oracle: the mask gap graph by a queue over states, one arc at a time.

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


def forbidden_of(mask: int, distances: DistanceSet) -> int:
    """F of a mask: S shifted down by each occupied offset, all together."""
    sbits = sum(1 << d for d in distances)
    forbidden = 0
    for j in range(mask.bit_length()):
        if mask >> j & 1:
            forbidden |= sbits >> j
    return forbidden


def by_f_state(order, adjacency) -> dict:
    """A graph up to its numbering: per F, its arcs as (gap, target F)."""
    order = list(order)
    return {f: [(g, order[j]) for g, j in row] for f, row in zip(order, adjacency)}


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
        want_order, want_adjacency, _ = f_state_bfs(distances)
        assert order.dtype == np.int64 and arcs.dst.dtype == np.int32 and arcs.w.dtype == np.int8, combo
        assert order[0] == want_order[0], combo  # F0 = S is state 0
        assert len(order) == len(want_order), combo
        assert by_f_state(order.tolist(), arcs) == by_f_state(want_order, want_adjacency), combo


def test_builder_in_blocks_of_one_state_matches_the_python_oracle(monkeypatch):
    combos = [(1,), (2, 3), (1, 4, 7), (2, 5, 11), (3, 8, 12)]
    whole = [_independence_gap_graph(DistanceSet(combo), 10**6) for combo in combos]
    # the build then makes the arcs of one state per block
    monkeypatch.setattr(meancycle, "_ARC_BLOCK", 1)
    for combo, (want_order, want_arcs) in zip(combos, whole):
        order, arcs = _independence_gap_graph(DistanceSet(combo), 10**6)
        assert order.tolist() == want_order.tolist(), combo
        assert list(arcs) == list(want_arcs), combo
        assert by_f_state(order.tolist(), arcs) == by_f_state(*f_state_bfs(DistanceSet(combo))[:2]), combo


def test_mask_breadth_first_order_is_the_key_order():
    # by popcount, then by the gap word read from the oldest element; up to
    # max(S) = 62, where the two keys together take up to 65 bits
    far = [tuple(range(4, 63)), tuple(d for d in range(1, 63) if d % 5)]
    for combo in _small_sets() + TABLE_SETS + far:
        distances = DistanceSet(combo)
        order, _ = python_gap_graph(distances)
        reversed_order = np.array(order[::-1], dtype=np.int64)
        got = _breadth_first_order(reversed_order, distances.max_element)
        assert reversed_order[got].tolist() == order, combo
        assert sorted(order[::-1], key=lambda m: _mask_key(m, distances.max_element)) == order, combo
        words = []
        for mask in order:
            offsets = [j for j in range(mask.bit_length() - 1, -1, -1) if mask >> j & 1]
            words.append((len(offsets), [a - b for a, b in zip(offsets, offsets[1:])]))
        assert words == sorted(words), combo


def test_states_are_numbered_by_least_mask():
    for combo in _small_sets() + TABLE_SETS:
        distances = DistanceSet(combo)
        masks, _ = python_gap_graph(distances)
        order, _ = _independence_gap_graph(distances, 10**6)
        first_seen = list(dict.fromkeys(forbidden_of(m, distances) for m in masks))
        assert order.tolist() == first_seen, combo


def test_f_states_and_their_least_masks_are_met_in_a_breadth_first_search_on_f():
    # the numbering and the pinning's least masks come from the mask listing,
    # yet a search on F states alone, tracing one mask per state, gives both
    combos = [c for size in range(1, 11) for c in combinations(range(1, 11), size)]
    for combo in combos + [(18, 19), (1, 22), (5, 22)]:
        distances = DistanceSet(combo)
        order, arcs = _independence_gap_graph(distances, 10**6)
        want_order, _, want_least = f_state_bfs(distances)
        assert order.tolist() == want_order, combo
        assert arcs.pinning.least.tolist() == want_least, combo


def test_a_max_element_past_62_is_refused_before_any_build():
    with pytest.raises(StateSpaceError) as info:
        _independence_gap_graph(DistanceSet(range(4, 64)), 10**6)
    assert info.value.required == 63
    order, _ = _independence_gap_graph(DistanceSet(range(4, 63)), 10**6)
    assert order[0] == sum(1 << d for d in range(4, 63))


def test_a_successor_outside_the_states_is_refused(monkeypatch):
    # every F loses offset 1, which (F >> g) | S puts back
    forbidden_offsets = stategraph._forbidden_offsets
    monkeypatch.setattr(stategraph, "_forbidden_offsets", lambda *args: forbidden_offsets(*args) & ~2)
    with pytest.raises(AssertionError, match="successor outside the states"):
        _independence_gap_graph(DistanceSet([1, 4, 7]), 10**6)


def test_mask_oracle_matches_the_python_oracle():
    for combo in _small_sets():
        distances = DistanceSet(combo)
        order, arcs = mask_gap_graph(distances, 10**6)
        want_order, want_adjacency = python_gap_graph(distances)
        assert order.tolist() == want_order, combo
        assert list(arcs) == want_adjacency, combo


def test_lean_engine_matches_the_wide_oracle(evaluate_calls):
    # the F engine's values, witnesses and policy evaluations equal the
    # mask engine's run: the mask graph, in the block-wise and the wide
    # build, and Howard with the default pinning rule
    sets = _small_sets() + TABLE_SETS + GAP_LARGE_POOL
    assert len(sets) == 404
    for combo in sets:
        distances = DistanceSet(combo)
        want = wide_gap_graph(distances, 10**6)
        masks = mask_gap_graph(distances, 10**6)
        for got, expected in zip((masks[0], masks[1].indptr, masks[1].dst, masks[1].w), want):
            assert np.array_equal(got.astype(np.int64), expected), combo
        mean, _, gaps, evaluations = wide_min_mean_cycle_howard(*want[1:])
        _, arcs = _independence_gap_graph(distances, 10**6)
        evaluate_calls.clear()
        got_mean, _, got_gaps = meancycle.min_mean_cycle_howard(arcs.indptr, arcs.dst, arcs.w, arcs.pinning)
        assert (got_mean, got_gaps) == (mean, gaps), combo
        assert len(evaluate_calls) == evaluations, combo
        assert independence_ratio_exact(distances)[1].sizes == tuple(gaps), combo


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
    # {18,19}: 131,072 masks, whose quotient has 13,581 F states and
    # 110,460 arcs.  With int64 arrays spanning every arc of the mask graph,
    # the whole call peaked at about 60 MB traced, and with the narrow mask
    # CSR near 30 MB; on the F states it peaks near 8 MB.
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
    assert peak < 20 * 10**6


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
    # the cap and `required` count mask states; the graph has the F states
    distances = DistanceSet([2, 5, 11])
    masks = len(python_gap_graph(distances)[0])
    assert masks == 52
    states = len(f_state_bfs(distances)[0])
    assert states == 20
    order, _ = _independence_gap_graph(distances, masks)
    assert len(order) == states
    with pytest.raises(StateSpaceError) as info:
        _independence_gap_graph(distances, masks - 1)
    assert info.value.required == masks


def test_table_matches_the_reference_bytes(tmp_path):
    out = tmp_path / "table.csv"
    assert cli.run(["table", "--k", "1..10", "--i", "1..12", "--out", str(out)]) == 0
    assert out.read_bytes() == REFERENCE_TABLE.read_bytes()
