"""The numpy gap engine against a plain breadth-first oracle, its exact state
count, and the byte-stable table it feeds."""

from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from dgratio import cli, meancycle
from dgratio.core import DistanceSet
from dgratio.stategraph import (
    EngineCaps,
    StateSpaceError,
    _independence_gap_graph,
    independence_ratio_exact,
)

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


def _small_sets():
    return [combo for size in (1, 2, 3) for combo in combinations(range(1, 13), size)]


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


def test_cap_reports_the_exact_state_count():
    with pytest.raises(StateSpaceError) as info:
        _independence_gap_graph(DistanceSet([21, 22]), 1000)
    assert info.value.required == 1_048_576
    with pytest.raises(StateSpaceError) as info:
        independence_ratio_exact(DistanceSet([19, 22]), EngineCaps(independence_max_states=1000))
    assert info.value.required == 589_824


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
