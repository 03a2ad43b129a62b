"""Window-state graphs, extremal cycles, and the exact density engines."""

import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from dgratio import meancycle
from dgratio.core import BlockList, DistanceSet, verify_periodic_independent
from dgratio.ratio import fractional_chromatic
from dgratio.stategraph import (
    Coloring,
    Domination,
    EngineCaps,
    IdentifyingCode,
    InfeasibleError,
    StateSpaceError,
    _prune,
    build_state_graph,
    extremal_mean_cycle,
    independence_ratio_exact,
    min_dominating_density,
    min_identifying_density,
    periodic_coloring,
    verify_periodic_coloring,
    verify_periodic_dominating,
    verify_periodic_identifying,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.corpus import COLORING_STRATA, WINDOWS_MEDIAN  # noqa: E402
from oracles import (  # noqa: E402
    Independence,
    WindowGraph,
    coloring_window_graph,
    domination_pair_graph,
    identifying_pair_graph,
    independence_window_graph,
    list_window_graph,
    prune,
    window_csr,
)
from oracles import extremal_mean_cycle as oracle_mean_cycle  # noqa: E402


# ---------------------------------------------------------------------------
# build_state_graph
# ---------------------------------------------------------------------------


def test_build_independence_single_generator():
    g = independence_window_graph(DistanceSet([1]))
    assert g.window == 1
    assert set(g.states) == {0, 1}
    arcs = {g.states[i]: {g.states[j] for j in out} for i, out in enumerate(g.arcs)}
    assert arcs[0] == {0, 1}  # empty window may be followed by anything
    assert arcs[1] == {0}  # adjacent occupied windows collide at distance 1


def test_build_independence_two_generators():
    g = independence_window_graph(DistanceSet([1, 2]))
    assert g.window == 2
    # subsets of a 2-window: {} , {1}, {2}; {1,2} has internal distance 1
    assert set(g.states) == {0b00, 0b01, 0b10}


def test_build_domination_single_generator():
    g = build_state_graph(DistanceSet([1]), Domination())
    assert len(g.states) == 4  # all states admissible and bi-extensible


def test_window_graph_sizes_are_pinned():
    # states and arcs of the sliding-window automaton after pruning
    for members, kind, states, arcs in (
        ([1], Domination(), 4, 7),
        ([1, 2], Domination(), 16, 31),
        ([1, 2, 3, 4], Domination(), 256, 511),
        ([1], IdentifyingCode(), 10, 15),
    ):
        g = build_state_graph(DistanceSet(members), kind)
        assert (len(g.states), sum(map(len, g.arcs))) == (states, arcs), (members, kind)


def _list_prune(targets):
    states, _ = prune(list(range(len(targets))), [[j for j in row if j >= 0] for row in targets])
    return states


def test_prune_matches_the_list_oracle():
    tables = [
        [[1], [2], [-1]],  # a chain into a dead end: every state dies
        [[-1, -1]] * 3,  # no arcs at all
        [[0], [-1]],  # a self-loop survives; an isolated state does not
        [[1, -1], [0, 2], [3, -1], [-1, -1]],  # a tail out of a cycle dies from its far end
        [[1], [0], [1], [2]],  # a tail into a cycle dies from its source end
        [[-1, -1], [2, -1], [3, -1], [2, 2]],  # the same into a doubled arc
    ]
    rng = random.Random(5)
    for _ in range(400):
        n, base = rng.randint(1, 30), rng.randint(1, 4)
        tables.append([[rng.randrange(n) if rng.random() < 0.4 else -1 for _ in range(base)]
                       for _ in range(n)])
    survivors = 0
    for table in tables:
        got = _prune(np.array(table, dtype=np.int64))
        assert got.tolist() == _list_prune(table), table
        survivors += len(got)
    assert _prune(np.array(tables[0])).size == 0 and _prune(np.array(tables[2])).tolist() == [0]
    assert survivors > 0


def test_build_matches_the_list_path():
    # every S within {1..6} and every kind the window cap admits
    cap = EngineCaps().window_max_states
    built = 0
    for size in range(1, 7):
        for combo in combinations(range(1, 7), size):
            s = DistanceSet(combo)
            kinds = [Domination()] + [Coloring(k) for k in range(1, 9) if k ** s.max_element <= cap]
            if s.max_element <= 3:
                kinds.append(IdentifyingCode())
            for kind in kinds:
                graph, reference = build_state_graph(s, kind), list_window_graph(s, kind)
                assert graph.states == reference.states, (combo, kind)
                got = meancycle.csr_from_adjacency(graph.arcs)
                for a, b in zip(got, window_csr(reference)):
                    assert np.array_equal(a, b), (combo, kind)
                if graph.states and not isinstance(kind, Coloring):
                    assert extremal_mean_cycle(graph) == oracle_mean_cycle(reference, "min"), (combo, kind)
                built += 1
    assert built == 398


def test_extremal_examples():
    loop = WindowGraph(window=2, kind=Independence(), states=(1,), arcs=((0,),), weights=(1,))
    wit = oracle_mean_cycle(loop, "max")
    assert wit.density == Fraction(1, 2)

    two = WindowGraph(
        window=1, kind=Independence(), states=(0, 1), arcs=((1,), (0,)), weights=(0, 1)
    )
    wit = oracle_mean_cycle(two, "max")
    assert wit.density == Fraction(1, 2)

    g = independence_window_graph(DistanceSet([1]))
    wit = oracle_mean_cycle(g, "max")
    assert wit.density == Fraction(1, 2)
    assert wit.period_set is not None
    assert wit.period_set.density() == Fraction(1, 2)


def test_negation_duality_on_window_graphs():
    for s in ([1], [1, 2], [1, 3], [2, 3], [1, 4]):
        g = independence_window_graph(DistanceSet(s))
        mx = oracle_mean_cycle(g, "max").density
        neg = WindowGraph(
            window=g.window,
            kind=g.kind,
            states=g.states,
            arcs=g.arcs,
            weights=tuple(-w for w in g.weights),
        )
        mn = oracle_mean_cycle(neg, "min").density
        assert mn == -mx


# ---------------------------------------------------------------------------
# independence engine
# ---------------------------------------------------------------------------


def test_independence_ratio_examples():
    assert independence_ratio_exact(DistanceSet([1, 4]))[0] == Fraction(2, 5)
    assert independence_ratio_exact(DistanceSet([1, 4, 7]))[0] == Fraction(3, 8)


def test_witness_is_sound():
    rng = random.Random(3)
    for _ in range(40):
        s = DistanceSet(rng.sample(range(1, 11), rng.randint(1, 3)))
        value, witness = independence_ratio_exact(s)
        assert verify_periodic_independent(witness, s).ok
        assert witness.density() == value


def test_gap_engine_matches_window_graph():
    for size in (1, 2, 3):
        for combo in combinations(range(1, 10), size):
            s = DistanceSet(combo)
            value, _ = independence_ratio_exact(s)
            wit = oracle_mean_cycle(independence_window_graph(s), "max")
            assert wit.density == value, combo


def test_period_bound():
    rng = random.Random(17)
    for _ in range(30):
        s = DistanceSet(rng.sample(range(1, 12), rng.randint(1, 3)))
        _, witness = independence_ratio_exact(s)
        m = s.max_element
        assert witness.period <= (m + 1) * 2 ** max(m - 1, 0) <= max(m, 1) * 2**m + 1


def test_scaling_invariance_raw_engine():
    rng = random.Random(29)
    checked = 0
    for _ in range(20):
        s = DistanceSet(rng.sample(range(1, 8), rng.randint(1, 3)))
        base, _ = independence_ratio_exact(s)
        for d in (2, 3):
            scaled = s.scaled(d)
            if scaled.max_element > 22:
                continue
            try:
                got, _ = independence_ratio_exact(scaled)
            except StateSpaceError:
                continue  # invariant applies only when both fit the caps
            assert got == base, (s, d)
            checked += 1
    assert checked >= 20


def test_subset_monotonicity():
    rng = random.Random(31)
    for _ in range(20):
        big = sorted(rng.sample(range(1, 10), 3))
        small = sorted(rng.sample(big, rng.randint(1, 2)))
        r_small, _ = independence_ratio_exact(DistanceSet(small))
        r_big, _ = independence_ratio_exact(DistanceSet(big))
        assert r_small >= r_big


def test_state_cap_raises():
    with pytest.raises(StateSpaceError):
        independence_ratio_exact(DistanceSet([1, 30]))
    with pytest.raises(StateSpaceError):
        independence_ratio_exact(
            DistanceSet([21, 22]), EngineCaps(independence_max_states=1000)
        )


# ---------------------------------------------------------------------------
# domination
# ---------------------------------------------------------------------------


def _brute_min_dominating(distances, max_period):
    best = None
    for p in range(1, max_period + 1):
        for mask in range(1, 1 << p):
            members = {i for i in range(p) if mask >> i & 1}
            deltas = [0] + [d for s in distances for d in (s, -s)]
            if all(
                any((u + d) % p in members for d in deltas) for u in range(p)
            ):
                cand = Fraction(len(members), p)
                if best is None or cand < best:
                    best = cand
    return best


def test_domination_examples():
    density, witness = min_dominating_density(DistanceSet([1]))
    assert density == Fraction(1, 3)
    assert verify_periodic_dominating(witness.period_set, DistanceSet([1]))

    density, _ = min_dominating_density(DistanceSet([1, 2]))
    assert density == Fraction(1, 5)

    density, _ = min_dominating_density(DistanceSet([2]))
    assert density == Fraction(1, 3)


def test_domination_matches_brute_oracle():
    for s in ([1], [2], [1, 2]):
        density, _ = min_dominating_density(DistanceSet(s))
        assert density == _brute_min_dominating(DistanceSet(s), 9), s


def test_domination_density_in_range():
    for s in ([1], [2], [3], [1, 2], [1, 3], [2, 3]):
        density, _ = min_dominating_density(DistanceSet(s))
        assert Fraction(0) < density <= Fraction(1)


# ---------------------------------------------------------------------------
# identifying codes
# ---------------------------------------------------------------------------


def _brute_min_identifying(distances, radius, max_period):
    best = None
    for p in range(1, max_period + 1):
        for mask in range(1, 1 << p):
            members = {i for i in range(p) if mask >> i & 1}
            blocks = _blocklist_from_members(members, p)
            if blocks is None:
                continue
            if verify_periodic_identifying(blocks, distances, radius):
                cand = Fraction(len(members), p)
                if best is None or cand < best:
                    best = cand
    return best


def _blocklist_from_members(members, period):
    if not members:
        return None
    xs = sorted(members)
    gaps = [b - a for a, b in zip(xs, xs[1:])]
    gaps.append(period - xs[-1] + xs[0])
    return BlockList(gaps)


def test_identifying_single_generator_matches_oracle():
    density, witness = min_identifying_density(DistanceSet([1]), 1)
    oracle = _brute_min_identifying(DistanceSet([1]), 1, 12)
    assert density == oracle == Fraction(1, 2)
    assert verify_periodic_identifying(witness.period_set, DistanceSet([1]), 1)


def test_identifying_radius_two_equals_power_route():
    d2, _ = min_identifying_density(DistanceSet([1]), 2)
    d1, _ = min_identifying_density(DistanceSet([1, 2]), 1)
    assert d2 == d1


def test_identifying_scaled_generator():
    base, _ = min_identifying_density(DistanceSet([1]), 1)
    scaled, witness = min_identifying_density(DistanceSet([2]), 1)
    assert scaled == base
    assert verify_periodic_identifying(witness.period_set, DistanceSet([2]), 1)


def test_identifying_cap():
    # 2^(4 max S) window states, for the effective set at radius r
    for members, radius in (([4], 1), ([1, 2], 2)):
        with pytest.raises(StateSpaceError) as info:
            min_identifying_density(DistanceSet(members), radius)
        assert info.value.required == 1 << 16


def test_window_cap_counts_window_states():
    # 2^(2 max S) and k^max(S) window states against the cap of 4096
    for refused, required in (
        (lambda: min_dominating_density(DistanceSet([7])), 1 << 14),
        (lambda: periodic_coloring(DistanceSet([1, 2, 3, 4, 5]), 6), 6**5),
    ):
        with pytest.raises(StateSpaceError) as info:
            refused()
        assert info.value.required == required
    with pytest.raises(StateSpaceError):
        build_state_graph(DistanceSet([1]), Domination(), EngineCaps(window_max_states=3))


def test_window_cap_is_decided_before_the_automaton_is_built():
    # required is base^L below 2^64 and None from there on, whatever the cap
    wide = EngineCaps(window_max_states=1 << 70)
    for kind, members, required in (
        (Coloring(2), [63], 1 << 63),
        (Coloring(2), [64], None),
        (Coloring(3), [40], 3**40),
        (Coloring(3), [41], None),
        (Coloring(3), [50], None),
        (Domination(), [32], None),
        (IdentifyingCode(), [10**20], None),
    ):
        with pytest.raises(StateSpaceError) as info:
            build_state_graph(DistanceSet(members), kind, EngineCaps(window_max_states=1))
        assert info.value.required == required, (kind, members)
        if required is None:
            with pytest.raises(StateSpaceError):
                build_state_graph(DistanceSet(members), kind, wide)
    # the power's largest distance is radius * max(S); the power is never built
    with pytest.raises(StateSpaceError) as info:
        min_identifying_density(DistanceSet([1]), 10**6)
    assert info.value.required is None
    assert "{1} at radius 1000000 needs 2^4000000 states" in str(info.value)


def test_identifying_past_the_old_window_cap():
    # sets the 6 max(S) block-pair windows could not hold
    density, witness = min_identifying_density(DistanceSet([1, 3]), 1)
    assert density == _brute_min_identifying(DistanceSet([1, 3]), 1, 11) == Fraction(4, 11)
    assert verify_periodic_identifying(witness.period_set, DistanceSet([1, 3]), 1)
    for members in ([2, 3], [3], [1, 2, 3]):
        s = DistanceSet(members)
        density, witness = min_identifying_density(s, 1)
        assert density <= _brute_min_identifying(s, 1, 11), members
        assert verify_periodic_identifying(witness.period_set, s, 1), members
        assert witness.period_set.density() == density, members


def test_domination_past_the_old_element_cap():
    for members in ([1, 5], [1, 6], [1, 2, 3, 4, 5, 6]):
        s = DistanceSet(members)
        density, witness = min_dominating_density(s)
        assert density <= _brute_min_dominating(s, 11), members
        assert verify_periodic_dominating(witness.period_set, s), members
        assert witness.period_set.density() == density, members


# ---------------------------------------------------------------------------
# the sliding-window automaton against the block-pair oracles
# ---------------------------------------------------------------------------


def test_domination_automaton_matches_pair_graph():
    for size in (1, 2, 3, 4):
        for combo in combinations(range(1, 5), size):
            s = DistanceSet(combo)
            oracle = oracle_mean_cycle(domination_pair_graph(s), "min").density
            assert min_dominating_density(s)[0] == oracle, combo


def test_identifying_automaton_matches_pair_graph():
    for members in ([1], [1, 2]):
        s = DistanceSet(members)
        oracle = oracle_mean_cycle(identifying_pair_graph(s), "min").density
        assert min_identifying_density(s, 1)[0] == oracle, members


def test_coloring_automaton_matches_window_graph():
    pool = [q for _, alternatives in COLORING_STRATA for q in alternatives] + [WINDOWS_MEDIAN]
    refused = 0
    for members, k in pool:
        s = DistanceSet(members)
        if k ** s.max_element > EngineCaps().window_max_states:
            with pytest.raises(StateSpaceError) as info:
                periodic_coloring(s, k)
            assert info.value.required == k ** s.max_element
            refused += 1
            continue
        oracle = coloring_window_graph(s, k)
        witness = periodic_coloring(s, k)
        assert (witness is not None) == bool(oracle.states), (members, k)
        if witness is not None:
            assert verify_periodic_coloring(witness.colors, s), (members, k)
            assert verify_periodic_coloring(oracle_mean_cycle(oracle).colors, s), (members, k)
    assert refused == 4


# ---------------------------------------------------------------------------
# colorings and the fractional chromatic number
# ---------------------------------------------------------------------------


def test_coloring_examples():
    wit = periodic_coloring(DistanceSet([1]), 2)
    assert wit is not None
    assert wit.period == 2
    assert verify_periodic_coloring(wit.colors, DistanceSet([1]))

    assert periodic_coloring(DistanceSet([1]), 1) is None

    wit = periodic_coloring(DistanceSet([1, 2, 3]), 4)
    assert wit is not None
    assert verify_periodic_coloring(wit.colors, DistanceSet([1, 2, 3]))


def test_coloring_matches_chromatic_threshold():
    # distance set {1,2}: 3 colors needed, 2 impossible
    assert periodic_coloring(DistanceSet([1, 2]), 2) is None
    assert periodic_coloring(DistanceSet([1, 2]), 3) is not None


def test_mean_cycle_on_empty_graph_is_infeasible():
    graph = build_state_graph(DistanceSet([1]), Coloring(1))
    assert not graph.states
    with pytest.raises(InfeasibleError):
        extremal_mean_cycle(graph)


def test_fractional_chromatic_examples():
    assert fractional_chromatic(DistanceSet([1, 2, 3])) == 4
    assert fractional_chromatic(DistanceSet([1, 4])) == Fraction(5, 2)
    assert fractional_chromatic(DistanceSet([3, 5, 7])) == 2


def test_coloring_consistent_with_fractional_chromatic():
    # no proper coloring may use fewer than chi_f colors, and position mod
    # max(S)+1 always colors the graph, so the engines must agree on both
    rng = random.Random(41)
    for _ in range(12):
        s = DistanceSet(rng.sample(range(1, 5), rng.randint(1, 3)))
        chi_f = fractional_chromatic(s)
        too_few = (chi_f.numerator - 1) // chi_f.denominator  # largest k < chi_f
        if too_few >= 1:
            assert periodic_coloring(s, too_few) is None, (s, chi_f)
        upper = s.max_element + 1
        wit = periodic_coloring(s, upper)
        assert wit is not None and verify_periodic_coloring(wit.colors, s)
