"""Exact mean-cycle solvers: policy iteration against Karp's recurrence."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dgratio import meancycle

from oracles import (
    csr_from_lists,
    max_mean_cycle_howard,
    max_mean_cycle_karp,
    min_mean_cycle_karp,
    wide_min_mean_cycle_howard,
)


def _csr(adjacency):
    return csr_from_lists(adjacency)


def test_self_loop():
    indptr, dst, w = _csr([[(3, 0)]])
    mean, cyc, weights = meancycle.min_mean_cycle_howard(indptr, dst, w)
    assert mean == 3
    assert cyc == [0]
    assert weights == [3]


def test_two_cycle():
    indptr, dst, w = _csr([[(0, 1)], [(1, 0)]])
    mean, cyc, weights = meancycle.min_mean_cycle_howard(indptr, dst, w)
    assert mean == Fraction(1, 2)
    assert sorted(cyc) == [0, 1]


def test_choice_between_cycles():
    # node 0 can self-loop at 5 or enter a 3-cycle of total 9 (mean 3)
    adjacency = [[(5, 0), (2, 1)], [(3, 2)], [(4, 0)]]
    indptr, dst, w = _csr(adjacency)
    mean, cyc, weights = meancycle.min_mean_cycle_howard(indptr, dst, w)
    assert mean == 3
    assert sum(weights) == 9 and len(cyc) == 3
    mean_max, _, _ = max_mean_cycle_howard(indptr, dst, w)
    assert mean_max == 5


def test_karp_small():
    edges = [(0, 0, 3)]
    assert max_mean_cycle_karp(1, edges) == 3
    edges = [(0, 1, 0), (1, 0, 1)]
    assert max_mean_cycle_karp(2, edges) == Fraction(1, 2)
    with pytest.raises(meancycle.NoCycleError):
        max_mean_cycle_karp(2, [(0, 1, 1)])


def _random_graph(rng, n):
    adjacency = [[] for _ in range(n)]
    edges = []
    for u in range(n):
        k = rng.randint(1, min(4, n))
        for v in rng.sample(range(n), k):
            wt = rng.randint(-4, 4)
            adjacency[u].append((wt, v))
            edges.append((u, v, wt))
    return adjacency, edges


def test_howard_matches_karp_on_random_graphs():
    rng = random.Random(42)
    for _ in range(300):
        n = rng.randint(1, 12)
        adjacency, edges = _random_graph(rng, n)
        indptr, dst, w = _csr(adjacency)
        got, cyc, weights = meancycle.min_mean_cycle_howard(indptr, dst, w)
        assert got == min_mean_cycle_karp(n, edges)
        got_max, _, _ = max_mean_cycle_howard(indptr, dst, w)
        assert got_max == max_mean_cycle_karp(n, edges)
        # witness cycle is a real cycle with the reported mean
        L = len(cyc)
        for j in range(L):
            u, v = cyc[j], cyc[(j + 1) % L]
            assert any(d == v and wt == weights[j] for wt, d in adjacency[u])
        assert Fraction(sum(weights), L) == got


class _PinAtLargest(meancycle.CyclePinning):
    """Pins each policy cycle at its largest node and returns the cycle from
    its largest node."""

    def pins(self, succ, wsel, handle, heads):
        pinned = []
        for head in heads.tolist():
            cycle, v = [head], int(succ[head])
            while v != head:
                cycle.append(v)
                v = int(succ[v])
            if max(cycle) != head:
                pinned.append(max(cycle))
        return np.array(pinned, dtype=np.int64) if pinned else None

    def start(self, succ, wsel, v, cycle, weights):
        return cycle.index(max(cycle))


def test_any_pinning_rule_keeps_the_minimum_mean():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 12)
        adjacency, edges = _random_graph(rng, n)
        indptr, dst, w = _csr(adjacency)
        default = meancycle.min_mean_cycle_howard(indptr, dst, w)
        got, cyc, weights = meancycle.min_mean_cycle_howard(indptr, dst, w, _PinAtLargest())
        assert got == default[0] == min_mean_cycle_karp(n, edges)
        assert cyc[0] == max(cyc) and Fraction(sum(weights), len(cyc)) == got
        for j, u in enumerate(cyc):
            assert (weights[j], cyc[(j + 1) % len(cyc)]) in adjacency[u]


def _union(graphs):
    """The CSR arrays of adjacency lists laid end to end, and their node
    offsets."""
    adjacency, offsets = [], [0]
    for graph in graphs:
        adjacency += [[(wt, v + offsets[-1]) for wt, v in row] for row in graph]
        offsets.append(len(adjacency))
    return _csr(adjacency), offsets


@pytest.mark.parametrize("rule", [None, _PinAtLargest()])
def test_a_run_on_several_graphs_equals_a_run_on_each(monkeypatch, evaluate_calls, rule):
    # an arc block of 3 splits a union into blocks that hold rows of graphs
    # that have settled beside rows of graphs still running
    for arc_block in (meancycle._ARC_BLOCK, 3):
        monkeypatch.setattr(meancycle, "_ARC_BLOCK", arc_block)
        rng = random.Random(23)
        for _ in range(200):
            graphs = [_random_graph(rng, rng.randint(1, 12))[0] for _ in range(rng.randint(1, 6))]
            alone, longest = [], 0
            for graph in graphs:
                evaluate_calls.clear()
                alone.append(meancycle.min_mean_cycle_howard(*_csr(graph), rule))
                longest = max(longest, len(evaluate_calls))
            csr, offsets = _union(graphs)
            for arrays in (csr, _narrow(*csr)):
                evaluate_calls.clear()
                assert meancycle.min_mean_cycle_howard(*arrays, rule, offsets) == alone
                # no graph waits for another: the run takes the evaluations
                # of the longest run on one
                assert len(evaluate_calls) == longest


def _record_passes(monkeypatch) -> list:
    """A list that gains, per policy evaluation Howard makes, the list of the
    improvement passes that follow it, each as (whether it is the gain pass,
    the set of nodes whose rows it reads, the set of nodes it switches)."""
    evaluations = []
    evaluate, switch = meancycle._evaluate, meancycle._segment_argmin_switch

    def counted(*args):
        evaluations.append([])
        return evaluate(*args)

    def recorded(rows, values_of, current, pol, changed):
        read = set(np.arange(len(pol))[rows.nodes].tolist())
        before = changed.copy()
        switched = switch(rows, values_of, current, pol, changed)
        evaluations[-1].append((values_of.__name__ == "rank_of_targets", read,
                                set((changed & ~before).nonzero()[0].tolist())))
        return switched

    monkeypatch.setattr(meancycle, "_evaluate", counted)
    monkeypatch.setattr(meancycle, "_segment_argmin_switch", recorded)
    return evaluations


def _gain_rows(evaluations: list, shift: int = 0) -> list:
    """Per evaluation, the nodes whose rows its gain pass reads, plus shift."""
    return [{v + shift for gain, read, _ in passes if gain for v in read} for passes in evaluations]


def _alone(graph, rule, evaluations: list, shift: int = 0) -> tuple:
    """A run on graph alone: its result, its evaluation count and, per
    evaluation, the nodes (plus shift) whose rows its gain pass reads.
    Under the default rule they come from the wide oracle, whose gain pass
    reads every row of a policy of several gains; the package's own runs
    on one graph share the code of runs on several."""
    if rule is None:
        mean, cyc, weights, several = wide_min_mean_cycle_howard(*_csr(graph))
        rows = set(range(shift, shift + len(graph)))
        return (mean, cyc, weights), len(several), [rows if gains else set() for gains in several]
    evaluations.clear()
    solved = meancycle.min_mean_cycle_howard(*_csr(graph), rule)
    return solved, len(evaluations), _gain_rows(evaluations, shift)


def _spans(lengths, offsets) -> list:
    """Per evaluation of a run on the graphs laid end to end at offsets,
    whose own runs take lengths evaluations, the nodes from the first to the
    last graph whose own run takes that evaluation."""
    spans = []
    for j in range(1, max(lengths) + 1):
        running = [i for i, n in enumerate(lengths) if n >= j]
        spans.append(set(range(offsets[running[0]], offsets[running[-1] + 1])))
    return spans


@pytest.mark.parametrize("arc_block", [meancycle._ARC_BLOCK, 3])
@pytest.mark.parametrize("rule", [None, _PinAtLargest()])
def test_a_shared_run_reads_only_the_graphs_still_running(monkeypatch, rule, arc_block):
    # every pass reads the span from the first to the last graph whose own
    # run takes that evaluation; the gain pass runs when a graph of the span
    # holds several gains at that evaluation of its own run (at its last,
    # for a graph that has settled), and only graphs whose own runs go on
    # switch
    monkeypatch.setattr(meancycle, "_ARC_BLOCK", arc_block)
    evaluations = _record_passes(monkeypatch)
    rng = random.Random(37)
    staggered = 0
    for _ in range(150):
        graphs = [_random_graph(rng, rng.randint(1, 12))[0] for _ in range(rng.randint(2, 6))]
        csr, offsets = _union(graphs)
        alone, length, gain_rows = zip(*(_alone(graph, rule, evaluations, lo)
                                         for graph, lo in zip(graphs, offsets)))
        evaluations.clear()
        assert meancycle.min_mean_cycle_howard(*csr, rule, offsets) == list(alone)
        assert len(evaluations) == max(length)
        for j, (passes, span) in enumerate(zip(evaluations, _spans(length, offsets))):
            assert passes and all(read == span for _, read, _ in passes)
            inside = [i for i in range(len(graphs)) if offsets[i] in span]
            several = any(gain_rows[i][min(j, length[i] - 1)] for i in inside)
            assert any(gain for gain, _, _ in passes) == several
            going_on = {v for i, n in enumerate(length) if n > j + 1 for v in range(offsets[i], offsets[i + 1])}
            assert all(switched <= going_on for _, _, switched in passes)
        staggered += len(set(length)) > 1
    assert staggered > 100


@pytest.mark.parametrize("rule", [None, _PinAtLargest()])
def test_one_gain_graphs_run_no_gain_pass_beside_a_graph_of_several(monkeypatch, rule):
    # graphs whose own runs hold one gain at every evaluation, alone in a
    # union or beside one graph whose run holds several: alone they take no
    # gain pass, and beside it the gain pass reads the span but switches
    # rows of that graph only; every graph keeps its result
    evaluations = _record_passes(monkeypatch)
    rng = random.Random(41)
    one, several = [], []
    while len(one) < 60 or len(several) < 20:
        graph = _random_graph(rng, rng.randint(1, 12))[0]
        solved, length, gain_rows = _alone(graph, rule, evaluations)
        (several if any(gain_rows) else one).append((graph, solved, length))
    for k in range(20):
        graphs = rng.sample(one, rng.randint(2, 5))
        for mixed in (False, True):
            if mixed:
                graphs.insert(rng.randint(0, len(graphs)), several[k])
            csr, offsets = _union([graph for graph, _, _ in graphs])
            evaluations.clear()
            assert meancycle.min_mean_cycle_howard(*csr, rule, offsets) == [solved for _, solved, _ in graphs]
            assert len(evaluations) == max(length for _, _, length in graphs)
            gain_passes = [(read, switched, span)
                           for passes, span in zip(evaluations, _spans([n for _, _, n in graphs], offsets))
                           for gain, read, switched in passes if gain]
            if not mixed:
                assert not gain_passes
            else:
                i = next(i for i, graph in enumerate(graphs) if graph is several[k])
                assert gain_passes
                for read, switched, span in gain_passes:
                    assert read == span and switched <= set(range(offsets[i], offsets[i + 1]))


def test_parts_must_rise_from_zero_to_the_node_count():
    (indptr, dst, w), _ = _union([[[(1, 0)]], [[(2, 0)]]])
    assert meancycle.min_mean_cycle_howard(indptr, dst, w, parts=[0, 1, 2]) == [
        (1, [0], [1]), (2, [0], [2])]
    for parts in ([0, 2, 2], [1, 2], [0, 1], [0, 1, 3]):
        with pytest.raises(ValueError):
            meancycle.min_mean_cycle_howard(indptr, dst, w, parts=parts)


def test_an_unfinished_run_on_several_graphs_solves_each_graph_alone(monkeypatch):
    # cut at two evaluations, a run on several graphs leaves some unfinished,
    # and weights near 2^60 in one graph put every bias of a run on several
    # past the int64-safe range at once: each unfinished graph is then
    # solved alone, descent rescue included, as a run on it alone is
    descents = []
    descent = meancycle._min_mean_cycle_descent

    def counted(*args):
        descents.append(1)
        return descent(*args)

    monkeypatch.setattr(meancycle, "_min_mean_cycle_descent", counted)
    rng = random.Random(31)
    for cut, huge in ((2, False), (meancycle._MAX_ITERATIONS, True)):
        monkeypatch.setattr(meancycle, "_MAX_ITERATIONS", cut)
        unfinished = 0
        for rule in (None, _PinAtLargest()):
            for _ in range(60):
                graphs = [_random_graph(rng, rng.randint(1, 10))[0] for _ in range(rng.randint(2, 5))]
                if huge:
                    graphs[-1] = [[(rng.choice((-1, 1)) * 2**60 + wt, v) for wt, v in row]
                                  for row in _random_graph(rng, rng.randint(2, 8))[0]]
                descents.clear()
                alone = [meancycle.min_mean_cycle_howard(*_csr(graph), rule) for graph in graphs]
                rescued = len(descents)
                descents.clear()
                csr, offsets = _union(graphs)
                assert meancycle.min_mean_cycle_howard(*csr, rule, offsets) == alone
                assert len(descents) == rescued
                unfinished += rescued
                if huge:
                    assert rescued == 1  # the graph with weights near 2^60
                for (mean, cyc, weights), graph in zip(alone, graphs):
                    assert Fraction(sum(weights), len(cyc)) == mean
                    for j, u in enumerate(cyc):
                        assert (weights[j], cyc[(j + 1) % len(cyc)]) in graph[u]
        assert unfinished > 100


def _narrow(indptr, dst, w):
    return indptr, dst.astype(np.int32), w.astype(np.int8)


@pytest.mark.parametrize("arc_block", [meancycle._ARC_BLOCK, 3])
def test_lean_howard_matches_the_wide_oracle(monkeypatch, evaluate_calls, arc_block):
    # arc_block 3 splits every graph into blocks of rows, and rows with more
    # arcs than a block into blocks of their own
    monkeypatch.setattr(meancycle, "_ARC_BLOCK", arc_block)
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 12)
        adjacency, _ = _random_graph(rng, n)
        csr = _csr(adjacency)
        *want, several = wide_min_mean_cycle_howard(*csr)
        for arrays in (csr, _narrow(*csr)):
            evaluate_calls.clear()
            assert meancycle.min_mean_cycle_howard(*arrays) == tuple(want)
            assert len(evaluate_calls) == len(several)


def test_a_run_widens_no_more_than_one_arc_block(monkeypatch):
    # 2,000 nodes of 200 arcs each, int32 targets and int8 weights, in
    # blocks of 1,024 arcs: a run that widened every target or weight to
    # int64 would take 8 bytes per arc, and the run with parts [0, n] is
    # the run without parts
    monkeypatch.setattr(meancycle, "_ARC_BLOCK", 1024)
    n, deg = 2000, 200
    rng = np.random.default_rng(3)
    indptr = np.arange(0, n * deg + 1, deg, dtype=np.int64)
    dst = rng.integers(0, n, n * deg).astype(np.int32)
    w = rng.integers(-100, 101, n * deg).astype(np.int8)
    solved = []
    for parts in (None, [0, n]):
        tracemalloc.start()
        try:
            solved.append(meancycle.min_mean_cycle_howard(indptr, dst, w, parts=parts))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(dst), (parts, peak / len(dst))
    assert [solved[0]] == solved[1]


def test_int8_weights_near_their_limits_against_karp(evaluate_calls):
    # a ring through every node, plus chords, all weighted near +-127: the
    # policy cycles are longer than 2, so any int8 sum along them would wrap.
    # Wrapped gains can still end in the right mean by way of the descent
    # rescue, so the policy iteration must also match the wide oracle's.
    rng = random.Random(127)
    for _ in range(120):
        n = rng.randint(3, 10)
        adjacency = [[] for _ in range(n)]
        for u in range(n):
            adjacency[u].append((rng.choice((127 - rng.randint(0, 3), -128 + rng.randint(0, 3))), (u + 1) % n))
            for v in rng.sample(range(n), rng.randint(0, 2)):
                adjacency[u].append((rng.choice((127, 126, -127, -128)), v))
        edges = [(u, v, wt) for u, row in enumerate(adjacency) for wt, v in row]
        indptr, dst, w = _narrow(*_csr(adjacency))
        evaluate_calls.clear()
        mean, cyc, weights = meancycle.min_mean_cycle_howard(indptr, dst, w)
        *want, several = wide_min_mean_cycle_howard(indptr, dst, w)
        assert (mean, cyc, weights) == tuple(want) and len(evaluate_calls) == len(several)
        assert mean == min_mean_cycle_karp(n, edges)
        assert Fraction(sum(weights), len(weights)) == mean
        assert max_mean_cycle_howard(indptr, dst, w)[0] == max_mean_cycle_karp(n, edges)


def test_descent_rescue_agrees():
    # exercise the unconditional fallback directly on tie-heavy graphs
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(2, 10)
        adjacency, edges = _random_graph(rng, n)
        indptr, dst, w = _csr(adjacency)
        mean, cyc, weights = meancycle._min_mean_cycle_descent(indptr, dst, w)
        assert mean == min_mean_cycle_karp(n, edges)
        assert Fraction(sum(weights), len(weights)) == mean


def test_negation_duality():
    rng = random.Random(77)
    for _ in range(50):
        n = rng.randint(1, 10)
        adjacency, edges = _random_graph(rng, n)
        indptr, dst, w = _csr(adjacency)
        mn, _, _ = meancycle.min_mean_cycle_howard(indptr, dst, w)
        mx, _, _ = max_mean_cycle_howard(indptr, dst, -w)
        assert mn == -mx


def test_csr_adjacency_reads_as_its_lists(monkeypatch):
    adjacency = [[(5, 0), (2, 1)], [(3, 2)], [(4, 0), (-1, 1)]]
    indptr, dst, w = _csr(adjacency)
    rows = meancycle.CSRAdjacency(indptr, dst, w)
    assert len(rows) == 3
    assert list(rows) == adjacency
    monkeypatch.setattr(meancycle, "_ARC_BLOCK", 1)  # a block per row, rows past a block
    assert list(rows) == adjacency
    assert rows[2] == adjacency[2] and rows[-1] == adjacency[-1]
    with pytest.raises(IndexError):
        rows[3]
    packed = meancycle.csr_from_adjacency(rows)
    assert all(a is b for a, b in zip(packed, (indptr, dst, w)))


def test_biases_past_int64_take_the_descent_rescue(monkeypatch):
    # weights near 2^60 make every bias bound exceed the int64-safe range, so
    # Howard must hand over to the descent, which then works in Python ints
    descents = []
    descent = meancycle._min_mean_cycle_descent

    def counted(*args):
        descents.append(1)
        return descent(*args)

    monkeypatch.setattr(meancycle, "_min_mean_cycle_descent", counted)
    rng = random.Random(58)
    for _ in range(20):
        n = rng.randint(2, 8)
        adjacency, edges = _random_graph(rng, n)
        big = [[(rng.choice((-1, 1)) * 2**60 + wt, v) for wt, v in row] for row in adjacency]
        big_edges = [(u, v, wt) for u, row in enumerate(big) for wt, v in row]
        indptr, dst, w = _csr(big)
        mean, cyc, weights = meancycle.min_mean_cycle_howard(indptr, dst, w)
        assert mean == min_mean_cycle_karp(n, big_edges)
        assert Fraction(sum(weights), len(weights)) == mean
        mx, _, _ = max_mean_cycle_howard(indptr, dst, w)
        assert mx == max_mean_cycle_karp(n, big_edges)
    assert len(descents) == 40


def python_evaluate(succ, w, prev_bias):
    """Oracle: a policy's gains and biases by walking the nodes in order.

    Returns per-node (num, den) gain and bias, where each cycle is pinned at
    its smallest node h to prev_bias[h], and the cycles as (num, den, nodes)
    in the order the walk meets them, each listed from where it was entered.
    """
    n = len(succ)
    state = [0] * n  # 0 unseen, 1 on the current walk, 2 done
    gain, bias, cycles = [None] * n, [0] * n, []
    for v0 in range(n):
        path, v = [], v0
        while state[v] == 0:
            state[v] = 1
            path.append(v)
            v = succ[v]
        tail = path
        if state[v] == 1:
            start = path.index(v)
            cyc, tail = path[start:], path[:start]
            mean = Fraction(sum(w[u] for u in cyc), len(cyc))
            cycles.append((mean, cyc))
            h = min(cyc)
            pos = cyc.index(h)
            ring = cyc[pos:] + cyc[:pos]
            bias[h] = prev_bias[h]
            for u in reversed(ring):
                gain[u] = mean
                if u != h:
                    bias[u] = w[u] * mean.denominator - mean.numerator + bias[succ[u]]
        for u in reversed(tail):
            gain[u] = mean = gain[succ[u]]
            bias[u] = w[u] * mean.denominator - mean.numerator + bias[succ[u]]
        for u in path:
            state[u] = 2
    return gain, bias, cycles


def test_pointer_jumping_evaluation_matches_the_walk():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 60)
        succ = [rng.randrange(n) for _ in range(n)]
        if rng.random() < 0.5:  # long tails into few short cycles, renumbered
            perm = rng.sample(range(n), n)
            for v in range(n):
                succ[perm[v]] = perm[rng.randint(max(0, v - 3), v)]
        w = [rng.randint(-3, 3) for _ in range(n)]
        prev = [rng.randint(-50, 50) for _ in range(n)]
        gain, bias, cycles = python_evaluate(succ, w, prev)
        succ_a, w_a = np.array(succ, dtype=np.int64), np.array(w, dtype=np.int64)
        lam_num, lam_den, got_bias, handle, on_cycle = meancycle._evaluate(
            succ_a, w_a, np.array(prev, dtype=np.int64), 3)
        assert [Fraction(p, q) for p, q in zip(lam_num.tolist(), lam_den.tolist())] == gain
        assert got_bias.tolist() == bias
        best_mean = min(mean for mean, _ in cycles)
        first_best = next(cyc for mean, cyc in cycles if mean == best_mean)
        rank = meancycle._gain_rank(lam_num, lam_den, handle)
        assert meancycle._best_cycle(succ_a, w_a, rank, on_cycle) == (first_best, [w[u] for u in first_best])
