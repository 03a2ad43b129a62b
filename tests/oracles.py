"""Test oracles: slow, independent reimplementations the package is checked
against.  None of them is used by the package itself.

- Karp's recurrence for extremal cycle means, with Tarjan's strongly
  connected components, and Howard's maximum mean cycle by negation;
- exhaustive alpha(G(S)[n]) over all 2^n subsets;
- the periodic independence check as a scan of element pairs over enough
  unrolled periods, whose verdict and violation pair the package's residue
  check must keep;
- the recursive branch-and-bound search, one Python call per search node
  and a full run scan per candidate set, whose node order, node counts and
  budget exhaustion the package's explicit-stack search must keep;
- the round-by-round ratio schedule: circulant Z_n then intervals 2n-1
  and 2n in every round, with no jump ahead to Z_q, whose status, bounds
  and witnesses the package's schedule must keep;
- the F automaton by a breadth-first search on F states, one arc at a
  time, tracing the mask of each state's discovery path, whose numbering
  and least masks the gap engine must keep;
- the scan of all 2^(max(S)-1) candidate masks for the gap engine's
  states, against which the grown masks and their count are checked;
- the mask gap engine: the gap graph on masks of occupied offsets, built
  by a block-wise breadth-first search, whose Howard values, witnesses
  and evaluation counts the package's F automaton (its quotient) must
  keep;
- the wide gap engine: the mask gap graph built with int64 arrays
  spanning every arc, and Howard with int64 targets, weights and sources
  on every arc and all arcs in each improvement pass, whose CSR arrays,
  results and evaluation counts the block-wise mask graph and the lean
  Howard must keep;
- the pinning rule offered every policy cycle at every evaluation,
  whichever changed, whose biases, values, cycles and evaluation counts
  Howard's changed-cycle offer must keep;
- window graphs with list adjacency, pruned by a Python loop, whose arcs
  may add several positions, with their extremal mean cycles in either
  direction:
  - the sliding-window automaton built on lists, whose states, arcs and
    weights the package's numpy build must equal;
  - the explicit window-subset graph for the independence ratio, whose
    maximum mean cycle the gap-state engine must match;
  - block-pair graphs for domination, identifying codes and colorings,
    whose states are whole windows and whose arcs paste two of them,
    against which the one-position sliding-window automaton is checked;
- CSR packing of list-of-lists adjacencies, the form these oracles and the
  hand-written test graphs take;
- the brute-force inverse of a catalog family, every set its sweep builds
  mapped to its parameters, against which decode-and-rebuild matching and
  closed_form are checked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from dgratio import meancycle, stategraph
from dgratio.core import BlockList, DistanceSet, IndependenceVerdict
from dgratio.meancycle import NoCycleError, min_mean_cycle_howard
from dgratio.search import AlphaTable, BudgetExceeded, SearchBudget, _alpha_circulant_solution, alpha_interval
from dgratio.stategraph import Coloring, CycleWitness, InfeasibleError

BRUTE_FORCE_CAP = 26


def csr_from_lists(adjacency: list) -> tuple:
    """CSR arrays (indptr, dst, w), all int64, from per-node [(weight, dst), ...] lists."""
    deg = np.fromiter(map(len, adjacency), dtype=np.int64, count=len(adjacency))
    indptr = np.zeros(len(adjacency) + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    total = int(indptr[-1])
    flat = np.fromiter(itertools.chain.from_iterable(itertools.chain.from_iterable(adjacency)),
                       dtype=np.int64, count=2 * total).reshape(total, 2)
    return indptr, flat[:, 1].copy(), flat[:, 0].copy()


# ---------------------------------------------------------------------------
# Karp's recurrence (exact oracle for small graphs)
# ---------------------------------------------------------------------------


def _strongly_connected_components(n: int, adj: list) -> list:
    """Tarjan's algorithm, iterative."""
    index = [0] * n
    low = [0] * n
    on_stack = bytearray(n)
    visited = bytearray(n)
    stack = []
    comps = []
    counter = [1]
    for root in range(n):
        if visited[root]:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                visited[v] = 1
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack[v] = 1
            advanced = False
            while ei < len(adj[v]):
                u = adj[v][ei][1]
                ei += 1
                if not visited[u]:
                    work[-1] = (v, ei)
                    work.append((u, 0))
                    advanced = True
                    break
                if on_stack[u]:
                    low[v] = min(low[v], index[u])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    on_stack[u] = 0
                    comp.append(u)
                    if u == v:
                        break
                comps.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comps


def max_mean_cycle_karp(num_nodes: int, edges: list) -> Fraction:
    """Maximum mean cycle by Karp's recurrence, run per strongly connected
    component.  edges: list of (u, v, weight) with integer weights.

    Raises NoCycleError when the graph is acyclic.  Value only (no witness);
    intended as a test oracle.
    """
    adj = [[] for _ in range(num_nodes)]
    for u, v, weight in edges:
        adj[u].append((weight, v))
    best: Fraction | None = None
    for comp in _strongly_connected_components(num_nodes, adj):
        comp_set = set(comp)
        if len(comp) == 1:
            v = comp[0]
            loops = [weight for weight, u in adj[v] if u == v]
            if loops:
                cand = Fraction(max(loops))
                if best is None or cand > best:
                    best = cand
            continue
        local = {v: i for i, v in enumerate(comp)}
        m = len(comp)
        ledges = []
        for v in comp:
            for weight, u in adj[v]:
                if u in comp_set:
                    ledges.append((local[v], local[u], weight))
        table = [[None] * m for _ in range(m + 1)]
        for i in range(m):
            table[0][i] = 0
        for k in range(1, m + 1):
            row = table[k]
            prev = table[k - 1]
            for u, v, weight in ledges:
                pu = prev[u]
                if pu is None:
                    continue
                cand = pu + weight
                if row[v] is None or cand > row[v]:
                    row[v] = cand
        for v in range(m):
            fn = table[m][v]
            if fn is None:
                continue
            worst = None
            for k in range(m):
                fk = table[k][v]
                if fk is None:
                    continue
                ratio = Fraction(fn - fk, m - k)
                if worst is None or ratio < worst:
                    worst = ratio
            if worst is not None and (best is None or worst > best):
                best = worst
    if best is None:
        raise NoCycleError("graph has no cycle")
    return best


def min_mean_cycle_karp(num_nodes: int, edges: list) -> Fraction:
    return -max_mean_cycle_karp(num_nodes, [(u, v, -w) for u, v, w in edges])


def max_mean_cycle_howard(indptr: np.ndarray, dst: np.ndarray, w: np.ndarray):
    """Maximum mean cycle via weight negation."""
    mean, cyc, weights = min_mean_cycle_howard(indptr, dst, -np.asarray(w).astype(np.int64))
    return -mean, cyc, [-x for x in weights]


# ---------------------------------------------------------------------------
# Exhaustive independence numbers of intervals
# ---------------------------------------------------------------------------


def _popcount64(x):
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return (x * np.uint64(0x0101010101010101)) >> np.uint64(56)


def brute_force_alpha_interval(distances: DistanceSet, n: int) -> int:
    """Independent oracle: exhaustive enumeration over all 2^n subsets of [n].

    Every bitmask is tested for independence directly (a subset is dependent
    exactly when it intersects itself shifted by some generator); no search
    tables or pruning from the main solver are involved.
    """
    if n > BRUTE_FORCE_CAP:
        raise ValueError(f"oracle capped at n <= {BRUTE_FORCE_CAP}")
    if n == 0:
        return 0
    best = 0
    chunk = 1 << 20
    for start in range(0, 1 << n, chunk):
        end = min(start + chunk, 1 << n)
        masks = np.arange(start, end, dtype=np.uint64)
        ok = np.ones(end - start, dtype=bool)
        for d in distances.distances:
            ok &= (masks & (masks >> np.uint64(d))) == 0
        valid = masks[ok]
        if len(valid):
            best = max(best, int(_popcount64(valid).max()))
    return best


def scan_periodic_independent(blocks: BlockList, distances: DistanceSet) -> IndependenceVerdict:
    """The periodic independence check by scanning element pairs.

    Unrolls ceil(max(S)/period) + 2 periods and scans all element pairs at
    distance <= max(S); any violating pair in the infinite set appears within
    max(S) of some period boundary, so this window is sufficient.  The first
    violating pair in scan order is reported.
    """
    s = distances.max_element
    copies = -(-s // blocks.period) + 2
    pts = list(itertools.accumulate(blocks.sizes * copies, initial=0))[:-1]
    in_s = set(distances.distances)
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            d = y - x
            if d > s:
                break
            if d in in_s:
                return IndependenceVerdict(ok=False, violation=(x, y))
    return IndependenceVerdict(ok=True)


# ---------------------------------------------------------------------------
# The recursive search and the candidate-mask scan the package replaced
# ---------------------------------------------------------------------------


def charge(budget: SearchBudget) -> None:
    """Count one search node against the budget, raising BudgetExceeded at
    the node past max_nodes (which is still counted)."""
    budget.nodes += 1
    if budget.nodes > budget.max_nodes:
        raise BudgetExceeded(f"node budget {budget.max_nodes} exhausted")


def beta(iv: list, candidates: int) -> int:
    """Sum of the memoized alphas iv over the maximal runs of the candidate
    set, one run at a time; a run past the table adds iv[top] + its excess."""
    total = 0
    top = len(iv) - 1
    b = candidates
    while b:
        low = b & -b
        merged = b + low
        run = (b ^ merged).bit_count() - 1
        if run <= top:
            total += iv[run]
        else:
            total += iv[top] + (run - top)
        b &= merged
    return total


def recursive_search(table: AlphaTable, count, candidates, target, nbr, bound, budget, chosen) -> bool:
    """AlphaTable._search as one recursive call per node (Python's recursion
    limit bounds its depth), scanning every run of every candidate set;
    `count` is the number of vertices chosen so far.  RecursiveAlphaTable
    runs the interval and circulant solvers on it."""
    charge(budget)
    if count == target:
        return True
    if count + beta(table.interval_alpha, candidates) < target:
        return False
    rest = candidates
    while rest:
        v = rest.bit_length()
        if count + bound[v] < target:
            return False
        rest ^= 1 << (v - 1)
        chosen.append(v)
        if recursive_search(table, count + 1, rest & ~nbr[v], target, nbr, bound, budget, chosen):
            return True
        chosen.pop()
    return False


class RecursiveAlphaTable(AlphaTable):
    def _search(self, candidates, target, nbr, bound, budget, chosen) -> bool:
        return recursive_search(self, 0, candidates, target, nbr, bound, budget, chosen)


def searched_interval_alpha(distances: DistanceSet, n: int) -> list:
    """alpha(G(S)[m]) for m = 0..n with a search at every step, as
    AlphaTable.ensure_interval filled its table before it proved steps:
    the search for a(m-1) + 1 runs with that target as a(m)'s entry."""
    table = AlphaTable(distances)
    table._extend_masks(n + 1)
    iv, budget = table.interval_alpha, SearchBudget(max_nodes=10**12)
    for m in range(1, n + 1):
        target = iv[m - 1] + 1
        iv.append(target)
        if not table._search((1 << m) - 1, target, table._nbr, iv, budget, []):
            iv[m] = target - 1
    return iv


def round_by_round_ratio(distances: DistanceSet, budget: SearchBudget) -> tuple:
    """compute_ratio's schedule without its jumps to Z_kq, the multiples of
    the upper bound's denominator q: round n runs the circulant on Z_n once
    n > max(S), cut below floor(lower*n) + 1 vertices, then the intervals
    2n-1 and 2n while the bounds differ.
    Returns (status, value, lower, upper, lower_witness, upper_witness_n)."""
    table = AlphaTable(distances)
    s = distances.max_element
    lower, witness = Fraction(1, s + 1), BlockList([s + 1])
    upper, upper_n = Fraction(1), None
    try:
        for n in itertools.count(1):
            if n > s and lower < upper:
                need = lower.numerator * n // lower.denominator + 1
                found = _alpha_circulant_solution(distances, n, table, budget, need)
                if found is not None:
                    xs = sorted(found[1])
                    witness = BlockList([b - a for a, b in zip(xs, xs[1:])] + [n - xs[-1] + xs[0]])
                    lower = Fraction(found[0], n)
            if lower < upper:
                for m in (2 * n - 1, 2 * n):
                    r = Fraction(alpha_interval(distances, m, table, budget), m)
                    if r < upper:
                        upper, upper_n = r, m
            if lower == upper:
                return "exact", lower, lower, upper, witness, upper_n
    except BudgetExceeded:
        return "bounded", None, lower, upper, witness, upper_n


def f_state_bfs(distances: DistanceSet) -> tuple:
    """The F automaton by a queue over states, one arc at a time.

    A state is the set F of forbidden future offsets, bit y for offset y.
    The start state is S; gap g is allowed when bit g of F is clear and
    leads to (F >> g) | S.  States are numbered in discovery order, and each
    state's arcs are listed in increasing g.  Each state also gets the mask
    of occupied offsets of the path that discovered it: mask 1 at S, then
    ((m << g) & (2^max(S) - 1)) | 1 along an arc g.

    Returns (order, adjacency, masks): the F of each state, its arcs
    [(g, j), ...], and its discovery mask.
    """
    s = distances.max_element
    sbits = sum(1 << d for d in distances)
    window = (1 << s) - 1
    index = {sbits: 0}
    order, masks = [sbits], [1]
    adjacency = []
    for f, mask in zip(order, masks):  # both lists grow while they are read
        out = []
        for g in range(1, s + 2):
            if f >> g & 1:
                continue
            j = index.setdefault((f >> g) | sbits, len(order))
            if j == len(order):
                order.append((f >> g) | sbits)
                masks.append(((mask << g) & window) | 1)
            out.append((g, j))
        adjacency.append(out)
    return order, adjacency, masks


def scan_gap_state_masks(distances: DistanceSet, max_states: int) -> np.ndarray:
    """The gap engine's state masks by scanning every candidate mask.

    Tests all 2^(max(S)-1) masks with bit 0 set for S-independence, in
    chunks of 2^18, keeping the passing ones until the count passes
    max_states; then raises StateSpaceError with the exact count.
    """
    s = distances.max_element
    inner = [d for d in distances if d < s]
    candidates = 1 << (s - 1)
    kept, count = [], 0
    for lo in range(0, candidates, 1 << 18):
        m = (np.arange(lo, min(candidates, lo + (1 << 18)), dtype=np.int64) << 1) | 1
        ok = np.ones(len(m), dtype=bool)
        for d in inner:
            ok &= (m & (m >> d)) == 0
        count += int(np.count_nonzero(ok))
        if count <= max_states:
            kept.append(m[ok])
    if count > max_states:
        raise stategraph.StateSpaceError(f"{count} states, over the cap of {max_states}", required=count)
    return np.concatenate(kept)


# ---------------------------------------------------------------------------
# The mask gap engine the package's F automaton is the quotient of
# ---------------------------------------------------------------------------


def mask_gap_graph(distances: DistanceSet, max_states: int) -> tuple:
    """The gap graph on masks of occupied offsets behind the latest element
    (bit 0 = the element itself); an edge labelled g appends an element g
    positions later, for g up to max(S)+1.

    Returns (order, arcs): the state masks (int64) in breadth-first
    discovery order from mask 1, and per state its arcs [(g, j), ...] in
    increasing g, as a meancycle.CSRAdjacency with int64 indptr, int32
    targets and int8 gaps.  Built in numpy passes by a BFS that takes the
    queued states in blocks of at most meancycle._ARC_BLOCK arcs: a block's
    arcs are computed, their targets looked up in the sorted masks, the new
    targets numbered in order of first appearance (as a queue over arcs in
    gap order would) and the block's part of the CSR emitted.  Howard on
    this graph with the default pinning rule is the run the package's F
    automaton retraces.
    """
    masks = stategraph._gap_state_masks(distances, max_states)
    s = distances.max_element
    n = len(masks)
    gaps = np.arange(1, s + 2, dtype=np.int64)
    sbits = sum(1 << d for d in distances)
    # gap g is free when no occupied offset sits at d - g for a d in S
    blocked = sbits >> gaps
    window = (1 << s) - 1
    # mask 1 is the smallest mask, so the start state is index 0
    queue = np.zeros(n, dtype=np.int64)
    number = np.full(n, -1, dtype=np.int32)
    number[0] = 0
    queued, done = 1, 0
    per_block = max(1, meancycle._ARC_BLOCK // len(gaps))
    deg, dst, gap_of = [], [], []
    while done < queued:
        states = queue[done:min(queued, done + per_block)]
        done += len(states)
        head = masks[states]
        src, col = ((head[:, None] & blocked) == 0).nonzero()
        gap = gaps[col]
        tgt = masks.searchsorted(((head[src] << gap) & window) | 1)
        reached = tgt[number[tgt] < 0]
        _, earliest = np.unique(reached, return_index=True)
        fresh = reached[np.sort(earliest)]
        number[fresh] = np.arange(queued, queued + len(fresh), dtype=np.int32)
        queue[queued:queued + len(fresh)] = fresh
        queued += len(fresh)
        deg.append(np.bincount(src, minlength=len(states)))
        dst.append(number[tgt])
        gap_of.append(gap.astype(np.int8))
    assert queued == n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.concatenate(deg), out=indptr[1:])
    return masks[queue], meancycle.CSRAdjacency(indptr, np.concatenate(dst), np.concatenate(gap_of))


# ---------------------------------------------------------------------------
# The wide gap engine: int64 on every arc, all arcs at once
# ---------------------------------------------------------------------------


def wide_gap_graph(distances: DistanceSet, max_states: int) -> tuple:
    """The gap graph with int64 arrays spanning every arc.

    Every arc of every state is computed at once, its target looked up in
    the sorted masks, and a level-by-level BFS from mask 1 numbers the
    states in discovery order.  Returns (order, indptr, dst, w) as int64,
    the layout the block-wise mask_gap_graph must reproduce.
    """
    masks = stategraph._gap_state_masks(distances, max_states)
    s = distances.max_element
    n = len(masks)
    gaps = np.arange(1, s + 2, dtype=np.int64)
    sbits = sum(1 << d for d in distances)
    src, col = np.nonzero((masks[:, None] & (sbits >> gaps)) == 0)
    gap = gaps[col]
    keys = ((masks[src] << gap) & ((1 << s) - 1)) | 1
    tgt = np.searchsorted(masks, keys)
    deg = np.bincount(src, minlength=n)
    first = np.zeros(n, dtype=np.int64)
    np.cumsum(deg[:-1], out=first[1:])

    def arcs_of(states):
        counts = deg[states]
        ends = np.cumsum(counts)
        return np.repeat(first[states] - ends + counts, counts) + np.arange(ends[-1])

    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    levels = [np.zeros(1, dtype=np.int64)]
    while len(levels[-1]):
        reached = tgt[arcs_of(levels[-1])]
        reached = reached[~seen[reached]]
        _, earliest = np.unique(reached, return_index=True)
        frontier = reached[np.sort(earliest)]
        seen[frontier] = True
        levels.append(frontier)
    found = np.concatenate(levels)
    assert len(found) == n
    number = np.empty(n, dtype=np.int64)
    number[found] = np.arange(n, dtype=np.int64)
    arcs = arcs_of(found)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg[found], out=indptr[1:])
    return masks[found], indptr, number[tgt[arcs]], gap[arcs]


def _wide_switch(values, src_per_edge, indptr, current, pol) -> bool:
    seg_min = np.minimum.reduceat(values, indptr[:-1])
    improved = seg_min < current
    if not improved.any():
        return False
    at_min = (values == seg_min[src_per_edge]) & improved[src_per_edge]
    idx = np.flatnonzero(at_min)
    uniq, first = np.unique(src_per_edge[idx], return_index=True)
    pol[uniq] = idx[first]
    return True


def wide_min_mean_cycle_howard(indptr: np.ndarray, dst: np.ndarray, w: np.ndarray) -> tuple:
    """Howard's minimum mean cycle with int64 dst, w and source on every arc.

    Returns (mean, cycle, weights, several): the package's result and, for
    each policy evaluation it made (one that hands over to the descent
    rescue included), whether that policy held more than one gain.
    """
    num_nodes = len(indptr) - 1
    indptr = np.asarray(indptr).astype(np.int64)
    dst = np.asarray(dst).astype(np.int64)
    w = np.asarray(w).astype(np.int64)
    deg = np.diff(indptr)
    src_per_edge = np.repeat(np.arange(num_nodes, dtype=np.int64), deg)
    seg_min = np.minimum.reduceat(w, indptr[:-1])
    edges = np.arange(len(w), dtype=np.int64)
    pol = np.minimum.reduceat(np.where(w == seg_min[src_per_edge], edges, len(w)), indptr[:-1])
    max_w = max(int(w.max()), -int(w.min()))
    prev_bias = np.zeros(num_nodes, dtype=np.int64)
    several = []
    for _ in range(meancycle._MAX_ITERATIONS):
        succ = dst[pol]
        wsel = w[pol]
        handle, on_cycle, dist_w, dist_n, lam_num, lam_den = meancycle._policy_cycles(succ, wsel)
        rank = meancycle._gain_rank(lam_num, lam_den, handle)
        several.append(bool(rank.any()))
        reach = int(np.abs(prev_bias).max()) + 2 * (num_nodes + 1) * int(lam_den.max()) * max_w
        if reach >= meancycle._SAFE:
            break
        bias = prev_bias[handle] + lam_den * dist_w - lam_num * dist_n
        prev_bias = bias
        if several[-1]:
            rank_dst = rank[dst]
            if _wide_switch(rank_dst, src_per_edge, indptr, rank, pol):
                continue
            equal = rank_dst == rank[src_per_edge]
            cand = np.where(equal, w * lam_den[src_per_edge] - lam_num[src_per_edge] + bias[dst],
                            meancycle._INF)
        else:
            cand = w * lam_den[0] - lam_num[0] + bias[dst]
        if _wide_switch(cand, src_per_edge, indptr, bias, pol):
            continue
        cyc, weights = meancycle._best_cycle(succ, wsel, rank, on_cycle)
        return Fraction(int(lam_num[cyc[0]]), int(lam_den[cyc[0]])), cyc, weights, several
    return (*meancycle._min_mean_cycle_descent(indptr, dst, w), several)


class PinEveryCycle(meancycle.CyclePinning):
    """A pinning rule that asks `rule` about every policy cycle at every
    evaluation, ignoring which cycles Howard offers it."""

    def __init__(self, rule: meancycle.CyclePinning):
        self.rule = rule

    def pins(self, succ, wsel, handle, heads):
        return self.rule.pins(succ, wsel, handle, np.unique(handle))

    def start(self, succ, wsel, v, cycle, weights):
        return self.rule.start(succ, wsel, v, cycle, weights)

    def part(self, lo, hi):
        return PinEveryCycle(self.rule.part(lo, hi))


# ---------------------------------------------------------------------------
# Window graphs on lists
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WindowGraph:
    """Digraph of window states with list adjacency.

    states are integers in base 2 (subset kinds) or base `colors`
    (Coloring); each arc adds `window` positions, spelled by the low
    `window` digits of the state it enters, digit 0 first.  weights[i] is
    the element count an arc into state i adds (0 for Coloring).  arcs[i]
    lists successor state indices in increasing order.
    """

    window: int
    kind: object
    states: tuple
    arcs: tuple
    weights: tuple


def prune(states: list, arcs: list) -> tuple[list, list]:
    """Iteratively delete states without successors or predecessors."""
    n = len(states)
    alive = [True] * n
    changed = True
    while changed:
        changed = False
        indeg = [0] * n
        for i in range(n):
            if not alive[i]:
                continue
            out = 0
            for j in arcs[i]:
                if alive[j]:
                    out += 1
                    indeg[j] += 1
            if out == 0:
                alive[i] = False
                changed = True
        for i in range(n):
            if alive[i] and indeg[i] == 0:
                alive[i] = False
                changed = True
    remap = {}
    new_states = []
    for i in range(n):
        if alive[i]:
            remap[i] = len(new_states)
            new_states.append(states[i])
    new_arcs = []
    for i in range(n):
        if alive[i]:
            new_arcs.append(tuple(sorted(remap[j] for j in arcs[i] if alive[j])))
    return new_states, new_arcs


def window_csr(graph: WindowGraph) -> tuple:
    """CSR arrays (indptr, dst, w) of a list window graph, arcs weighted by
    the state they enter."""
    return csr_from_lists([[(graph.weights[j], j) for j in out] for out in graph.arcs])


def _cycle_witness(graph: WindowGraph, cycle: list, density: Fraction) -> CycleWitness:
    """One period of the object a cycle spells: the low `window` digits of
    each state in turn, digit 0 first."""
    base = graph.kind.colors if isinstance(graph.kind, Coloring) else 2
    states = tuple(graph.states[i] for i in cycle)
    digits = []
    for state in states:
        for _ in range(graph.window):
            state, digit = divmod(state, base)
            digits.append(digit)
    if isinstance(graph.kind, Coloring):
        return CycleWitness(states=states, density=density, period=len(digits), colors=tuple(digits))
    positions = [p for p, digit in enumerate(digits) if digit]
    blocks = None
    if positions:
        gaps = [b - a for a, b in zip(positions, positions[1:])]
        gaps.append(len(digits) - positions[-1] + positions[0])
        blocks = BlockList(gaps)
    return CycleWitness(states=states, density=density, period=len(digits), period_set=blocks)


def extremal_mean_cycle(graph: WindowGraph, direction: str = "max") -> CycleWitness:
    """Exact extremal mean state weight over simple cycles of the graph.

    direction 'max' maximizes, 'min' minimizes.  The density reported is the
    per-integer value (mean weight divided by the window length).
    """
    if direction not in ("max", "min"):
        raise ValueError("direction must be 'max' or 'min'")
    if not graph.states:
        raise InfeasibleError("state graph is empty after pruning")
    howard = max_mean_cycle_howard if direction == "max" else min_mean_cycle_howard
    mean, cyc, _ = howard(*window_csr(graph))
    return _cycle_witness(graph, cyc, mean / graph.window)


def list_window_graph(distances: DistanceSet, kind, caps=stategraph.DEFAULT_CAPS) -> WindowGraph:
    """The sliding-window automaton of build_state_graph, its successor lists
    read off the numpy table and pruned by the Python loop above."""
    s = distances.max_element
    if isinstance(kind, Coloring):
        base, length, masks = kind.colors, s, []
    elif isinstance(kind, stategraph.Domination):
        base, length, masks = 2, 2 * s, [stategraph._ball(s, distances)]
    else:
        base, length, masks = 2, 4 * s, stategraph._identifying_condition_masks(distances)
    size = base**length
    if size > caps.window_max_states:
        raise stategraph.StateSpaceError("over the window cap", required=size)
    state = np.arange(size, dtype=np.int64)
    targets = np.empty((size, base), dtype=np.int64)
    for x in range(base):
        pasted = state * base + x
        ok = np.ones(size, dtype=bool)
        for m in masks:
            ok &= (pasted & m) != 0
        if isinstance(kind, Coloring):
            for d in distances:
                ok &= pasted // base**d % base != x
        targets[:, x] = np.where(ok, pasted % size, -1)
    arcs = [[j for j in row if j >= 0] for row in targets.tolist()]
    states, arcs = prune(list(range(size)), arcs)
    weights = tuple(0 if isinstance(kind, Coloring) else t & 1 for t in states)
    return WindowGraph(window=1, kind=kind, states=tuple(states), arcs=tuple(arcs), weights=weights)


# ---------------------------------------------------------------------------
# Window-subset graph for the independence ratio
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Independence:
    """Maximum independent sets, on windows of max(S) positions."""


def _independent_window_masks(length: int, distances: DistanceSet) -> list[int]:
    masks = []
    for m in range(1 << length):
        ok = True
        for d in distances:
            if d < length and m & (m >> d):
                ok = False
                break
        if ok:
            masks.append(m)
    return masks


def independence_window_graph(distances: DistanceSet) -> WindowGraph:
    """Explicit window graph of the independence ratio.

    States are the S-independent subsets of a window of max(S) positions; an
    arc joins two windows whose pasted pair is still S-independent.  The
    graph is pruned to bi-infinite walks, and its maximum mean weight per
    position is the independence ratio.
    """
    s = distances.max_element
    admissible = _independent_window_masks(s, distances)
    index = {m: i for i, m in enumerate(admissible)}
    is_admissible = [False] * (1 << s)
    for m in admissible:
        is_admissible[m] = True
    full = (1 << s) - 1
    arcs = []
    for m in admissible:
        # positions forbidden in the next window by elements of this one
        forbidden = 0
        for d in distances:
            forbidden |= m >> (s - d)
        allowed = full & ~forbidden
        out = []
        sub = allowed
        while True:
            if is_admissible[sub]:
                out.append(index[sub])
            if sub == 0:
                break
            sub = (sub - 1) & allowed
        arcs.append(tuple(sorted(out)))
    states, arcs2 = prune(admissible, [list(a) for a in arcs])
    weights = tuple(m.bit_count() for m in states)
    return WindowGraph(window=s, kind=Independence(), states=tuple(states), arcs=tuple(arcs2), weights=weights)


# ---------------------------------------------------------------------------
# Block-pair graphs for domination, identifying codes and colorings
# ---------------------------------------------------------------------------


def _neighborhood_mask(v: int, distances: DistanceSet, span: int) -> int:
    """Closed-neighborhood bitmask of vertex v within positions [1, span]."""
    m = 0
    if 1 <= v <= span:
        m |= 1 << (v - 1)
    for d in distances:
        for u in (v - d, v + d):
            if 1 <= u <= span:
                m |= 1 << (u - 1)
    return m


def _pair_graph(ell: int, masks: list[int], kind) -> WindowGraph:
    """Graph on all 2^ell windows, pruned to bi-infinite walks.

    Window t may be followed by window t' when the pasted pattern
    t | t' << ell meets every mask.  A mask inside one window rules out
    windows; a mask across both rules out the pairs that miss both halves.
    """
    size = 1 << ell
    t = np.arange(size, dtype=np.int64)
    valid_t = np.ones(size, dtype=bool)  # masks local to the first window
    valid_n = np.ones(size, dtype=bool)  # masks local to the second window
    bad = np.zeros((size, size), dtype=bool)  # [t, t_next] crossing masks
    low_full = size - 1
    for m in masks:
        lo = m & low_full
        hi = m >> ell
        if hi == 0:
            valid_t &= (t & lo) != 0
        elif lo == 0:
            valid_n &= (t & hi) != 0
        else:
            bad |= np.outer((t & lo) == 0, (t & hi) == 0)
    valid = (~bad) & valid_t[:, None] & valid_n[None, :]
    arcs = [np.flatnonzero(valid[i]).tolist() for i in range(size)]
    states, arcs = prune(list(range(size)), arcs)
    weights = tuple(m.bit_count() for m in states)
    return WindowGraph(window=ell, kind=kind, states=tuple(states), arcs=tuple(arcs), weights=weights)


def domination_pair_graph(distances: DistanceSet) -> WindowGraph:
    """Windows of 2 max(S) positions; every vertex in the middle 2 max(S)
    positions of a pasted pair is dominated."""
    s = distances.max_element
    masks = [_neighborhood_mask(v, distances, 4 * s) for v in range(s + 1, 3 * s + 1)]
    return _pair_graph(2 * s, masks, stategraph.Domination())


def identifying_pair_graph(distances: DistanceSet) -> WindowGraph:
    """Windows of 6 max(S) positions.  A pasted pair over [1, 12s] is
    admissible when every ball centred in [3s+1, 9s] is nonempty and differs
    from the balls within 2s of it."""
    s = distances.max_element
    span = 12 * s
    masks = []
    for u in range(3 * s + 1, 9 * s + 1):
        masks.append(_neighborhood_mask(u, distances, span))
        for v in range(max(s + 1, u - 2 * s), min(11 * s, u + 2 * s) + 1):
            if v != u:
                masks.append(_neighborhood_mask(u, distances, span) ^ _neighborhood_mask(v, distances, span))
    return _pair_graph(6 * s, sorted(set(masks)), stategraph.IdentifyingCode())


def coloring_window_graph(distances: DistanceSet, colors: int) -> WindowGraph:
    """Properly colored windows of max(S) positions, a pair of windows an arc
    when the pasted pair is still proper.  A state is its window in base
    `colors`, digit j the color of position j+1."""
    s = distances.max_element
    states, windows = [], []
    for code in range(colors**s):
        c, x = [], code
        for _ in range(s):
            x, digit = divmod(x, colors)
            c.append(digit)
        if all(c[i] != c[i + d] for d in distances for i in range(s - d)):
            states.append(code)
            windows.append(c)
    arcs = []
    for c in windows:
        # position i+1 of this window against position i+1+d of the next
        arcs.append([
            j for j, c2 in enumerate(windows)
            if all(c[i] != c2[i + d - s] for d in distances for i in range(s - d, s))
        ])
    states, arcs = prune(states, arcs)
    return WindowGraph(window=s, kind=Coloring(colors), states=tuple(states), arcs=tuple(arcs), weights=(0,) * len(states))


# ---------------------------------------------------------------------------
# Catalog families inverted by brute force
# ---------------------------------------------------------------------------


def family_inverse(family, hi: int) -> dict:
    """Every set a catalog family builds from its in-domain parameters in
    [0, hi], as a sorted tuple, mapped to the list of those parameters."""
    inverse: dict = {}
    for params in family.sweep(0, hi):
        inverse.setdefault(family.build_set(params).distances, []).append(params)
    return inverse
