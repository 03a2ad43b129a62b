"""Exact extremal mean cycles in integer-weighted digraphs.

The production path is policy iteration (Howard's algorithm) carried out
entirely in integer arithmetic: cycle means are reduced fractions (num, den)
and node biases are integers scaled by the denominator of their cycle mean,
so every comparison is an exact cross-multiplication.  The exit condition is
self-certifying: when no edge improves, every cycle's mean is bounded by the
best policy cycle (gains are monotone along edges and the bias inequalities
telescope around equal-gain cycles), so a converged run is always correct.

Each policy is a functional graph, and it is evaluated in numpy passes by
pointer jumping (Cochet-Terrasson et al. 1998; Dasdan 2004): repeated
squaring of the successor map finds the cycle nodes, and doubling sums give
every node's weight and length along its path to its cycle's smallest node.

Memory goes per node, not per arc.  The arc arrays are used in whatever
integer dtype they come in (the gap engine passes int32 targets and int8
gaps) and are never widened as a whole: only per-node arrays (the policy's
successors and weights, gains and biases) are int64, and each policy
improvement pass reads the arcs in blocks of whole rows with at most
_ARC_BLOCK arcs, widening one block at a time, so in every run the int64
values of one block are all the per-arc int64 scratch there is.  A small
graph is a single block.  Biases stay in int64; an evaluation whose biases
could leave the safe range hands over to the descent rescue below instead
of wrapping.

Termination needs care when several policy cycles share a gain, because
biases are only defined up to a constant per cycle.  Two measures handle
this: biases are kept continuous across iterations (each cycle is pinned at
one of its nodes to that node's previous bias), which removes the usual
oscillation, and a hard iteration cap falls back to a strictly descending
negative-cycle search that terminates unconditionally.

Which node pins a cycle, and where the returned cycle starts, is a rule the
caller may supply (CyclePinning).  By default a cycle is pinned at its
smallest node, and the returned cycle starts at the first cycle node a walk
from the smallest node of least mean meets.  The gap engine supplies a rule
under which Howard on its quotient graph retraces, value for value, the run
on the graph it is the quotient of.  The rule is offered only the policy
cycles that hold a node whose arc changed since the last evaluation (every
cycle at the first).  A cycle whose arcs all stayed was a cycle of the last
policy too, so the previous biases already satisfy its relations
bias[u] = den*w(u) - num + bias[succ[u]]; pinning it at any of its nodes
then gives the same biases as pinning it at its smallest node, a shift of
zero, and the rule need not be asked.

Every run solves one or several disjoint graphs laid end to end (the
`parts` of min_mean_cycle_howard; a run without parts is a run of one),
so several small graphs share numpy's fixed per-call cost, and one path
serves every run.  No arc leaves its graph, so every per-node quantity
(policy, gain, bias, basin) is that graph's own, and two rules make each
improvement pass do for each graph what the graph's own run does.  The
gain pass runs only when some graph holds more than one gain, and it
ranks the gains of all the cycles it reads; ranks keep the order of the
gains, so a row of a graph of several gains switches as in its own run,
and in a graph of one gain, whose targets all share the rank of its
rows, no row switches.  Only edges into a cycle of another gain are left
out of the bias pass, so a graph of one gain takes it with nothing left
out, and a graph whose gain pass switches skips it.  And a graph in which
neither pass switches has converged; its result is recorded once, and
from then on both passes read the span of rows from the first graph
still running to the last, in place.  A settled graph inside the span is
read but never switches: its arcs no longer change, so later evaluations
give it the same biases (no cycle of it is offered to the pinning rule)
and both passes the values under which it switched nothing.  So each
graph goes through the policies of its own run, in as many
evaluations, and its result is that run's.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

import numpy as np


class NoCycleError(ValueError):
    """The digraph has no directed cycle."""


_MAX_ITERATIONS = 3000
_INF = np.int64(2**62)
# every bias and every candidate bias stays below this in magnitude, so int64
# arithmetic on them is exact and the _INF sentinel still compares above them
_SAFE = 2**62
# above every value a policy improvement pass compares, _INF included
_NEVER = np.int64(np.iinfo(np.int64).max)
# below every value a policy improvement pass compares: a row whose current
# value is _FLOOR never switches
_FLOOR = np.int64(np.iinfo(np.int64).min)
# the most arcs a policy improvement pass, or a walk over CSRAdjacency rows,
# turns into per-arc scratch at a time
_ARC_BLOCK = 1 << 16


def _row_blocks(indptr: np.ndarray) -> list:
    """The rows in blocks of at most _ARC_BLOCK arcs, a row with more arcs
    making a block of its own, as tuples (a, b, lo, hi, starts, deg): rows
    a..b-1 with arcs lo..hi-1, and per row the offset of its first arc
    from lo and its arc count."""
    n = len(indptr) - 1
    blocks = []
    a = 0
    while a < n:
        lo = int(indptr[a])
        b = int(indptr.searchsorted(lo + _ARC_BLOCK, side="right")) - 1
        b = min(n, max(b, a + 1))
        offsets = indptr[a:b + 1] - lo
        blocks.append((a, b, lo, int(indptr[b]), offsets[:-1], offsets[1:] - offsets[:-1]))
        a = b
    return blocks


class CSRAdjacency(Sequence):
    """Per-node out-arc lists [(weight, dst), ...] held as CSR arrays.

    Reads like a list-of-lists adjacency, and csr_from_adjacency hands its
    arrays back without copying.  The arrays keep the dtypes they were made
    with (the gap engine's are int64 indptr, int32 dst and int8 w); rows
    read as lists of Python ints, and iterating converts one block of rows
    at a time.
    """

    __slots__ = ("indptr", "dst", "w")

    def __init__(self, indptr: np.ndarray, dst: np.ndarray, w: np.ndarray):
        self.indptr, self.dst, self.w = indptr, dst, w

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, v: int) -> list:
        v = range(len(self))[v]  # IndexError past either end, as for a list
        lo, hi = int(self.indptr[v]), int(self.indptr[v + 1])
        return list(zip(self.w[lo:hi].tolist(), self.dst[lo:hi].tolist()))

    def __iter__(self):
        for a, b, lo, hi, _, _ in _row_blocks(self.indptr):
            arcs = list(zip(self.w[lo:hi].tolist(), self.dst[lo:hi].tolist()))
            bounds = (self.indptr[a:b + 1] - lo).tolist()
            for start, end in zip(bounds, bounds[1:]):
                yield arcs[start:end]


def csr_from_adjacency(adjacency: CSRAdjacency) -> tuple:
    """The CSR arrays (indptr, dst, w) of an adjacency, without copying."""
    return adjacency.indptr, adjacency.dst, adjacency.w


def _policy_cycles(succ: np.ndarray, wsel: np.ndarray):
    """Cycles of a functional graph by pointer jumping.

    succ[v] is v's successor and wsel[v] the weight of the arc v -> succ[v].
    Returns per node: the smallest node of the cycle it reaches (its handle),
    whether it lies on a cycle, the weight and the arc count of its path to
    the handle (going round the cycle for cycle nodes), and the reduced mean
    (num, den) of its cycle.  Any integer dtypes are taken; sums are int64.
    """
    succ = succ.astype(np.int64, copy=False)
    wsel = wsel.astype(np.int64, copy=False)
    n = len(succ)
    nodes = np.arange(n, dtype=np.int64)
    ahead = succ
    for _ in range((n - 1).bit_length()):
        ahead = ahead[ahead]  # succ^(2^k) with 2^k >= n lands on the cycle
    on_cycle = np.zeros(n, dtype=bool)
    on_cycle[ahead] = True
    ring = on_cycle.nonzero()[0]  # sorted, so local order is node order
    local = np.empty(n, dtype=np.int64)
    local[ring] = np.arange(len(ring), dtype=np.int64)
    low = np.arange(len(ring), dtype=np.int64)
    jump = local[succ[ring]]
    for _ in range((len(ring) - 1).bit_length()):
        low = np.minimum(low, low[jump])
        jump = jump[jump]
    handle = ring[low[local[ahead]]]

    root = handle == nodes
    jump = np.where(root, nodes, succ)
    dist_w = np.where(root, 0, wsel)
    dist_n = (~root).astype(np.int64)
    while True:
        further = jump[jump]
        if (further == jump).all():
            break
        dist_w = dist_w + dist_w[jump]
        dist_n = dist_n + dist_n[jump]
        jump = further
    heads = root.nonzero()[0]
    total = dist_w[succ[heads]] + wsel[heads]
    length = dist_n[succ[heads]] + 1
    g = np.gcd(total, length)
    num = np.zeros(n, dtype=np.int64)
    den = np.ones(n, dtype=np.int64)
    num[heads] = total // g
    den[heads] = length // g
    return handle, on_cycle, dist_w, dist_n, num[handle], den[handle]


class CyclePinning:
    """A rule, other than the default, for where Howard pins each policy
    cycle and where the cycle it returns starts.  The default rule is
    spelled None.

    pins(succ, wsel, handle, heads) returns the cycle nodes that pin their
    cycles elsewhere than at the handle (the cycle's smallest node); None
    when there are none.  heads lists, in increasing order, the handles of
    the cycles it may pin elsewhere: those that hold a node whose arc
    changed since the last evaluation, every cycle at the first; pins is
    not asked when there are none.  Every
    other cycle is pinned at its handle, which for such a cycle gives the
    biases that a pin at any of its nodes gives (see the module docstring).
    start(succ, wsel, v, cycle, weights) is the index in `cycle`, the
    returned policy cycle listed from the first node a walk from v meets,
    at which the returned cycle starts.  part(lo, hi) is the rule for nodes
    lo..hi-1 of a run on several graphs (min_mean_cycle_howard's parts),
    numbered from 0, for a run on that graph alone; a rule that reads only
    the order of nodes within a cycle is its own part.
    """

    def pins(self, succ: np.ndarray, wsel: np.ndarray, handle: np.ndarray,
             heads: np.ndarray):
        raise NotImplementedError

    def start(self, succ: np.ndarray, wsel: np.ndarray, v: int, cycle: list,
              weights: list) -> int:
        raise NotImplementedError

    def part(self, lo: int, hi: int) -> CyclePinning:
        return self


def _evaluate(succ: np.ndarray, wsel: np.ndarray, prev_bias: np.ndarray, max_w: int,
              pinning: CyclePinning | None = None, changed: np.ndarray | None = None):
    """Evaluate a policy (functional graph): per-node cycle mean and bias.

    Each policy cycle is pinned at a node p, by default its smallest node
    h, whose bias keeps its previous value, so bias[v] = prev_bias[p] +
    den*W - num*L, where W and L are the weight and arc count of v's path
    to p and num/den is its cycle's mean.  The path to p is the path to h
    and then on round the cycle, so pinning at p shifts h's basin by
    prev_bias[p] minus p's bias under the pin at h.  The pinning rule is
    offered the cycles that hold a node marked in `changed` (None: every
    cycle).  Returns (lam_num, lam_den, bias, handle, on_cycle) as int64
    and bool arrays, or None when a bias or a candidate bias built from one
    (an arc weight up to max_w in magnitude, times den) could reach _SAFE.
    """
    handle, on_cycle, dist_w, dist_n, lam_num, lam_den = _policy_cycles(succ, wsel)
    n = len(succ)
    reach = int(np.abs(prev_bias).max()) + 2 * (n + 1) * int(lam_den.max()) * max_w
    if reach >= _SAFE:
        return None
    bias = prev_bias[handle] + lam_den * dist_w - lam_num * dist_n
    pinned = None
    if pinning is not None:
        offered = np.zeros(n, dtype=bool)
        offered[handle[on_cycle if changed is None else on_cycle & changed]] = True
        heads = offered.nonzero()[0]
        if len(heads):
            pinned = pinning.pins(succ, wsel, handle, heads)
    if pinned is not None:
        shift = np.zeros(n, dtype=np.int64)
        shift[handle[pinned]] = prev_bias[pinned] - bias[pinned]
        bias += shift[handle]
    return lam_num, lam_den, bias, handle, on_cycle


def _gain_rank(lam_num: np.ndarray, lam_den: np.ndarray, handle: np.ndarray,
               heads: np.ndarray | None = None) -> np.ndarray:
    """Per node, the rank of its cycle's mean among the policy's distinct
    means, or among those of the cycles whose handles are `heads` only (a
    node of any other cycle ranks 0)."""
    if heads is None:
        if (lam_num == lam_num[0]).all() and (lam_den == lam_den[0]).all():
            return np.zeros(len(handle), dtype=np.int64)  # one gain: nothing to sort
        heads = (handle == np.arange(len(handle))).nonzero()[0]
    pairs = list(zip(lam_num[heads].tolist(), lam_den[heads].tolist()))
    distinct = sorted(set(pairs), key=lambda t: Fraction(t[0], t[1]))
    rank_of = {t: i for i, t in enumerate(distinct)}
    head_rank = np.zeros(len(handle), dtype=np.int64)
    head_rank[heads] = [rank_of[t] for t in pairs]
    return head_rank[handle]


def _best_cycle(succ: np.ndarray, wsel: np.ndarray, rank: np.ndarray,
                on_cycle: np.ndarray, lo: int = 0, hi: int | None = None) -> tuple[list, list]:
    """The policy cycle of least mean, among nodes lo..hi-1 (a graph of a
    run on several), whose basin has the smallest node.

    Walks from that node to the first cycle node it meets, and lists the
    cycle from there: the order in which a walk over the nodes in increasing
    order meets the cycles and their nodes.
    """
    v = lo + int(rank[lo:hi].argmin())  # the least rank is the least mean; argmin takes the smallest node
    while not on_cycle[v]:
        v = int(succ[v])
    cyc = [v]
    u = int(succ[v])
    while u != v:
        cyc.append(u)
        u = int(succ[u])
    return cyc, wsel[cyc].tolist()


def _segment_argmin_switch(rows: _Rows, values_of, current: np.ndarray, pol: np.ndarray,
                           changed: np.ndarray) -> bool:
    """Switch each row of `rows` (a _Rows, as every pass of every run
    reads its graphs) to its first best edge where values beat `current`.

    values_of(a, b, lo, hi, deg) gives the values of edges lo..hi-1, the
    out-edges of rows a..b-1 (below _NEVER; +_INF to exclude), one block
    of rows.blocks at a time; current is per row.  Rows are numbered as in
    `rows`, and edges as in the run; a switch is written to pol, and marked
    in `changed`, at the row's node in the run, rows.nodes.start on.
    Returns whether any switch happened.
    Deterministic: first minimal edge in CSR order wins.
    """
    switched = False
    for a, b, lo, hi, starts, deg in rows.blocks:
        values = values_of(a, b, lo, hi, deg)
        seg_min = np.minimum.reduceat(values, starts)
        better = seg_min < current[a:b]
        if not better.any():
            continue
        # the edges at their row's minimum in the rows that improve; the
        # first of them from a row's start on is that row's first best edge
        goal = np.where(better, seg_min, _NEVER)
        hits = (values == goal.repeat(deg)).nonzero()[0]
        up = better.nonzero()[0]
        at = up + (a + rows.nodes.start)
        pol[at] = lo + hits[hits.searchsorted(starts[up])]
        changed[at] = True
        switched = True
    return switched


def _initial_policy(num_nodes: int, w: np.ndarray, blocks: list) -> np.ndarray:
    """Per node, the first outgoing edge of minimum weight."""
    pol = np.empty(num_nodes, dtype=np.int64)
    for a, b, lo, hi, starts, deg in blocks:
        values = w[lo:hi]
        hits = (values == np.minimum.reduceat(values, starts).repeat(deg)).nonzero()[0]
        pol[a:b] = lo + hits[hits.searchsorted(starts)]
    return pol


class _Rows:
    """The rows of graphs first..last of a run, which solves one or several
    laid end to end (offsets as min_mean_cycle_howard's parts), read in
    place: the span from the first graph still running to the last.

    Graph graphs[i] is numbered here from row lo[i] on and holds sizes[i]
    rows.  Row r here is node nodes.start + r of the run (nodes is a
    slice), and edges keep the run's numbering: indptr is a view of the
    run's, and tgt and w (each edge's target and weight) are the run's own
    arrays, in its dtypes, which the passes widen one block at a time.
    blocks are the _row_blocks of indptr.  A settled graph inside the span
    is read too, but never switches (see _improve_live).
    """

    __slots__ = ("graphs", "lo", "sizes", "nodes", "indptr", "blocks", "tgt", "w")

    def __init__(self, run: tuple, offsets: list, first: int, last: int):
        indptr, self.tgt, self.w = run
        a, z = offsets[first], offsets[last + 1]
        self.graphs, self.nodes, self.indptr = range(first, last + 1), slice(a, z), indptr[a:z + 1]
        if first == last:
            self.lo, self.sizes = [0], [z - a]
        else:  # arrays, as numpy reads them at every evaluation
            bounds = np.array(offsets[first:last + 2]) - a
            self.lo, self.sizes = bounds[:-1], bounds[1:] - bounds[:-1]
        self.blocks = _row_blocks(self.indptr)


def _improve_live(live: _Rows, lam_num: np.ndarray, lam_den: np.ndarray, bias: np.ndarray,
                  handle: np.ndarray, pol: np.ndarray, changed: np.ndarray) -> tuple[np.ndarray, list]:
    """For each graph of the span `live`, the policy improvement that its
    own run makes.

    When some graph of the span holds more than one gain, the gain pass
    reads the span, with the gains ranked over all of its cycles; a graph
    of one gain then has no row that switches in it.  Only edges into a
    cycle of another gain are left out of the bias pass, so a graph of one
    gain has none left out, and a graph that switches in the gain pass
    skips the bias pass.  A graph that settled earlier switches in neither:
    its arcs and its biases are those of the evaluation at which it
    settled.  Marks the switched nodes in `changed`.  Returns the ranks,
    equal throughout a graph of one gain, and the graphs of the span in
    which no node switched.
    """
    num, den = lam_num[live.nodes], lam_den[live.nodes]
    current = bias[live.nodes] + num
    one = len(live.lo) == 1  # one graph: no flags per graph to keep
    if one:
        several = ((num != num[0]) | (den != den[0])).any()
    else:  # whether some graph holds several gains
        several = ((num != num[live.lo].repeat(live.sizes)) | (den != den[live.lo].repeat(live.sizes))).any()
    rank = np.zeros(len(bias), dtype=np.int64)
    if several:
        nodes = np.arange(live.nodes.start, live.nodes.stop)
        rank = _gain_rank(lam_num, lam_den, handle, nodes[handle[live.nodes] == nodes])

        # a block's targets are widened before they index anything, since
        # numpy would convert a narrow index array on every gather
        def rank_of_targets(a, b, lo, hi, deg):
            return rank[live.tgt[lo:hi].astype(np.int64, copy=False)]

        if _segment_argmin_switch(live, rank_of_targets, rank[live.nodes], pol, changed):
            # a graph that switched to a better gain skips the bias pass
            if one:
                return rank, []
            held = np.logical_or.reduceat(changed[live.nodes], live.lo)
            if held.all():
                return rank, []
            current[held.repeat(live.sizes)] = _FLOOR
    flat = one and not several  # one den for every row
    row_rank = rank[live.nodes] if several else None

    def candidate_bias(a, b, lo, hi, deg):
        """w*den + bias[target] per edge, with the source's gain; when some
        graph holds several gains, only edges into a cycle of the same gain.
        A node's num is added to its bias instead of taken off here."""
        tgt = live.tgt[lo:hi].astype(np.int64, copy=False)
        cand = np.multiply(live.w[lo:hi], den[a] if flat else den[a:b].repeat(deg), dtype=np.int64)
        cand += bias[tgt]
        if several:
            cand[rank[tgt] != row_rank[a:b].repeat(deg)] = _INF
        return cand

    switched = _segment_argmin_switch(live, candidate_bias, current, pol, changed)
    if one:
        return rank, [] if switched else list(live.graphs)
    moved = np.logical_or.reduceat(changed[live.nodes], live.lo).tolist()
    return rank, [i for i, m in zip(live.graphs, moved) if not m]


def min_mean_cycle_howard(indptr: np.ndarray, dst: np.ndarray, w: np.ndarray,
                          pinning: CyclePinning | None = None, parts: Sequence[int] | None = None):
    """Minimum mean cycle of a digraph in CSR form; every node needs an out-edge.

    The arrays may have any integer dtypes; they are read, never widened
    as a whole (see the module docstring).
    Returns (mean: Fraction, cycle_nodes: list[int], cycle_weights: list[int])
    where cycle_nodes[j] -> cycle_nodes[(j+1) % L] is the j-th cycle edge and
    cycle_weights[j] its weight.  Deterministic for a fixed CSR layout and
    pinning rule (None: the default rule).  The descent rescue ignores the
    rule.

    parts, when given, are the node offsets 0 = o_0 < o_1 < ... < o_P = n
    of P disjoint graphs laid end to end: nodes o_i..o_(i+1)-1 with no arc
    leaving them.  They are solved in one run, and the result is a list of
    P triples, each in its graph's own numbering and equal to the result of
    a run on that graph alone under pinning.part(o_i, o_(i+1)).  A run
    without parts is the run with parts [0, n], its one triple returned
    bare.  A run that reaches _MAX_ITERATIONS, or whose biases could leave
    the int64-safe range, solves each graph it has not finished alone,
    rescue included; a run on one graph goes on to the rescue at once.
    """
    num_nodes = len(indptr) - 1
    if num_nodes == 0:
        raise NoCycleError("empty graph")
    if (indptr[1:] <= indptr[:-1]).any():
        raise ValueError("every node must have at least one outgoing edge")
    offsets = [0, num_nodes] if parts is None else [int(o) for o in parts]
    if parts is not None and (offsets[0] != 0 or offsets[-1] != num_nodes
                              or any(a >= b for a, b in zip(offsets, offsets[1:]))):
        raise ValueError("parts must rise strictly from 0 to the node count")
    results: list = [None] * (len(offsets) - 1)
    unsolved = list(range(len(results)))
    live = _Rows((indptr, dst, w), offsets, 0, len(results) - 1)  # the span of the graphs still running
    pol = _initial_policy(num_nodes, w, live.blocks)
    max_w = max(int(w.max()), -int(w.min()))
    prev_bias = np.zeros(num_nodes, dtype=np.int64)
    changed = None  # every arc is new to the first evaluation

    for _ in range(_MAX_ITERATIONS):
        succ = dst[pol]
        wsel = w[pol]
        evaluated = _evaluate(succ, wsel, prev_bias, max_w, pinning, changed)
        if evaluated is None:
            break  # biases could leave the int64-safe range: take the safe path
        lam_num, lam_den, bias, handle, on_cycle = evaluated
        prev_bias = bias
        # the nodes a pass switched: their cycles are offered to the
        # pinning rule
        changed = np.zeros(num_nodes, dtype=bool)
        rank, settled = _improve_live(live, lam_num, lam_den, bias, handle, pol, changed)
        settled = [i for i in settled if results[i] is None]  # each result is recorded once
        if not settled:
            continue
        # Bellman optimality reached in these graphs: their best policy
        # cycles are extremal
        for i in settled:
            lo, hi = offsets[i], offsets[i + 1]
            cyc, weights = _best_cycle(succ, wsel, rank, on_cycle, lo, hi)
            if pinning is not None:
                k = pinning.start(succ, wsel, lo + int(rank[lo:hi].argmin()), cyc, weights)
                cyc, weights = cyc[k:] + cyc[:k], weights[k:] + weights[:k]
            mean = Fraction(int(lam_num[cyc[0]]), int(lam_den[cyc[0]]))
            results[i] = (mean, [v - lo for v in cyc], weights)
        unsolved = [i for i in unsolved if results[i] is None]
        if not unsolved:
            return results[0] if parts is None else results
        if live.graphs != range(unsolved[0], unsolved[-1] + 1):
            live = _Rows((indptr, dst, w), offsets, unsolved[0], unsolved[-1])
    if len(results) == 1:  # a run on the graph alone: this one
        rescued = _min_mean_cycle_descent(indptr, dst, w)
        return rescued if parts is None else [rescued]
    for i in unsolved:
        lo, hi = offsets[i], offsets[i + 1]
        a, b = int(indptr[lo]), int(indptr[hi])
        results[i] = min_mean_cycle_howard(
            indptr[lo:hi + 1] - a, dst[a:b] - lo, w[a:b], None if pinning is None else pinning.part(lo, hi))
    return results


def _cycle_from_parents(parent_edge: list, dst_l: list, src_l: list, start: int,
                        num_nodes: int):
    """Walk parent edges backwards until a node repeats; return that cycle."""
    seen = {}
    v = start
    while v not in seen:
        seen[v] = len(seen)
        e = parent_edge[v]
        if e < 0 or len(seen) > num_nodes + 1:
            raise RuntimeError("negative-cycle parent chain is broken")
        v = src_l[e]
    cycle_edges = []
    u = v
    while True:
        e = parent_edge[u]
        cycle_edges.append(e)
        u = src_l[e]
        if u == v:
            break
    cycle_edges.reverse()
    nodes = [src_l[e] for e in cycle_edges]
    return nodes, cycle_edges


def _min_mean_cycle_descent(indptr, dst, w):
    """Rescue path: strict descent over cycle means via negative-cycle tests.

    Starting from any policy cycle, test with Bellman-Ford whether a cycle of
    mean strictly below the candidate exists (reduced weights w*q - p); each
    hit strictly lowers the candidate mean, and cycle means form a finite
    set, so this terminates regardless of tie structure.  Reduced weights and
    distances are Python integers when int64 could not hold them.  It is
    only a rescue, so it widens the arcs to int64 and keeps a source per arc.
    """
    num_nodes = len(indptr) - 1
    dst = dst.astype(np.int64)
    w = w.astype(np.int64)
    src_per_edge = np.repeat(np.arange(num_nodes, dtype=np.int64), np.diff(indptr))
    order = np.argsort(dst, kind="stable")
    dst_sorted = dst[order]
    boundaries = np.diff(dst_sorted).nonzero()[0] + 1
    starts = np.concatenate(([0], boundaries))
    present = dst_sorted[starts]
    src_l = src_per_edge.tolist()
    dst_l = dst.tolist()
    w_l = w.tolist()
    max_w = max(int(w.max()), -int(w.min()))

    pol = _initial_policy(num_nodes, w, _row_blocks(indptr))
    succ, wsel = dst[pol], w[pol]
    handle, on_cycle, _, _, lam_num, lam_den = _policy_cycles(succ, wsel)
    cyc, weights = _best_cycle(succ, wsel, _gain_rank(lam_num, lam_den, handle), on_cycle)
    mean = Fraction(sum(weights), len(weights))  # exact even where int64 sums wrapped

    while True:
        p, q = mean.numerator, mean.denominator
        # |w*q - p| <= 2*q*max_w, and a distance sums at most num_nodes of them
        exact = 2 * num_nodes * q * max_w < _SAFE
        dtype = np.int64 if exact else object
        wr = w.astype(dtype) * q - p
        dist = np.zeros(num_nodes, dtype=dtype)
        parent = [-1] * num_nodes
        negative_at = -1
        for _ in range(num_nodes):
            vals = dist[src_per_edge] + wr
            vals_sorted = vals[order]
            seg_min = np.minimum.reduceat(vals_sorted, starts)
            cur = dist[present]
            improved = seg_min < cur
            if not improved.any():
                negative_at = -1
                break
            at_min = (vals_sorted == seg_min[np.searchsorted(present, dst_sorted)]) \
                & improved[np.searchsorted(present, dst_sorted)]
            idx = order[at_min.nonzero()[0]]
            # keep the first improving edge per destination, CSR order
            seen = {}
            for e in idx.tolist():
                t = dst_l[e]
                if t not in seen:
                    seen[t] = e
            for t, e in seen.items():
                nd = dist[src_l[e]] + wr[e]
                if nd < dist[t]:
                    dist[t] = nd
                    parent[t] = e
                    negative_at = t
        if negative_at < 0:
            return mean, cyc, weights
        cyc, cycle_edges = _cycle_from_parents(parent, dst_l, src_l, negative_at, num_nodes)
        weights = [w_l[e] for e in cycle_edges]
        lower = Fraction(sum(weights), len(weights))
        if lower >= mean:
            raise RuntimeError("negative-cycle descent did not lower the mean")
        mean = lower
