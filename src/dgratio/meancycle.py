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
_ARC_BLOCK arcs, so the int64 candidate values of one block are all the
per-arc scratch there is.  A small graph is a single block.  Biases stay in
int64; an evaluation whose biases could leave the safe range hands over to
the descent rescue below instead of wrapping.

Termination needs care when several policy cycles share a gain, because
biases are only defined up to a constant per cycle.  Two measures handle
this: biases are kept continuous across iterations (each cycle is pinned at
its smallest node to that node's previous bias), which removes the usual
oscillation, and a hard iteration cap falls back to a strictly descending
negative-cycle search that terminates unconditionally.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import chain

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

    Reads like the list-of-lists adjacency that csr_from_adjacency packs,
    but csr_from_adjacency hands its arrays back without copying.  The
    arrays keep the dtypes they were made with (the gap engine's are int64
    indptr, int32 dst and int8 w); rows read as lists of Python ints, and
    iterating converts one block of rows at a time.
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


def csr_from_adjacency(adjacency: Sequence) -> tuple:
    """CSR arrays (indptr, dst, w) from per-node [(weight, dst), ...] lists."""
    if isinstance(adjacency, CSRAdjacency):
        return adjacency.indptr, adjacency.dst, adjacency.w
    deg = np.fromiter(map(len, adjacency), dtype=np.int64, count=len(adjacency))
    indptr = np.zeros(len(adjacency) + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    total = int(indptr[-1])
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(adjacency)),
                       dtype=np.int64, count=2 * total).reshape(total, 2)
    return indptr, flat[:, 1].copy(), flat[:, 0].copy()


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


def _evaluate(succ: np.ndarray, wsel: np.ndarray, prev_bias: np.ndarray, max_w: int):
    """Evaluate a policy (functional graph): per-node cycle mean and bias.

    Each policy cycle is pinned at its smallest node h, whose bias keeps its
    previous value, so bias[v] = prev_bias[h] + den*W - num*L, where W and L
    are the weight and arc count of v's path to h and num/den is its cycle's
    mean.  Returns (lam_num, lam_den, bias, handle, on_cycle) as int64 and
    bool arrays, or None when a bias or a candidate bias built from one
    (an arc weight up to max_w in magnitude, times den) could reach _SAFE.
    """
    handle, on_cycle, dist_w, dist_n, lam_num, lam_den = _policy_cycles(succ, wsel)
    n = len(succ)
    reach = int(np.abs(prev_bias).max()) + 2 * (n + 1) * int(lam_den.max()) * max_w
    if reach >= _SAFE:
        return None
    bias = prev_bias[handle] + lam_den * dist_w - lam_num * dist_n
    return lam_num, lam_den, bias, handle, on_cycle


def _gain_rank(lam_num: np.ndarray, lam_den: np.ndarray, handle: np.ndarray) -> np.ndarray:
    """Per node, the rank of its cycle's mean among the policy's distinct means."""
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
                on_cycle: np.ndarray) -> tuple[list, list]:
    """The policy cycle of least mean whose basin has the smallest node.

    Walks from that node to the first cycle node it meets, and lists the
    cycle from there: the order in which a walk over the nodes in increasing
    order meets the cycles and their nodes.
    """
    v = int(rank.argmin())  # rank 0 is the least mean; argmin takes the smallest node
    while not on_cycle[v]:
        v = int(succ[v])
    cyc = [v]
    u = int(succ[v])
    while u != v:
        cyc.append(u)
        u = int(succ[u])
    return cyc, wsel[cyc].tolist()


def _segment_argmin_switch(blocks: list, values_of,
                           current: np.ndarray, pol: np.ndarray) -> bool:
    """Switch each node to its first best edge where values beat `current`.

    values_of(a, b, lo, hi, deg) gives the values of edges lo..hi-1, the
    out-edges of nodes a..b-1 (below _NEVER; +_INF to exclude), one block
    of _row_blocks at a time; current is per-node.  Returns whether any switch
    happened.  Deterministic: first minimal edge in CSR order wins.
    """
    switched = False
    for a, b, lo, hi, starts, deg in blocks:
        values = values_of(a, b, lo, hi, deg)
        seg_min = np.minimum.reduceat(values, starts)
        better = seg_min < current[a:b]
        if not better.any():
            continue
        # the edges at their row's minimum in the rows that improve; the
        # first of them from a row's start on is that row's first best edge
        goal = np.where(better, seg_min, _NEVER)
        hits = (values == goal.repeat(deg)).nonzero()[0]
        rows = better.nonzero()[0]
        pol[a + rows] = lo + hits[hits.searchsorted(starts[rows])]
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


def min_mean_cycle_howard(indptr: np.ndarray, dst: np.ndarray, w: np.ndarray):
    """Minimum mean cycle of a digraph in CSR form; every node needs an out-edge.

    The arrays may have any integer dtypes; they are read, never widened.
    Returns (mean: Fraction, cycle_nodes: list[int], cycle_weights: list[int])
    where cycle_nodes[j] -> cycle_nodes[(j+1) % L] is the j-th cycle edge and
    cycle_weights[j] its weight.  Deterministic for a fixed CSR layout.
    """
    num_nodes = len(indptr) - 1
    if num_nodes == 0:
        raise NoCycleError("empty graph")
    if (indptr[1:] <= indptr[:-1]).any():
        raise ValueError("every node must have at least one outgoing edge")
    blocks = _row_blocks(indptr)
    pol = _initial_policy(num_nodes, w, blocks)
    max_w = max(int(w.max()), -int(w.min()))
    prev_bias = np.zeros(num_nodes, dtype=np.int64)

    for _ in range(_MAX_ITERATIONS):
        succ = dst[pol]
        wsel = w[pol]
        evaluated = _evaluate(succ, wsel, prev_bias, max_w)
        if evaluated is None:
            break  # biases could leave the int64-safe range: take the safe path
        lam_num, lam_den, bias, handle, on_cycle = evaluated
        prev_bias = bias
        rank = _gain_rank(lam_num, lam_den, handle)
        ranked = bool(rank.any())  # else one gain everywhere: no edge improves it

        # a block's targets are widened before they index anything, since
        # numpy would convert a narrow index array on every gather
        def rank_of_targets(a, b, lo, hi, deg):
            return rank[dst[lo:hi].astype(np.int64)]

        def candidate_bias(a, b, lo, hi, deg):
            """w*den + bias[target] per edge, with the source's gain; with
            several gains, only edges into a cycle of the same gain.  A
            node's num is added to its bias instead of taken off here."""
            tgt = dst[lo:hi].astype(np.int64)
            den = lam_den[a:b].repeat(deg) if ranked else lam_den[0]
            cand = w[lo:hi].astype(np.int64) * den + bias[tgt]
            if ranked:
                cand[rank[tgt] != rank[a:b].repeat(deg)] = _INF
            return cand

        if ranked and _segment_argmin_switch(blocks, rank_of_targets, rank, pol):
            continue
        if _segment_argmin_switch(blocks, candidate_bias, bias + lam_num, pol):
            continue
        # Bellman optimality reached: the best policy cycle is extremal.
        cyc, weights = _best_cycle(succ, wsel, rank, on_cycle)
        return Fraction(int(lam_num[cyc[0]]), int(lam_den[cyc[0]])), cyc, weights
    return _min_mean_cycle_descent(indptr, dst, w)


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
