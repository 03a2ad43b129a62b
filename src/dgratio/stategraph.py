"""Finite automata over G(S) and the exact extremal densities they carry.

A periodic object on the integers is a closed walk in a finite automaton
whose arcs append positions, so each extremal density below is exact and
comes with a periodic witness read off the extremal cycle:

  * maximum independent-set density (the independence ratio),
  * minimum dominating-set density,
  * minimum r-identifying-code density,
  * periodic proper k-colorings.

Independence uses a compressed state space over element gaps, the only
independence engine in the package: a state is the set F of forbidden
future offsets, the offsets after the latest element at which a new one
would lie at a distance in S from an element already placed, and an edge
labelled g places the next element g positions later.  Cycle mean gap
lambda then gives ratio 1/lambda, and the cycle's edge labels are literally
the witness block sizes.  F is the Myhill-Nerode quotient of the masks of
occupied offsets within max(S) behind the latest element.  The caps count
those masks, and Howard on F retraces the run it made on them, so values,
witnesses and evaluation counts are the mask engine's: states are numbered
by their least mask in its breadth-first order, which is the order by
popcount and then by the gap word read from the oldest element, and each
policy cycle is pinned where the mask engine pinned it (_MaskPinning).
Several sets asked together share Howard runs on unions of their graphs
(independence_ratios_exact); each graph still goes through its own run's
policies, so this holds per graph.

The other problems share one sliding-window automaton (build_state_graph):
a state is the last L positions, an arc appends one position, and an arc is
admissible when the L+1 positions pasted together pass the local test for
the position the arc completes.  Every position of a cycle is tested once,
when it is completed, so every cycle spells a valid periodic object.
Colorings use that automaton's quotient under renaming the colors: a state
is a proper window of max(S) colors relabelled in order of first use, so one
state stands for up to k! windows, and a cycle is lifted back to real colors
when it is read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .core import BlockList, DistanceSet, power_distance_set, verify_periodic_independent
from . import meancycle


class StateSpaceError(RuntimeError):
    """The construction would exceed a configured cap, or a limit of its
    representation.

    required is the size that was refused.  For the gap engine's state cap
    it is the exact number of reachable masks of occupied offsets, which
    the cap counts, not the fewer F states the engine builds from them; for
    its element cap, and for a max(S) past the 62 offsets an int64 F
    holds, it is max(S).  For the window cap it is the number of window
    states before pruning, 2^L (2^(2 max S) or 2^(4 max S)), or None when
    that number is 2^64 or more: such an automaton is refused under any
    cap, and its size is not computed.  A coloring is refused with None:
    its canonical windows are refused as soon as one growth layer, or
    max(S) alone, is over the cap, and the rest are never counted.
    """

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class InfeasibleError(ValueError):
    """The pruned state graph is empty (no bi-infinite object exists)."""


@dataclass(frozen=True)
class EngineCaps:
    """Resource limits for state-graph constructions (all configurable).

    independence_max_states counts the gap engine's masks of occupied
    offsets, not the F states it builds from them (at most as many, and
    often five times fewer), so the sets it admits, and the refusals that
    route a set to the search, are those of the mask engine.
    """

    independence_max_element: int = 22
    independence_max_states: int = 400_000
    window_max_states: int = 4096


DEFAULT_CAPS = EngineCaps()


# ---------------------------------------------------------------------------
# Problem kinds and the sliding-window automaton
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Domination:
    """Minimum dominating sets.  States hold the last 2 max(S) positions; an
    arc is admissible when the position max(S) back is dominated."""


@dataclass(frozen=True)
class IdentifyingCode:
    """Minimum 1-identifying codes.  States hold the last 4 max(S) positions;
    an arc is admissible when the position max(S) back has a nonempty ball
    that differs from the ball of every position up to 2 max(S) older."""


@dataclass(frozen=True)
class Coloring:
    """Proper colorings with `colors` colors.  States are the proper windows
    of the last max(S) colors, relabelled in order of first use from the
    oldest position; an arc appends a color already in the window, or a
    fresh one while fewer than `colors` are used, that differs from the
    color d back for every d in S."""

    colors: int


ProblemKind = Union[Domination, IdentifyingCode, Coloring]


@dataclass(frozen=True)
class StateGraph:
    """Digraph of admissible window states, pruned to bi-infinite walks.

    states are the surviving window states in increasing order: for the
    subset kinds integers in base 2 with digit 0 the newest position, for
    Coloring canonical windows, tuples of labels from the oldest position
    on, in lexicographic order.  arcs holds each state's out-arcs as CSR
    arrays, in increasing target order; an arc's weight is the digit it
    appends for the subset kinds and 0 for Coloring.
    """

    kind: ProblemKind
    states: tuple
    arcs: meancycle.CSRAdjacency


def _prune(targets: np.ndarray) -> np.ndarray:
    """States of a successor table that lie on bi-infinite walks.

    targets[t] lists the states t has arcs into, -1 for no arc.  States
    without a live successor or a live predecessor are dropped until none
    is left; returns the survivors in increasing order.
    """
    has_arc = targets >= 0
    dst = np.where(has_arc, targets, 0)
    alive = np.ones(len(targets), dtype=bool)
    while True:
        live = has_arc & alive[dst] & alive[:, None]
        kept = live.any(axis=1) & (np.bincount(dst[live], minlength=len(targets)) > 0)
        if (kept == alive).all():
            return alive.nonzero()[0]
        alive = kept


def _ball(v: int, distances: DistanceSet) -> int:
    """Closed neighbourhood of pasted digit v as a bitmask (v >= max(S))."""
    return (1 << v) | sum((1 << (v - d)) | (1 << (v + d)) for d in distances)


def _identifying_condition_masks(distances: DistanceSet) -> list[int]:
    """Masks a pasted pattern must meet for the position max(S) back.

    The first is that position's ball (nonempty); the others are the
    symmetric differences of its ball with the balls of the 2 max(S)
    positions before it (distinct).  Balls farther apart are disjoint, so
    nonemptiness already separates them.
    """
    s = distances.max_element
    own = _ball(s, distances)
    return [own] + [own ^ _ball(s + j, distances) for j in range(1, 2 * s + 1)]


def _window_states(length: int, caps: EngineCaps, distances: DistanceSet, radius: int = 1) -> int:
    """2^L, the subset window automaton's states before pruning, refused
    with StateSpaceError when over caps.window_max_states.  Decided from L
    alone, so a refused automaton costs nothing to refuse however large L
    is; from 2^64 on the power is not computed and is refused under any
    cap."""
    if length >= 64 or 1 << length > caps.window_max_states:
        where = distances if radius == 1 else f"{distances} at radius {radius}"
        raise StateSpaceError(
            f"window automaton for {where} needs 2^{length} states, "
            f"over the cap of {caps.window_max_states}",
            required=1 << length if length < 64 else None,
        )
    return 1 << length


def _pruned_graph(kind: ProblemKind, targets: np.ndarray) -> tuple[np.ndarray, meancycle.CSRAdjacency]:
    """The rows of a successor table that lie on bi-infinite walks, and
    their arcs renumbered into CSR arrays.  targets[t, x] is the state that
    arc x of state t enters, or -1; a row's targets must rise with x, so
    CSR order is target order.  An arc weighs x, the digit it appends, for
    the subset kinds and 0 for Coloring."""
    states = _prune(targets)
    number = np.full(len(targets), -1, dtype=np.int64)
    number[states] = np.arange(len(states), dtype=np.int64)
    succ = targets[states]
    succ = np.where(succ >= 0, number[succ], -1)
    live = succ >= 0
    indptr = np.zeros(len(states) + 1, dtype=np.int64)
    np.cumsum(live.sum(axis=1), out=indptr[1:])
    symbol = np.nonzero(live)[1]
    weights = np.zeros_like(symbol) if isinstance(kind, Coloring) else symbol
    return states, meancycle.CSRAdjacency(indptr, succ[live], weights)


def _coloring_refused(distances: DistanceSet, colors: int, caps: EngineCaps) -> StateSpaceError:
    return StateSpaceError(
        f"coloring automaton for {distances} with {colors} colors needs more than "
        f"{caps.window_max_states} canonical windows",
        required=None,
    )


def _next_labels(windows: np.ndarray, used: np.ndarray, p: int, distances: DistanceSet, colors: int) -> np.ndarray:
    """allowed[i, c]: whether label c may stand at position p after the
    canonical prefix windows[i], which uses labels 0..used[i]-1.  c is one
    of those labels, or the fresh label used[i] while fewer than `colors`
    are used, and differs from the label d back for every d in S."""
    allowed = np.arange(min(colors, p + 1)) <= used[:, None]
    back = [p - d for d in distances if d <= p]
    allowed[np.arange(len(windows))[:, None], windows[:, back]] = False
    return allowed


def _canonical_windows(distances: DistanceSet, colors: int, caps: EngineCaps) -> tuple[np.ndarray, np.ndarray]:
    """The proper windows of max(S) colors, each relabelled in order of first
    use from its oldest position, as rows of labels oldest first in
    lexicographic order, with the number of labels each row uses.

    They are grown from [0] one position at a time, as _gap_state_masks
    grows the gap engine's masks, so only proper windows are ever made: a prefix
    takes each label _next_labels allows, and the grown rows follow the
    order of their prefixes and then of the new label, so the rows stay
    sorted.  Refused when one layer holds more than caps.window_max_states
    windows, and at once when max(S) alone is over that cap, since every
    non-empty layer holds at least one window.
    """
    s = distances.max_element
    if s > caps.window_max_states:
        raise _coloring_refused(distances, colors, caps)
    # _row_keys compares rows byte by byte, so labels are big-endian
    labels = min(colors, s)
    dtype = np.dtype(f">u{1 if labels <= 1 << 8 else 2 if labels <= 1 << 16 else 4}")
    windows, used = np.zeros((1, 1), dtype=dtype), np.ones(1, dtype=np.int64)
    for p in range(1, s):
        row, label = _next_labels(windows, used, p, distances, colors).nonzero()
        if len(row) > caps.window_max_states:
            raise _coloring_refused(distances, colors, caps)
        windows = np.concatenate((windows[row], label.astype(dtype)[:, None]), axis=1)
        used = np.maximum(used[row], label + 1)
    return windows, used


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row, ordered as the rows are lexicographically."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def _coloring_targets(windows: np.ndarray, used: np.ndarray, distances: DistanceSet, colors: int) -> np.ndarray:
    """Successor table of the canonical windows: targets[i, l] is the row
    that window i enters when it appends a color and drops its oldest
    position, relabelled, ends in label l.

    Dropping the oldest position relabels the rest by first use: rank[i, c]
    is the label that label c of window i takes there.  The only label the
    rest can lack and still be appended is the fresh one (label 0 lies
    max(S) back, which S forbids), and it becomes the first label the rest
    does not use.  Distinct appended labels end in distinct labels, so a
    row's targets share their prefix and rise with l.
    """
    n, s = windows.shape
    row, label = _next_labels(windows, used, s, distances, colors).nonzero()
    labels = min(colors, s + 1)
    rest = windows[:, 1:].astype(np.intp)
    first = np.full((n, labels), s, dtype=np.int64)
    index = np.arange(n)
    for j in range(s - 2, -1, -1):
        first[index, rest[:, j]] = j
    rank = np.empty((n, labels), dtype=np.int64)
    np.put_along_axis(rank, first.argsort(axis=1, kind="stable"),
                      np.broadcast_to(np.arange(labels), (n, labels)), axis=1)
    in_rest = (first < s).sum(axis=1)
    newest = np.minimum(rank[row, label], in_rest[row])
    entered = np.concatenate((np.take_along_axis(rank, rest, axis=1)[row], newest[:, None]), axis=1)
    targets = np.full((n, labels), -1, dtype=np.int64)
    targets[row, newest] = _row_keys(windows).searchsorted(_row_keys(entered.astype(windows.dtype)))
    return targets


def build_state_graph(distances: DistanceSet, kind: ProblemKind, caps: EngineCaps = DEFAULT_CAPS) -> StateGraph:
    """Sliding-window automaton for the given property, pruned to bi-infinite walks.

    For the subset kinds a state is the last L positions as an integer in
    base 2, digit 0 the newest.  Appending x to state t gives the pasted
    pattern 2t + x over L+1 positions, and the arc leads to that pattern
    without its oldest digit when the pattern passes the kind's local test.
    Refused when 2^L exceeds caps.window_max_states, before anything is
    built.  For Coloring a state is a canonical window (_canonical_windows)
    and an arc appends one allowed label (_coloring_targets).
    """
    s = distances.max_element
    if isinstance(kind, Coloring):
        if kind.colors < 1:
            raise ValueError("need at least one color")
        windows, used = _canonical_windows(distances, kind.colors, caps)
        states, arcs = _pruned_graph(kind, _coloring_targets(windows, used, distances, kind.colors))
        return StateGraph(kind=kind, states=tuple(map(tuple, windows[states].tolist())), arcs=arcs)
    if isinstance(kind, Domination):
        length, masks_of = 2 * s, lambda: [_ball(s, distances)]
    elif isinstance(kind, IdentifyingCode):
        length, masks_of = 4 * s, lambda: _identifying_condition_masks(distances)
    else:
        raise TypeError(f"unknown problem kind: {kind!r}")
    size = _window_states(length, caps, distances)
    masks = masks_of()
    state = np.arange(size, dtype=np.int64)
    targets = np.empty((size, 2), dtype=np.int64)
    for x in range(2):
        pasted = state * 2 + x
        ok = np.ones(size, dtype=bool)
        for m in masks:
            ok &= (pasted & m) != 0
        targets[:, x] = np.where(ok, pasted % size, -1)
    states, arcs = _pruned_graph(kind, targets)
    return StateGraph(kind=kind, states=tuple(states.tolist()), arcs=arcs)


# ---------------------------------------------------------------------------
# Extremal mean cycles on window graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleWitness:
    """A simple extremal cycle, decoded as a periodic set or coloring."""

    states: tuple
    density: Fraction
    period: int
    period_set: Optional[BlockList] = None
    colors: Optional[tuple] = None


def _lift_coloring(cycle: Sequence[tuple]) -> tuple:
    """One period of a proper coloring that walks a cycle of canonical windows.

    The first window's labels are its colors.  Each arc appends the color
    that the newest label of the window it enters names: the color of a
    position of the rest with that label, or, for a fresh label, the
    smallest color the whole window lacks.  A fresh label is appended only
    while fewer than k colors are used, so every color stays below k.  A
    pass round the cycle comes back to the same canonical window, but
    perhaps renamed, so passes repeat until a window of real colors recurs:
    finitely many real windows have one canonical form.  The colors
    appended since its first appearance are one period.
    """
    window = list(cycle[0])
    seen = {tuple(window): 0}
    colors: list[int] = []
    while True:
        for state in (*cycle[1:], cycle[0]):
            rest, newest = state[:-1], state[-1]
            if newest in rest:
                color = window[1 + rest.index(newest)]
            else:
                color = min(set(range(len(window) + 1)).difference(window))
            window = window[1:] + [color]
            colors.append(color)
        start = seen.setdefault(tuple(window), len(colors))
        if start < len(colors):
            return tuple(colors[start:])


def _cycle_witness(graph: StateGraph, cycle: Sequence[int], density: Fraction) -> CycleWitness:
    """Decode a cycle.  For the subset kinds each arc appends digit 0 of the
    state it enters; a coloring cycle is lifted to real colors
    (_lift_coloring), and its period is a multiple of the cycle's length."""
    states = tuple(graph.states[i] for i in cycle)
    if isinstance(graph.kind, Coloring):
        colors = _lift_coloring(states)
        return CycleWitness(states=states, density=density, period=len(colors), colors=colors)
    positions = [p for p, t in enumerate(states) if t & 1]
    blocks = None
    if positions:
        gaps = [b - a for a, b in zip(positions, positions[1:])]
        gaps.append(len(states) - positions[-1] + positions[0])
        blocks = BlockList(gaps)
    return CycleWitness(states=states, density=density, period=len(states), period_set=blocks)


def extremal_mean_cycle(graph: StateGraph) -> CycleWitness:
    """Exact minimum mean arc weight over simple cycles of the graph, which
    is the density of the sparsest periodic set the automaton spells."""
    if not graph.states:
        raise InfeasibleError("state graph is empty after pruning")
    indptr, dst, w = meancycle.csr_from_adjacency(graph.arcs)
    mean, cyc, _ = meancycle.min_mean_cycle_howard(indptr, dst, w)
    return _cycle_witness(graph, cyc, mean)


# ---------------------------------------------------------------------------
# Independence: compressed state space over element gaps
# ---------------------------------------------------------------------------


_COUNT_CHUNK = 1 << 15


def _count_grown(masks: np.ndarray, offset: int, conflicts: list[int]) -> int:
    """How many masks growing `masks` from `offset` on would end with.

    Nothing is kept: the masks are grown depth first in parts of at most
    _COUNT_CHUNK, and a part that reaches max(S) is only counted.
    """
    s = len(conflicts)
    count = 0
    parts = [(masks[lo:lo + _COUNT_CHUNK], offset) for lo in range(0, len(masks), _COUNT_CHUNK)]
    while parts:
        part, p = parts.pop()
        if p == s:
            count += len(part)
            continue
        free = part[(part & conflicts[p]) == 0]
        free |= 1 << p
        if len(part) + len(free) <= _COUNT_CHUNK:
            parts.append((np.concatenate((part, free)), p + 1))
        else:
            parts += [(part, p + 1), (free, p + 1)]
    return count


def _gap_state_masks(distances: DistanceSet, max_states: int) -> np.ndarray:
    """Sorted int64 masks of occupied offsets within max(S) behind the
    latest element, counted before any build; the gap engine's F states are
    their quotient, and its state cap counts them.

    The reachable masks are exactly the S-independent subsets of
    [0, max(S)) that contain 0: every such subset is reached from mask 1 by
    appending its elements in order.  They are grown from [1] one offset
    at a time: offset p joins every mask with no offset p - d for a d in S
    below max(S), and the joined masks, all at least 2^p, are appended
    after the older ones, all below 2^p, so the array stays sorted and the
    work is proportional to the states, not to the 2^(max(S)-1) candidate
    masks.  When the next offset would take the count past max_states, the
    rest is only counted (_count_grown), so memory stays a few MB, and
    StateSpaceError carries the exact count.
    """
    s = distances.max_element
    inner = [d for d in distances if d < s]
    # conflicts[p] has bit p - d set for every d in S below max(S) with d <= p
    conflicts = [sum(1 << (p - d) for d in inner if d <= p) for p in range(s)]
    masks = np.ones(1, dtype=np.int32 if s < 32 else np.int64)
    p = 1
    while p < s:
        free = masks[(masks & conflicts[p]) == 0]
        if len(masks) + len(free) > max_states:
            break
        free |= 1 << p
        masks = np.concatenate((masks, free))
        p += 1
    if p < s or len(masks) > max_states:
        count = _count_grown(masks, p, conflicts)
        raise StateSpaceError(
            f"independence state space for {distances} has {count} gap masks, "
            f"over the cap of {max_states} masks",
            required=count,
        )
    return masks.astype(np.int64)


@functools.cache
def _bit_tables() -> tuple[np.ndarray, np.ndarray]:
    """Popcounts and bit lengths of the 16-bit integers (numpy 1.x has no
    bitwise_count)."""
    popcount = np.zeros(1 << 16, dtype=np.uint8)
    length = np.zeros(1 << 16, dtype=np.uint8)
    for b in range(16):
        popcount[1 << b:2 << b] = popcount[:1 << b] + 1
        length[1 << b:2 << b] = b + 1
    return popcount, length


def _breadth_first_order(masks: np.ndarray, s: int) -> np.ndarray:
    """The permutation that lists masks in the order the mask automaton's
    breadth-first search from mask 1, with arcs in gap order, meets them.

    That order is by popcount, then by the gap word read from the oldest
    element, lexicographically: a mask is reached in popcount - 1 arcs and
    from one mask of the level before (itself without its newest element),
    so a level is ordered by its parents and then by the last gap.  Within
    one popcount, the lexicographic order of gap words is the decreasing
    order of the masks shifted up until the oldest element sits at offset
    max(S) - 1.  The two keys are sorted one after the other, since
    together they can take more than 63 bits; both are exact integers for
    every max(S) up to 62.
    """
    counts, lengths = _bit_tables()
    popcount = np.zeros(len(masks), dtype=np.uint8)
    length = np.zeros(len(masks), dtype=np.int64)
    for lo in range(0, s, 16):
        chunk = (masks >> lo) & 0xFFFF
        popcount += counts[chunk]
        np.copyto(length, lengths[chunk] + lo, where=chunk != 0)
    later = ((1 << s) - 1) ^ (masks << (s - length))
    by_later = later.argsort()
    return by_later[popcount[by_later].argsort(kind="stable")]


def _mask_key(mask: int, s: int) -> tuple[int, int]:
    """The key of one mask in the order of _breadth_first_order."""
    return mask.bit_count(), ((1 << s) - 1) ^ (mask << (s - mask.bit_length()))


def _forbidden_offsets(masks: np.ndarray, s: int, sbits: int) -> np.ndarray:
    """F of each mask: bit y set for each offset y ahead of the latest
    element at a distance in S from an occupied offset, the union over the
    occupied offsets j of S shifted down by j.  Read a byte at a time."""
    forbidden = np.zeros(len(masks), dtype=np.int64)
    for lo in range(0, s, 8):
        table = np.zeros(256, dtype=np.int64)
        for b in range(8):
            table[1 << b:2 << b] = table[:1 << b] | (sbits >> (lo + b))
        forbidden |= table[(masks >> lo) & 0xFF]
    return forbidden


class _GapArcs(meancycle.CSRAdjacency):
    """The gap graph's arcs, with the pinning rule its Howard run takes."""

    __slots__ = ("pinning",)

    def __init__(self, indptr: np.ndarray, dst: np.ndarray, w: np.ndarray,
                 pinning: meancycle.CyclePinning):
        super().__init__(indptr, dst, w)
        self.pinning = pinning


class _MaskPinning(meancycle.CyclePinning):
    """Pins Howard on the F states where the mask engine's Howard pins.

    Run on the masks, Howard gives all masks of one F the same gap and the
    same bias at every iteration, so it can run on F.  Over a policy cycle
    of F states lies one cycle of masks, the cycle masks: each node's
    window of max(S) positions behind its element, in the cycle's periodic
    word.  The mask engine pins that cycle at the cycle mask it numbered
    first, and returns the cycle from the first cycle mask that a walk of
    masks from the least mask of Howard's start node meets.  width[i] is
    max(S) for node i's graph (a run on several gap graphs holds several),
    least[i] is node i's least mask, and shared[i] says whether node i has
    more than one.
    """

    def __init__(self, width: np.ndarray, least: np.ndarray, shared: np.ndarray):
        self.width, self.least, self.shared = width, least, shared

    @classmethod
    def joined(cls, rules: list) -> _MaskPinning:
        """The rule for the graphs of rules laid end to end, in order."""
        return cls(np.concatenate([r.width for r in rules]),
                   np.concatenate([r.least for r in rules]),
                   np.concatenate([r.shared for r in rules]))

    def part(self, lo, hi):
        return _MaskPinning(self.width[lo:hi], self.least[lo:hi], self.shared[lo:hi])

    @staticmethod
    def _cycle_masks(s: int, gaps: list) -> list:
        """The cycle masks of a policy cycle's nodes, where gaps[j] leads
        from node j to node j + 1.  A walk of masks from mask 1 at node 0
        holds the cycle mask once its gaps span max(S) - 1 positions."""
        window, length = (1 << s) - 1, len(gaps)
        mask, span, j = 1, 0, 0
        while span < s - 1:
            span += gaps[j % length]
            mask = ((mask << gaps[j % length]) & window) | 1
            j += 1
        masks = [0] * length
        for j in range(j, j + length):
            masks[j % length] = mask
            mask = ((mask << gaps[j % length]) & window) | 1
        return masks

    def pins(self, succ, wsel, handle, heads):
        # nodes are numbered by least mask, so a cycle whose smallest node
        # has one mask is pinned there: that mask is numbered before every
        # mask of the cycle's other nodes.  Walked: the offered heads that
        # are shared nodes
        pinned = []
        for head in heads[self.shared[heads]].tolist():
            cycle, gaps, v = [], [], head
            while not cycle or v != head:
                cycle.append(v)
                gaps.append(int(wsel[v]))
                v = int(succ[v])
            s = int(self.width[head])
            keys = [_mask_key(mask, s) for mask in self._cycle_masks(s, gaps)]
            k = keys.index(min(keys))
            if k:  # pinned elsewhere than at the head
                pinned.append(cycle[k])
        return np.array(pinned, dtype=np.int64) if pinned else None

    def start(self, succ, wsel, v, cycle, weights):
        s = int(self.width[v])
        window = (1 << s) - 1
        cycle_masks = self._cycle_masks(s, weights)
        at = {u: i for i, u in enumerate(cycle)}
        mask, node = int(self.least[v]), v
        while at.get(node) is None or mask != cycle_masks[at[node]]:
            mask = ((mask << int(wsel[node])) & window) | 1
            node = int(succ[node])
        return at[node]


def _independence_gap_graph(distances: DistanceSet, max_states: int):
    """The gap engine's automaton: a state is the set F of forbidden future
    offsets, an int64 with bit y set when an element y positions after the
    latest one would lie at a distance in S from an element already
    placed.  The start state is F0 = S; gap g is allowed when g is not in
    F, and leads to (F >> g) | S.  Gaps beyond max(S)+1 never help, so
    labels stop there.

    This is the quotient, by F, of the automaton whose states are the masks
    of occupied offsets within max(S) behind the latest element
    (_gap_state_masks lists them, and the cap counts them): masks with one
    F allow the same gaps and lead to masks with one F, and F is the
    Myhill-Nerode class of a mask, so the quotient is minimal.  A state is
    numbered by its least mask in the mask automaton's breadth-first order
    (_breadth_first_order), so F0 is state 0.

    Returns (order, arcs): the states' F (int64) in that numbering, and per
    state its arcs [(g, j), ...] in increasing g, as a CSRAdjacency with
    int64 indptr, int32 targets and int8 gaps.  arcs.pinning is the rule
    (_MaskPinning) under which Howard on this graph retraces the mask
    engine's run.  Arcs are made in blocks of at most meancycle._ARC_BLOCK
    candidate arcs, so no int64 scratch spans more than a block.  An int64
    holds the offsets of F up to max(S) only while max(S) <= 62, so a
    larger max(S) is refused with StateSpaceError.
    """
    s = distances.max_element
    if s > 62:
        raise StateSpaceError(
            f"max(S) = {s} is past 62, the most offsets an int64 gap state holds",
            required=s,
        )
    masks = _gap_state_masks(distances, max_states)
    sbits = sum(1 << d for d in distances)
    # the masks in breadth-first order, grouped by F: a group's least
    # position is its least mask
    by_key = _breadth_first_order(masks, s)
    forbidden = _forbidden_offsets(masks, s, sbits)[by_key]
    by_f = forbidden.argsort()
    grouped = forbidden[by_f]
    starts = np.flatnonzero(np.concatenate(([True], grouped[1:] != grouped[:-1])))
    least = np.minimum.reduceat(by_f, starts)
    node_of = least.argsort()
    values = grouped[starts]  # every F, increasing
    n = len(values)
    index = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    number = np.empty(n, dtype=index)
    number[node_of] = np.arange(n, dtype=index)
    order = values[node_of]
    shared = np.diff(np.append(starts, len(masks)))[node_of] > 1
    pinning = _MaskPinning(np.full(n, s, dtype=np.uint8), masks[by_key[least[node_of]]], shared)
    gaps = np.arange(1, s + 2, dtype=np.int64)
    per_block = max(1, meancycle._ARC_BLOCK // len(gaps))
    deg, dst, gap_of = [], [], []
    for lo in range(0, n, per_block):
        block = order[lo:lo + per_block]
        src, col = (((block[:, None] >> gaps) & 1) == 0).nonzero()
        gap = gaps[col]
        deg.append(np.bincount(src, minlength=len(block)))
        successor = (block[src] >> gap) | sbits
        hit = values.searchsorted(successor)
        if (values.take(hit, mode="clip") != successor).any():
            raise AssertionError(
                f"internal error: a gap state of {distances} has a successor outside the states"
            )
        dst.append(number[hit])
        gap_of.append(gap.astype(np.int8))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.concatenate(deg), out=indptr[1:])
    return order, _GapArcs(indptr, np.concatenate(dst), np.concatenate(gap_of), pinning)


def _gap_arcs(distances: DistanceSet, caps: EngineCaps) -> _GapArcs:
    """The gap graph's arcs, or StateSpaceError when a cap refuses it."""
    if distances.max_element > caps.independence_max_element:
        raise StateSpaceError(
            f"max(S) = {distances.max_element} exceeds the independence cap "
            f"{caps.independence_max_element}",
            required=distances.max_element,
        )
    return _independence_gap_graph(distances, caps.independence_max_states)[1]


def _unions(graphs: Iterable[tuple]) -> Iterator[list]:
    """Consecutive (index, arcs) pairs in groups of at most
    meancycle._ARC_BLOCK arcs in all; a larger graph makes a group of its
    own.  A generator, so only one group's graphs are held at a time."""
    group, held = [], 0
    for index, arcs in graphs:
        if group and held + len(arcs.dst) > meancycle._ARC_BLOCK:
            yield group
            group, held = [], 0
        group.append((index, arcs))
        held += len(arcs.dst)
    if group:
        yield group


def _solve_together(graphs: list) -> list:
    """Howard's (mean, cycle, gaps) for each gap graph, from one run on
    the graphs laid end to end under their joined pinning rules."""
    csrs = [meancycle.csr_from_adjacency(arcs) for arcs in graphs]
    nodes = np.cumsum([0] + [len(indptr) - 1 for indptr, _, _ in csrs]).tolist()
    if len(csrs) == 1:  # a group of one: its own arrays and rule, uncopied
        (indptr, dst, w), pinning = csrs[0], graphs[0].pinning
    else:
        # Python int offsets keep the int32 targets int32 under either numpy
        arcs_before = np.cumsum([0] + [len(dst) for _, dst, _ in csrs]).tolist()
        indptr = np.concatenate([[0]] + [indptr[1:] + a for (indptr, _, _), a in zip(csrs, arcs_before)])
        dst = np.concatenate([dst + o for (_, dst, _), o in zip(csrs, nodes)])
        w = np.concatenate([w for _, _, w in csrs])
        pinning = _MaskPinning.joined([arcs.pinning for arcs in graphs])
    return meancycle.min_mean_cycle_howard(indptr, dst, w, pinning, nodes)


def independence_ratios_exact(sets: Sequence[DistanceSet], caps: EngineCaps = DEFAULT_CAPS) -> list:
    """independence_ratio_exact for each set: its (value, witness), or the
    StateSpaceError that refused it, in set order.

    Each set's gap graph is built on its own.  Consecutive graphs are then
    solved together, in one Howard run on unions of at most
    meancycle._ARC_BLOCK arcs, so a union needs no more per-arc scratch
    than one graph of a block; a larger graph runs alone.  Every graph's
    result is that of its own run (see the meancycle module docstring), and
    every witness is verified on its own.
    """
    answers: list = [None] * len(sets)

    def built():
        for index, distances in enumerate(sets):
            try:
                arcs = _gap_arcs(distances, caps)
            except StateSpaceError as exc:
                # kept without its traceback, whose frames hold the refused
                # build's arrays
                answers[index] = exc.with_traceback(None)
                continue
            yield index, arcs

    for group in _unions(built()):
        solved = _solve_together([arcs for _, arcs in group])
        for (index, _), (mean, _, gaps) in zip(group, solved):
            distances = sets[index]
            value = 1 / mean
            witness = BlockList(gaps)
            verdict = verify_periodic_independent(witness, distances)
            if not verdict.ok or witness.density() != value:
                raise AssertionError(
                    f"internal error: witness for {distances} failed verification"
                )
            answers[index] = (value, witness)
    return answers


def independence_ratio_exact(
    distances: DistanceSet, caps: EngineCaps = DEFAULT_CAPS
) -> tuple[Fraction, BlockList]:
    """Exact independence ratio of G(S) with a verified periodic witness.

    Minimizes the mean element gap over cycles of the compressed state
    graph; the ratio is the reciprocal and the witness is the cycle's gap
    sequence.  Requires max(S) within the configured cap.  A batch of one
    of independence_ratios_exact.
    """
    [answer] = independence_ratios_exact([distances], caps)
    if isinstance(answer, StateSpaceError):
        raise answer
    return answer


# ---------------------------------------------------------------------------
# Domination, identifying codes, colorings
# ---------------------------------------------------------------------------


def verify_periodic_dominating(blocks: BlockList, distances: DistanceSet) -> bool:
    """Every residue class mod the period is in or adjacent to the set."""
    period = blocks.period
    members = {p % period for p in blocks.positions()}
    deltas = [0] + [d for s in distances for d in (s, -s)]
    for u in range(period):
        if not any((u + d) % period in members for d in deltas):
            return False
    return True


def verify_periodic_identifying(blocks: BlockList, distances: DistanceSet, radius: int = 1) -> bool:
    """Balls of radius r intersect the periodic set nonemptily and distinctly."""
    period = blocks.period
    members = {p % period for p in blocks.positions()}
    ball = [0] + list(power_distance_set(distances, radius).distances)
    deltas = sorted(set(ball) | {-d for d in ball})
    reach = max(deltas)

    def signature(u: int) -> frozenset:
        return frozenset(u + d for d in deltas if (u + d) % period in members)

    for u in range(period):
        su = signature(u)
        if not su:
            return False
        for v in range(u + 1, u + 2 * reach + 1):
            if signature(v) == su:
                return False
    return True


def verify_periodic_coloring(colors: Sequence[int], distances: DistanceSet) -> bool:
    """True when no two positions of Z_period at a distance in S share a
    color.  Checked one color class at a time, against whichever is shorter:
    the other members of the class, or the residues d mod period, so a
    coloring with few repeats costs little however large S is."""
    period = len(colors)
    if not period:
        return True
    residues = {d % period for d in distances}
    if 0 in residues:  # u and u + d are the same position
        return False
    classes: dict[int, list[int]] = {}
    for u, c in enumerate(colors):
        classes.setdefault(c, []).append(u)
    for members in classes.values():
        if len(members) <= len(residues):
            if any((b - a) % period in residues or (a - b) % period in residues
                   for i, a in enumerate(members) for b in members[i + 1:]):
                return False
        else:
            same = set(members)
            if any((a + r) % period in same for a in members for r in residues):
                return False
    return True


def min_dominating_density(
    distances: DistanceSet, caps: EngineCaps = DEFAULT_CAPS
) -> tuple[Fraction, CycleWitness]:
    """Exact minimum density of a dominating set in G(S), with witness."""
    graph = build_state_graph(distances, Domination(), caps)
    witness = extremal_mean_cycle(graph)
    if witness.period_set is None or not verify_periodic_dominating(witness.period_set, distances):
        raise AssertionError(f"internal error: dominating witness failed for {distances}")
    return witness.density, witness


def min_identifying_density(
    distances: DistanceSet, radius: int = 1, caps: EngineCaps = DEFAULT_CAPS
) -> tuple[Fraction, CycleWitness]:
    """Exact minimum density of an r-identifying code in G(S), with witness.

    For r > 1 the code is built on the distance set of the r-th graph power,
    where it is a 1-identifying code.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if radius == 1:
        effective = distances
    else:
        # the power's largest distance is radius * max(S): refuse before building it
        _window_states(4 * radius * distances.max_element, caps, distances, radius)
        effective = power_distance_set(distances, radius)
    graph = build_state_graph(effective, IdentifyingCode(), caps)
    witness = extremal_mean_cycle(graph)
    if witness.period_set is None or not verify_periodic_identifying(
        witness.period_set, distances, radius
    ):
        raise AssertionError(f"internal error: identifying witness failed for {distances}")
    return witness.density, witness


def periodic_coloring(
    distances: DistanceSet, colors: int, caps: EngineCaps = DEFAULT_CAPS
) -> Optional[CycleWitness]:
    """A periodic proper coloring with `colors` colors, or None if the pruned
    automaton of canonical windows is empty (no such coloring exists).

    With more colors than max(S), position mod max(S) + 1 is proper at once
    (no d in S is a multiple of the period); its one canonical window,
    labels 0..max(S)-1, loops to itself.  The window cap still bounds that
    period.  When S holds 1..k for k = `colors`, positions 0..k form a
    clique of k + 1, so the answer is None before any window is grown."""
    s = distances.max_element
    if 1 <= colors <= len(distances.distances) and distances.distances[colors - 1] == colors:
        return None
    if colors > s and s <= caps.window_max_states:
        witness = CycleWitness(states=(tuple(range(s)),), density=Fraction(0), period=s + 1, colors=tuple(range(s + 1)))
    else:
        graph = build_state_graph(distances, Coloring(colors), caps)
        if not graph.states:
            return None
        # any cycle works; find one by walking first arcs until a repeat
        first = graph.arcs.dst[graph.arcs.indptr[:-1]].tolist()
        seen: dict[int, int] = {}
        node = 0
        while node not in seen:
            seen[node] = len(seen)
            node = first[node]
        witness = _cycle_witness(graph, list(seen)[seen[node]:], Fraction(0))
    if max(witness.colors) >= colors or not verify_periodic_coloring(witness.colors, distances):
        raise AssertionError(f"internal error: coloring witness failed for {distances}")
    return witness
