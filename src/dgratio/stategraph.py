"""Finite automata over G(S) and the exact extremal densities they carry.

A periodic object on the integers is a closed walk in a finite automaton
whose arcs append positions, so each extremal density below is exact and
comes with a periodic witness read off the extremal cycle:

  * maximum independent-set density (the independence ratio),
  * minimum dominating-set density,
  * minimum r-identifying-code density,
  * periodic proper k-colorings.

Independence uses a compressed state space over element gaps, the only
independence engine in the package: a state records the occupied offsets
within max(S) behind the latest element, and an edge labelled g places the
next element g positions later.  Cycle mean gap lambda then gives ratio
1/lambda, and the cycle's edge labels are literally the witness block sizes.

The other problems share one sliding-window automaton (build_state_graph):
a state is the last L positions, an arc appends one position, and an arc is
admissible when the L+1 positions pasted together pass the local test for
the position the arc completes.  Every position of a cycle is tested once,
when it is completed, so every cycle spells a valid periodic object.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .core import BlockList, DistanceSet, power_distance_set, verify_periodic_independent
from . import meancycle


class StateSpaceError(RuntimeError):
    """The construction would exceed a configured cap.

    required is the size that was refused.  For the gap engine's state cap
    it is the exact number of reachable states; for its element cap it is
    max(S).  For the window cap it is the number of window states before
    pruning, alphabet^L (2^(2 max S), 2^(4 max S) or k^max(S)), or None when
    that number is 2^64 or more: such an automaton is refused under any cap,
    and its size is not computed.
    """

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class InfeasibleError(ValueError):
    """The pruned state graph is empty (no bi-infinite object exists)."""


@dataclass(frozen=True)
class EngineCaps:
    """Resource limits for state-graph constructions (all configurable)."""

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
    """Proper colorings with `colors` colors.  States hold the colors of the
    last max(S) positions; an arc is admissible when the new color differs
    from the color d back for every d in S."""

    colors: int


ProblemKind = Union[Domination, IdentifyingCode, Coloring]


@dataclass(frozen=True)
class StateGraph:
    """Digraph of admissible window states, pruned to bi-infinite walks.

    states are the surviving window states in increasing order, integers in
    base 2 (subset kinds) or base `colors` (Coloring) with digit 0 the
    newest position.  arcs holds each state's out-arcs as CSR arrays, in
    increasing target order; an arc's weight is the digit it appends for
    the subset kinds and 0 for Coloring.
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


def _window_states(base: int, length: int, caps: EngineCaps, distances: DistanceSet, radius: int = 1) -> int:
    """base^L, the window automaton's states before pruning, refused with
    StateSpaceError when over caps.window_max_states.  Decided from base
    and L alone, so a refused automaton costs nothing to refuse however
    large L is; from 2^64 on the power is not computed and is refused
    under any cap."""
    size = base ** min(length, 64)  # base^64 < 2^64 only for base 1, whose powers are all 1
    if size >= 1 << 64 or size > caps.window_max_states:
        where = distances if radius == 1 else f"{distances} at radius {radius}"
        raise StateSpaceError(
            f"window automaton for {where} needs {base}^{length} states, "
            f"over the cap of {caps.window_max_states}",
            required=size if size < 1 << 64 else None,
        )
    return size


def build_state_graph(distances: DistanceSet, kind: ProblemKind, caps: EngineCaps = DEFAULT_CAPS) -> StateGraph:
    """Sliding-window automaton for the given property, pruned to bi-infinite walks.

    A state is the last L positions as an integer in base 2 (subsets) or
    base k (colors), digit 0 the newest.  Appending x to state t gives the
    pasted pattern t*base + x over L+1 positions, and the arc leads to that
    pattern without its oldest digit when the pattern passes the kind's
    local test.  Refused when base^L exceeds caps.window_max_states, before
    anything is built.
    """
    s = distances.max_element
    if isinstance(kind, Coloring):
        if kind.colors < 1:
            raise ValueError("need at least one color")
        base, length, masks_of = kind.colors, s, lambda: []
    elif isinstance(kind, Domination):
        base, length, masks_of = 2, 2 * s, lambda: [_ball(s, distances)]
    elif isinstance(kind, IdentifyingCode):
        base, length, masks_of = 2, 4 * s, lambda: _identifying_condition_masks(distances)
    else:
        raise TypeError(f"unknown problem kind: {kind!r}")
    size = _window_states(base, length, caps, distances)
    masks = masks_of()
    state = np.arange(size, dtype=np.int64)
    targets = np.empty((size, base), dtype=np.int64)
    for x in range(base):
        pasted = state * base + x
        ok = np.ones(size, dtype=bool)
        for m in masks:
            ok &= (pasted & m) != 0
        if isinstance(kind, Coloring):
            for d in distances:  # digit d of the pattern is the color d back
                ok &= pasted // base**d % base != x
        targets[:, x] = np.where(ok, pasted % size, -1)
    states = _prune(targets)
    number = np.full(size, -1, dtype=np.int64)
    number[states] = np.arange(len(states), dtype=np.int64)
    # a row's targets rise with the appended digit, so CSR order is target order
    succ = targets[states]
    succ = np.where(succ >= 0, number[succ], -1)
    live = succ >= 0
    indptr = np.zeros(len(states) + 1, dtype=np.int64)
    np.cumsum(live.sum(axis=1), out=indptr[1:])
    digit = np.nonzero(live)[1]
    weights = np.zeros_like(digit) if isinstance(kind, Coloring) else digit
    arcs = meancycle.CSRAdjacency(indptr, succ[live], weights)
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


def _cycle_witness(graph: StateGraph, cycle: Sequence[int], density: Fraction) -> CycleWitness:
    """Decode a cycle: each arc appends digit 0 of the state it enters."""
    states = tuple(graph.states[i] for i in cycle)
    if isinstance(graph.kind, Coloring):
        colors = tuple(t % graph.kind.colors for t in states)
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
    """Sorted int64 masks of the gap engine's states, counted before any build.

    The reachable states are exactly the S-independent subsets of
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
            f"independence state space for {distances} has {count} states, "
            f"over the cap of {max_states}",
            required=count,
        )
    return masks.astype(np.int64)


def _independence_gap_graph(distances: DistanceSet, max_states: int):
    """States are bitmasks of occupied offsets behind the latest element
    (bit 0 = the element itself); an edge labelled g appends an element g
    positions later.  Gaps beyond max(S)+1 never help, so labels stop there.

    Returns (order, arcs): the state masks (int64) in breadth-first
    discovery order from mask 1, and per state its arcs [(g, j), ...] in
    increasing g, as a meancycle.CSRAdjacency with int64 indptr, int32
    targets and int8 gaps.  The graph is built in numpy passes by a BFS
    that takes the queued states in blocks of at most meancycle._ARC_BLOCK
    arcs: a block's arcs are computed, their targets looked up in the
    sorted masks, the new targets numbered in order of first appearance
    (as a queue over arcs in gap order would) and the block's part of the
    CSR emitted, so no int64 scratch spans more than a block.
    """
    masks = _gap_state_masks(distances, max_states)
    s = distances.max_element
    n = len(masks)
    gaps = np.arange(1, s + 2, dtype=np.int64)
    sbits = sum(1 << d for d in distances)
    # gap g is free when no occupied offset sits at d - g for a d in S
    blocked = sbits >> gaps
    window = (1 << s) - 1
    index = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    # mask 1 is the smallest mask, so the start state is index 0
    queue = np.zeros(n, dtype=np.int64)
    number = np.full(n, -1, dtype=index)
    number[0] = 0
    queued, done = 1, 0
    per_block = max(1, meancycle._ARC_BLOCK // len(gaps))
    deg, dst, gap_of = [], [], []
    while done < queued:
        states = queue[done:min(queued, done + per_block)]
        done += len(states)
        head = masks[states]
        # the block's arcs, grouped by state, in increasing gap within a state
        src, col = ((head[:, None] & blocked) == 0).nonzero()
        gap = gaps[col]
        keys = ((head[src] << gap) & window) | 1
        # binary search runs far faster over keys in near-sorted order, so
        # look them up in the order of a (linear-time) stable sort by their
        # top 16 bits
        by_top = (keys >> max(0, s - 16)).astype(np.uint16).argsort(kind="stable")
        tgt = np.empty_like(keys)
        tgt[by_top] = masks.searchsorted(keys[by_top])
        reached = tgt[number[tgt] < 0]
        _, earliest = np.unique(reached, return_index=True)
        fresh = reached[np.sort(earliest)]
        number[fresh] = np.arange(queued, queued + len(fresh), dtype=index)
        queue[queued:queued + len(fresh)] = fresh
        queued += len(fresh)
        deg.append(np.bincount(src, minlength=len(states)))
        dst.append(number[tgt])
        gap_of.append(gap.astype(np.int8))
    if queued != n:
        raise AssertionError(f"internal error: gap states of {distances} not all reachable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.concatenate(deg), out=indptr[1:])
    return masks[queue], meancycle.CSRAdjacency(indptr, np.concatenate(dst), np.concatenate(gap_of))


def independence_ratio_exact(
    distances: DistanceSet, caps: EngineCaps = DEFAULT_CAPS
) -> tuple[Fraction, BlockList]:
    """Exact independence ratio of G(S) with a verified periodic witness.

    Minimizes the mean element gap over cycles of the compressed state
    graph; the ratio is the reciprocal and the witness is the cycle's gap
    sequence.  Requires max(S) within the configured cap.
    """
    if distances.max_element > caps.independence_max_element:
        raise StateSpaceError(
            f"max(S) = {distances.max_element} exceeds the independence cap "
            f"{caps.independence_max_element}",
            required=distances.max_element,
        )
    _, adjacency = _independence_gap_graph(distances, caps.independence_max_states)
    indptr, dst, w = meancycle.csr_from_adjacency(adjacency)
    mean, _, gaps = meancycle.min_mean_cycle_howard(indptr, dst, w)
    value = 1 / mean
    witness = BlockList(gaps)
    verdict = verify_periodic_independent(witness, distances)
    if not verdict.ok or witness.density() != value:
        raise AssertionError(
            f"internal error: witness for {distances} failed verification"
        )
    return value, witness


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
    period = len(colors)
    for u in range(period):
        for d in distances:
            if colors[u] == colors[(u + d) % period]:
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
        _window_states(2, 4 * radius * distances.max_element, caps, distances, radius)
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
    state graph is empty (no such coloring exists)."""
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
    if not verify_periodic_coloring(witness.colors, distances):
        raise AssertionError(f"internal error: coloring witness failed for {distances}")
    return witness
