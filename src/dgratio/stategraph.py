"""Window-state graphs over G(S) and the exact extremal densities they carry.

Slicing the integers into consecutive windows turns a density problem on
G(S) into a mean-cycle problem on a finite digraph of admissible window
patterns, so each extremal density below is exact and comes with a periodic
witness read off the extremal cycle:

  * maximum independent-set density (the independence ratio),
  * minimum dominating-set density,
  * minimum r-identifying-code density,
  * periodic proper k-colorings.

Independence uses a compressed state space over element gaps, the only
independence engine in the package: a state records the occupied offsets
within max(S) behind the latest element, and an edge labelled g places the
next element g positions later.  Cycle mean gap lambda then gives ratio
1/lambda, and the cycle's edge labels are literally the witness block sizes.
The other problems run on explicit window graphs (build_state_graph);
domination and identifying codes share one pair builder, _window_graph.
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
    it is the exact number of reachable states.  For the element cap
    (2^max(S)) and the window caps (2^window, or colors^max(S)) it counts
    candidate states before any pruning.
    """

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class InfeasibleError(ValueError):
    """The pruned state graph is empty (no bi-infinite object exists)."""


class InexactResultError(RuntimeError):
    """An exact value was required but only bounds are available."""

    def __init__(self, report):
        super().__init__(
            f"exact ratio unavailable for {report.distances}: "
            f"bounds [{report.lower}, {report.upper}]"
        )
        self.report = report


@dataclass(frozen=True)
class EngineCaps:
    """Resource limits for state-graph constructions (all configurable)."""

    independence_max_element: int = 22
    independence_max_states: int = 400_000
    domination_max_element: int = 4
    identifying_max_window: int = 12
    coloring_max_states: int = 4096


DEFAULT_CAPS = EngineCaps()


# ---------------------------------------------------------------------------
# Problem kinds and the generic window-state graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Domination:
    """Minimum dominating sets, on windows of 2 max(S) positions."""


@dataclass(frozen=True)
class IdentifyingCode:
    """Minimum 1-identifying codes, on windows of 6 max(S) positions."""


@dataclass(frozen=True)
class Coloring:
    """Proper colorings with `colors` colors, on windows of max(S) positions."""

    colors: int


ProblemKind = Union[Domination, IdentifyingCode, Coloring]


@dataclass(frozen=True)
class StateGraph:
    """Digraph of admissible window states, pruned to bi-infinite walks.

    states are bitmasks over [window] for subset kinds (bit j = position j+1
    occupied) and color tuples for Coloring.  weights[i] is the element count
    of state i (0 for Coloring).  arcs[i] lists successor state indices.
    """

    window: int
    kind: ProblemKind
    states: tuple
    arcs: tuple
    weights: tuple


def _prune(states: list, arcs: list) -> tuple[list, list]:
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


def _window_graph(ell: int, masks: list[int], kind: ProblemKind) -> StateGraph:
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
            a = (t & lo) == 0
            b = (t & hi) == 0
            bad |= np.outer(a, b)
    valid = (~bad) & valid_t[:, None] & valid_n[None, :]
    states = list(range(size))
    arcs = [np.flatnonzero(valid[i]).tolist() for i in range(size)]
    states, arcs = _prune(states, arcs)
    weights = tuple(m.bit_count() for m in states)
    return StateGraph(window=ell, kind=kind, states=tuple(states), arcs=tuple(arcs), weights=weights)


def _identifying_condition_masks(distances: DistanceSet) -> list[int]:
    """Nonzero-intersection masks encoding the identifying transition test.

    A pasted pattern Y over [1, 12s] is admissible when Y meets every mask:
    nonempty balls for u in [3s+1, 9s], and for close pairs (u, v) the
    symmetric difference of their balls (far pairs are separated by the
    nonemptiness conditions alone).
    """
    s = distances.max_element
    span = 12 * s
    masks = []
    for u in range(3 * s + 1, 9 * s + 1):
        masks.append(_neighborhood_mask(u, distances, span))
    for u in range(3 * s + 1, 9 * s + 1):
        lo = max(s + 1, u - 2 * s)
        hi = min(11 * s, u + 2 * s)
        for v in range(lo, hi + 1):
            if v == u:
                continue
            m = _neighborhood_mask(u, distances, span) ^ _neighborhood_mask(v, distances, span)
            masks.append(m)
    return sorted(set(masks))


def _build_coloring_window(distances: DistanceSet, colors: int, caps: EngineCaps) -> StateGraph:
    s = distances.max_element
    if colors < 1:
        raise ValueError("need at least one color")
    total = colors**s
    if total > caps.coloring_max_states:
        raise StateSpaceError(
            f"coloring window graph needs {colors}^{s} states", required=total
        )
    states = []
    for code in range(total):
        c = []
        x = code
        for _ in range(s):
            c.append(x % colors)
            x //= colors
        tup = tuple(c)  # tup[j] colors position j+1
        proper = True
        for d in distances:
            for i in range(s - d):
                if tup[i] == tup[i + d]:
                    proper = False
                    break
            if not proper:
                break
        if proper:
            states.append(tup)
    index = {c: i for i, c in enumerate(states)}
    arcs = []
    for c in states:
        out = []
        for j, c2 in enumerate(states):
            ok = True
            for d in distances:
                for i in range(s - d, s):
                    # position i+1 in this window vs i+1+d in the next
                    if c[i] == c2[i + d - s]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append(j)
        arcs.append(out)
    states2, arcs2 = _prune(states, arcs)
    weights = tuple(0 for _ in states2)
    return StateGraph(window=s, kind=Coloring(colors), states=tuple(states2), arcs=tuple(arcs2), weights=weights)


def build_state_graph(distances: DistanceSet, kind: ProblemKind, caps: EngineCaps = DEFAULT_CAPS) -> StateGraph:
    """Window-state graph for the given property, pruned to bi-infinite walks."""
    s = distances.max_element
    if isinstance(kind, Domination):
        if s > caps.domination_max_element:
            raise StateSpaceError(
                f"domination window graph needs 2^{2 * s} states", required=1 << (2 * s)
            )
        # every vertex in the middle 2s positions of a pasted pair is dominated
        masks = [_neighborhood_mask(v, distances, 4 * s) for v in range(s + 1, 3 * s + 1)]
        return _window_graph(2 * s, masks, kind)
    if isinstance(kind, IdentifyingCode):
        if 6 * s > caps.identifying_max_window:
            raise StateSpaceError(
                f"identifying-code window graph needs 2^{6 * s} states", required=1 << (6 * s)
            )
        return _window_graph(6 * s, _identifying_condition_masks(distances), kind)
    if isinstance(kind, Coloring):
        return _build_coloring_window(distances, kind.colors, caps)
    raise TypeError(f"unknown problem kind: {kind!r}")


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


def _decode_subset_cycle(states: Sequence[int], window: int) -> Optional[BlockList]:
    positions = []
    for j, mask in enumerate(states):
        m = mask
        while m:
            low = m & -m
            positions.append(j * window + low.bit_length() - 1)
            m ^= low
    if not positions:
        return None
    positions.sort()
    period = window * len(states)
    gaps = [b - a for a, b in zip(positions, positions[1:])]
    gaps.append(period - positions[-1] + positions[0])
    return BlockList(gaps)


def extremal_mean_cycle(graph: StateGraph, direction: str = "max") -> CycleWitness:
    """Exact extremal mean state weight over simple cycles of the graph.

    direction 'max' maximizes, 'min' minimizes.  The density reported is the
    per-integer value (mean weight divided by the window length).
    """
    if direction not in ("max", "min"):
        raise ValueError("direction must be 'max' or 'min'")
    if not graph.states:
        raise InfeasibleError("state graph is empty after pruning")
    adjacency = []
    for i, out in enumerate(graph.arcs):
        adjacency.append([(graph.weights[j], j) for j in out])
    indptr, dst, w = meancycle.csr_from_adjacency(adjacency)
    if direction == "max":
        mean, cyc, weights = meancycle.max_mean_cycle_howard(indptr, dst, w)
    else:
        mean, cyc, weights = meancycle.min_mean_cycle_howard(indptr, dst, w)
    cycle_states = tuple(graph.states[i] for i in cyc)
    density = mean / graph.window
    period = graph.window * len(cyc)
    if isinstance(graph.kind, Coloring):
        flat = tuple(c for state in cycle_states for c in state)
        return CycleWitness(states=cycle_states, density=density, period=period, colors=flat)
    blocks = _decode_subset_cycle(cycle_states, graph.window)
    return CycleWitness(states=cycle_states, density=density, period=period, period_set=blocks)


# ---------------------------------------------------------------------------
# Independence: compressed state space over element gaps
# ---------------------------------------------------------------------------


_COUNT_CHUNK = 1 << 18


def _gap_state_masks(distances: DistanceSet, max_states: int) -> np.ndarray:
    """Sorted int64 masks of the gap engine's states, counted before any build.

    The reachable states are exactly the S-independent subsets of
    [0, max(S)) that contain 0: every such subset is reached from mask 1 by
    appending its elements in order.  They are counted over the 2^(max(S)-1)
    candidate masks in chunks, so memory stays a few MB; past max_states the
    count goes on but nothing is kept, and StateSpaceError carries the exact
    count.
    """
    s = distances.max_element
    inner = [d for d in distances if d < s]
    candidates = 1 << (s - 1)
    kept, count = [], 0
    for lo in range(0, candidates, _COUNT_CHUNK):
        m = (np.arange(lo, min(candidates, lo + _COUNT_CHUNK), dtype=np.int64) << 1) | 1
        ok = np.ones(len(m), dtype=bool)
        for d in inner:
            ok &= (m & (m >> d)) == 0
        count += int(np.count_nonzero(ok))
        if count <= max_states:
            kept.append(m[ok])
    if count > max_states:
        raise StateSpaceError(
            f"independence state space for {distances} has {count} states, "
            f"over the cap of {max_states}",
            required=count,
        )
    return np.concatenate(kept)


def _independence_gap_graph(distances: DistanceSet, max_states: int):
    """States are bitmasks of occupied offsets behind the latest element
    (bit 0 = the element itself); an edge labelled g appends an element g
    positions later.  Gaps beyond max(S)+1 never help, so labels stop there.

    Returns (order, arcs): the state masks in breadth-first discovery order
    from mask 1, and per state its arcs [(g, j), ...] in increasing g, as a
    meancycle.CSRAdjacency.  The graph is built in numpy passes: every arc
    of every state at once, with targets looked up in the sorted masks, then
    a frontier BFS that numbers the states as a queue over arcs in gap order
    would.
    """
    masks = _gap_state_masks(distances, max_states)
    s = distances.max_element
    n = len(masks)
    gaps = np.arange(1, s + 2, dtype=np.int64)
    sbits = sum(1 << d for d in distances)
    # gap g is free when no occupied offset sits at d - g for a d in S; the
    # arcs come out grouped by state, in increasing gap within a state
    src, col = np.nonzero((masks[:, None] & (sbits >> gaps)) == 0)
    gap = gaps[col]
    keys = ((masks[src] << gap) & ((1 << s) - 1)) | 1
    # binary search runs far faster over keys in near-sorted order, so look
    # them up in the order of a (linear-time) stable sort by their top 16 bits
    by_top = np.argsort((keys >> max(0, s - 16)).astype(np.uint16), kind="stable")
    tgt = np.empty_like(keys)
    tgt[by_top] = np.searchsorted(masks, keys[by_top])
    deg = np.bincount(src, minlength=n)
    first = np.zeros(n, dtype=np.int64)
    np.cumsum(deg[:-1], out=first[1:])

    def arcs_of(states):
        """Indices of the arcs of `states`, state by state, each in gap order."""
        counts = deg[states]
        ends = np.cumsum(counts)
        return np.repeat(first[states] - ends + counts, counts) + np.arange(ends[-1])

    # mask 1 is the smallest mask, so the start state is index 0
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
    if len(found) != n:
        raise AssertionError(f"internal error: gap states of {distances} not all reachable")
    number = np.empty(n, dtype=np.int64)
    number[found] = np.arange(n, dtype=np.int64)

    arcs = arcs_of(found)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg[found], out=indptr[1:])
    return masks[found], meancycle.CSRAdjacency(indptr, number[tgt[arcs]], gap[arcs])


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
            required=1 << distances.max_element,
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
    witness = extremal_mean_cycle(graph, "min")
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
    effective = distances if radius == 1 else power_distance_set(distances, radius)
    graph = build_state_graph(effective, IdentifyingCode(), caps)
    witness = extremal_mean_cycle(graph, "min")
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
    seen = {}
    path = [0]
    seen[0] = 0
    while True:
        nxt = graph.arcs[path[-1]][0]
        if nxt in seen:
            cyc = path[seen[nxt]:]
            break
        seen[nxt] = len(path)
        path.append(nxt)
    cycle_states = tuple(graph.states[i] for i in cyc)
    flat = tuple(c for state in cycle_states for c in state)
    if not verify_periodic_coloring(flat, distances):
        raise AssertionError(f"internal error: coloring witness failed for {distances}")
    return CycleWitness(
        states=cycle_states,
        density=Fraction(0),
        period=graph.window * len(cyc),
        colors=flat,
    )


def fractional_chromatic(distances: DistanceSet, budget=None, caps: EngineCaps = DEFAULT_CAPS) -> Fraction:
    """Reciprocal of the independence ratio; demands an exact ratio."""
    from .ratio import independence_ratio

    report = independence_ratio(distances, budget=budget, caps=caps)
    if report.status != "exact":
        raise InexactResultError(report)
    return 1 / report.value
