"""Branch-and-bound independence numbers on finite slices of G(S).

Two slice families sandwich the independence ratio for any n, m:

    alpha(G(n,S)) / n  <=  ratio  <=  alpha(G(S)[m]) / m

where G(S)[m] is the subgraph induced on [m] and G(n,S) the circulant on
Z_n.  compute_ratio interleaves both computations, growing n and m until the
best bounds meet or the work budget runs out.  The core solver is a
backtracking search over vertices in decreasing order with two prunes: the
memoized alpha values of shorter intervals, and the interval decomposition
bound beta(B) of the remaining candidate set, which interval searches test
again each time a node uses up a candidate.  A search for one vertex more
than the vertices after vertex 1 hold must take vertex 1, so interval steps
and the prefix searches of a jump drop every child that loses it; regular
circulant rounds keep their node order.

An interval step a(m) = alpha(G(S)[m]) is either a(m-1) or a(m-1) + 1, and
two exact proofs settle many steps without a search: alpha is subadditive
over intervals, so a(j) + a(m-j) <= a(m-1) for some j gives a(m) = a(m-1);
and a window of m consecutive integers of a verified periodic independent
set that holds a(m-1) + 1 elements gives a(m) = a(m-1) + 1.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, sub
from typing import Optional

from .core import BlockList, DistanceSet, verify_periodic_independent

FALLBACK_NODE_BUDGET = 3_000_000


def default_node_budget() -> int:
    """The node budget from DGRATIO_BUDGET, else FALLBACK_NODE_BUDGET.

    Raises ValueError when the variable is set but is not a positive integer.
    """
    raw = os.environ.get("DGRATIO_BUDGET")
    if not raw:
        return FALLBACK_NODE_BUDGET
    try:
        nodes = int(raw)
    except ValueError:
        raise ValueError(f"DGRATIO_BUDGET={raw!r} is not an integer") from None
    if nodes < 1:
        raise ValueError(f"DGRATIO_BUDGET={raw!r} must be at least 1")
    return nodes


class BudgetExceeded(Exception):
    """The search node budget ran out."""


@dataclass
class SearchBudget:
    """A limit on search-tree nodes, shared by every search it is passed to.

    A node count, not a time, so identical inputs give identical outputs
    regardless of machine speed.  `nodes` is the count spent so far; the
    node that runs the budget out is counted, so after BudgetExceeded it is
    max_nodes + 1.
    """

    max_nodes: int = field(default_factory=default_node_budget)
    nodes: int = 0

    def __post_init__(self):
        if self.max_nodes < 1:
            raise ValueError(f"node budget {self.max_nodes} must be at least 1")


def _beta(f: list[int], candidates: int) -> int:
    """Sum of f over the maximal runs of the candidate set."""
    total, b = 0, candidates
    while b:
        low = b & -b
        merged = b + low
        total += f[(b ^ merged).bit_count() - 1]
        b &= merged
    return total


def _split_runs(f: list[int], beta: int, candidates: int, removed: int) -> int:
    """_beta(f, candidates ^ removed) from beta = _beta(f, candidates), for
    removed a subset of the candidates: each removed vertex u, top down,
    splits its run into the `down` vertices below u and the up - 1 above."""
    b = candidates
    while removed:
        u = removed.bit_length() - 1
        bit = 1 << u
        removed ^= bit
        y = b >> u
        up = (y ^ (y + 1)).bit_length() - 1  # u and the run above it
        down = u - (~b & (bit - 1)).bit_length()  # the run below u
        beta += f[down] + f[up - 1] - f[up + down]
        b ^= bit
    return beta


class _Windows:
    """How densely windows of consecutive integers meet a periodic set: one
    period P holds k elements, at positions x_0 < ... < x_{k-1} in [0, P),
    and x_{t+k} = x_t + P.

    A window that holds c elements holds c consecutive ones, and sliding it
    up to its first element loses none, so the best window of m integers
    starts at some x_t and holds k * floor(m/P) elements plus those in
    [x_t, x_t + m mod P).  Equivalently, it holds c elements exactly when
    span(c) < m.
    """

    def __init__(self, witness: BlockList):
        self._period = witness.period
        self._xs = witness.positions()
        self._ext = self._xs + [x + self._period for x in self._xs]
        self._spans: dict[int, int] = {}  # span(j + 1) for 0 <= j < k, filled on first use

    def span(self, c: int) -> int:
        """min over t of x_{t+c-1} - x_t, for c >= 1 elements."""
        k = len(self._xs)
        q, j = divmod(c - 1, k)
        s = self._spans.get(j)
        if s is None:
            s = self._spans[j] = min(map(sub, self._ext[j : j + k], self._xs))
        return q * self._period + s


class AlphaTable:
    """Memoized alpha(G(S)[n]) values with the adjacency masks they need.

    interval_alpha[n] is alpha of the induced subgraph on [n]; the sequence
    satisfies a(n) <= a(n+1) <= a(n) + 1, which drives the search targets.
    Circulant prefix tables are per-call (they are useless across n).
    `proved` counts the interval steps settled without a search.
    """

    def __init__(self, distances: DistanceSet):
        self.distances = distances
        self.interval_alpha: list[int] = [0]
        self.prefix_alpha: list[int] = []  # alpha(n, i) for the latest circulant n that answered
        self.proved = 0
        self._nbr: list[int] = [0]  # _nbr[v] has bit (u-1) for u adjacent to v
        self._windows: Optional[_Windows] = None

    def adopt_witness(self, witness: BlockList) -> None:
        """Prove interval steps with the windows of `witness`, which must be
        a verified periodic independent set of G(S): each window of m
        consecutive integers of it is an independent set of G(S)[m]."""
        self._windows = _Windows(witness)

    def _extend_masks(self, n: int) -> None:
        # only neighbors below v matter: candidates shrink downward, so the
        # search never needs the v+d side (and storing it would cost memory
        # proportional to max(S) per vertex)
        for v in range(len(self._nbr), n + 1):
            m = 0
            for d in self.distances.distances:
                if v - d >= 1:
                    m |= 1 << (v - d - 1)
            self._nbr.append(m)

    def _search(
        self,
        candidates: int,
        target: int,
        nbr: list[int],
        bound: list[int],
        budget: SearchBudget,
        chosen: list[int],
        first: Optional[int] = None,
    ) -> bool:
        """Grow an independent set to `target` vertices, decreasing order.

        Depth first with an explicit stack, so the depth is not limited by
        Python's recursion limit.  Each node is counted against the budget
        when it is entered; a node that still needs `need` vertices, with
        candidate set B, is cut when beta(B) < need, where beta(B) sums the
        memoized alphas f = interval_alpha over the maximal runs of B, and
        it tries its candidates v from the top while bound[v] >= need.  On
        success `chosen` holds the vertices of the set, largest first.

        A child's beta is cut against only when its popcount p leaves the
        cut open.  Every run of r candidates adds f[r], which lies between
        alpha(r) and r, and alpha is subadditive over intervals, so
        f[p] <= beta(B) <= p: p < k rejects and f[p] >= k accepts exactly
        where the beta test would.  A child holds fewer candidates than the
        table's top index, so f[p] never reads the sentinel of an interval
        step.

        Each stack frame carries beta of its untried candidates `rest`, or
        None while it is unknown: the root scans its runs, and a child the
        popcount cuts accepted starts unknown.  While known, taking the top
        candidate shortens only the top run.  An open child scans `rest` at
        most once (it then stays known for the remaining siblings), and
        _split_runs builds the child's beta from it: each neighbour of v
        the child loses splits one run in two.  The cuts, and so the node
        order and counts, are those of a full scan of every child.

        An interval search (bound is interval_alpha) also stops trying
        candidates once beta of its untried ones falls below need, as
        Ostergard's loop re-tests its bound each time it uses a candidate
        up: a node that takes v while its rest can no longer reach need
        keeps no rest, so it fails as soon as the child that takes v does.
        A carried beta, or f[p] <= beta(rest) <= p for p = popcount(rest),
        settles nearly all of these tests (rest, too, is narrower than the
        table); only the others scan rest, once, and carry its beta.  The
        cut is exact, so every interval value stays the same; circulant
        searches keep no such cut, as a cut there moves a budget-bound
        search's nodes into costlier late rounds.

        A forced search (`first` given, the mask of vertex 1's neighbours)
        wants one vertex more than the vertices above vertex 1 can hold, so
        every answer takes vertex 1 and none of `first`.  It drops a child
        whose candidates have lost vertex 1 (bit 0), or hold fewer vertices
        outside `first` than the child needs.  A dropped subtree holds no
        answer, so the search finds what it finds without the cut, and the
        same first answer in depth-first order; only node counts fall.  The
        tests sit in the interval cut's branch, which a search that is
        neither interval nor forced skips with one test per child.
        """
        f = self.interval_alpha
        if candidates.bit_length() >= len(f):
            raise ValueError(f"{candidates.bit_length()} candidates exceed the table's {len(f) - 1} intervals")
        interval = bound is f
        forced = first is not None
        cut = interval or forced
        keep = candidates & ~first if forced else 0  # vertex 1 and its non-neighbours
        nodes, limit = budget.nodes, budget.max_nodes
        try:
            nodes += 1
            if nodes > limit:
                raise BudgetExceeded(f"node budget {limit} exhausted")
            need = target
            if need == 0:
                return True
            rest = candidates  # candidates this node has not tried yet
            beta = _beta(f, rest)  # beta(rest), or None while unknown
            if beta < need:
                return False
            parents = []  # (rest, beta) of every node above this one
            while True:
                v = rest.bit_length()
                if bound[v] >= need:  # no candidates left (v == 0) fails too: bound[0] == 0
                    top = 1 << (v - 1)
                    if beta is not None:  # the top run loses its top vertex
                        r = v - (~rest & (top - 1)).bit_length()
                        beta += f[r - 1] - f[r]
                    rest ^= top
                    nodes += 1  # the child that takes v
                    if nodes > limit:
                        raise BudgetExceeded(f"node budget {limit} exhausted")
                    if need == 1:
                        chosen.append(v)
                        return True
                    hits = rest & nbr[v]  # the neighbours of v the child loses
                    below = rest ^ hits
                    k = need - 1
                    if cut:  # an interval or forced search; regular circulant rounds skip both tests
                        if interval:  # the node keeps no rest once beta(rest) < need
                            if beta is None:
                                p = rest.bit_count()
                                if p < need:  # beta(rest) <= p
                                    rest = 0
                                elif f[p] < need:
                                    beta = _beta(f, rest)
                            if beta is not None and beta < need:
                                rest = 0
                        if forced and (not below & 1 or (below & keep).bit_count() < k):
                            continue  # the child lost vertex 1, or has too few vertices it may keep beside it
                    pc = below.bit_count()
                    if pc < k:
                        continue
                    if f[pc] < k:
                        taken = below | hits  # the rest before the cut above
                        if beta is None:
                            beta = _beta(f, taken)
                        child = _split_runs(f, beta, taken, hits)
                        if child < k:
                            continue
                    else:
                        child = None
                    parents.append((rest, beta))
                    chosen.append(v)
                    rest, beta, need = below, child, k
                elif parents:  # this node fails; back up to its parent
                    rest, beta = parents.pop()
                    chosen.pop()
                    need += 1
                else:
                    return False
        finally:
            budget.nodes = nodes

    def ensure_interval(self, n: int, budget: SearchBudget) -> None:
        """Fill interval_alpha up to n, proving each step before searching it.

        a(m) is a(m-1) or a(m-1) + 1.  Subadditivity, a(m) <= a(j) + a(m-j),
        proves a(m) = a(m-1) when some 2 <= j <= m/2 gives a(j) + a(m-j) <=
        a(m-1) (j = 1 never does, as a(1) = 1); the adopted witness proves
        a(m) = a(m-1) + 1 when one of its windows of m integers holds that
        many elements.  Only a step neither proof settles is searched, and
        that search forces vertex 1 (AlphaTable._search): [2..m] is a
        translate of [1..m-1], so a set of a(m-1) + 1 vertices takes it.
        """
        self._extend_masks(n + 1)
        iv = self.interval_alpha
        while len(iv) <= n:
            m = len(iv)
            a = iv[m - 1]
            h = m // 2
            if h >= 2 and min(map(add, iv[2 : h + 1], iv[m - 2 : m - h - 1 : -1])) <= a:
                iv.append(a)
                self.proved += 1
                continue
            target = a + 1
            if self._windows is not None and self._windows.span(target) < m:
                iv.append(target)
                self.proved += 1
                continue
            iv.append(target)  # sentinel: a(m) <= a(m-1) + 1 keeps prunes sound
            chosen: list[int] = []
            first = sum(1 << d for d in self.distances.distances if d < m)  # vertex 1 + d is bit d
            try:
                found = self._search((1 << m) - 1, target, self._nbr, iv, budget, chosen, first)
            except BudgetExceeded:
                iv.pop()
                raise
            iv[m] = target if found else a


def alpha_interval(distances: DistanceSet, n: int, table: AlphaTable, budget: Optional[SearchBudget] = None) -> int:
    """alpha(G(S)[n]); fills the table incrementally up to n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if table.distances.distances != distances.distances:
        raise ValueError("table was built for a different distance set")
    budget = budget or SearchBudget()
    table.ensure_interval(n, budget)
    return table.interval_alpha[n]


def _circulant_masks(distances: DistanceSet, n: int) -> list[int]:
    nbr = [0] * (n + 1)
    for v in range(1, n + 1):
        m = 0
        for d in distances.distances:
            for u in ((v - 1 + d) % n, (v - 1 - d) % n):
                m |= 1 << u
        m &= ~(1 << (v - 1))
        nbr[v] = m
    return nbr


def _alpha_circulant_solution(
    distances: DistanceSet, n: int, table: AlphaTable, budget: SearchBudget, need: int, forced: bool = False
) -> Optional[tuple[int, list[int]]]:
    """alpha(G(n,S)) with one maximum independent set as witness, or None
    when alpha(G(n,S)) < need (need = 0 always answers).

    The vertices i+1..n of Z_n induce a supergraph of G(S)[n-i], so
    alpha(G(n,S)) <= prefix[i] + alpha(G(S)[n-i]), and prefix[i] is at most
    prefix[i-1] + 1: the round is cut before prefix i when that sum is
    below need, and a round that ends below need recovers no set.

    With `forced`, as a jump runs it, each prefix search forces vertex 1
    (AlphaTable._search): vertices 2..i induce a translate of 1..i-1, which
    hold prefix[i-1], so a set of prefix[i-1] + 1 takes vertex 1.  The cut
    is exact, so the prefix table and the set found stay the same.  Regular
    rounds keep their node order: the cut there too saves nodes, but moves
    a budget-bound search such as {1,17,36}'s into later rounds whose
    nodes cost more, and it took longer.  The search that recovers a set
    never forces, as its target prefix[n] is not one above a prefix.
    """
    s = distances.max_element
    if n <= s:
        raise ValueError("circulant computation requires n > max(S)")
    table.ensure_interval(n, budget)
    iv = table.interval_alpha
    nbr = _circulant_masks(distances, n)
    first = nbr[1] if forced else None
    prefix = [0] * (n + 1)
    wrap_free = n - s  # prefixes this short see no wrap edges
    for i in range(1, min(wrap_free, n) + 1):
        prefix[i] = iv[i]
    solution: list[int] = []
    for i in range(wrap_free + 1, n + 1):
        if prefix[i - 1] + 1 + iv[n - i] < need:
            return None
        target = prefix[i - 1] + 1
        prefix[i] = target  # sentinel upper bound while this entry is open
        chosen: list[int] = []
        if table._search((1 << i) - 1, target, nbr, prefix, budget, chosen, first):
            prefix[i] = target
            solution = list(chosen)
        else:
            prefix[i] = prefix[i - 1]
    if prefix[n] < need:
        return None
    if len(solution) != prefix[n]:
        # the optimum was inherited from the wrap-free prefix; recover a set
        chosen = []
        if not table._search((1 << n) - 1, prefix[n], nbr, prefix, budget, chosen):
            raise AssertionError("internal error: failed to recover a maximum circulant independent set")
        solution = list(chosen)
    table.prefix_alpha = prefix  # replaced wholesale on the next n
    return prefix[n], solution


@dataclass
class RatioReport:
    """Outcome of a ratio computation: exact value or certified bounds."""

    distances: DistanceSet
    status: str  # exact | bounded
    value: Optional[Fraction]
    lower: Fraction
    upper: Fraction
    lower_witness: BlockList
    upper_witness_n: Optional[int]
    method: str  # stategraph | search | shortcut
    counters: dict
    note: Optional[str] = None

    def __post_init__(self):
        if self.lower > self.upper:
            raise AssertionError(f"internal error: bounds crossed for {self.distances}")
        if self.status == "exact" and not (self.value is not None and self.lower == self.upper == self.value):
            raise AssertionError(f"internal error: exact report for {self.distances} has unequal bounds")


def _circulant_lower(distances: DistanceSet, n: int, found: tuple[int, list[int]]) -> tuple[Fraction, BlockList]:
    """The lower bound alpha(G(n,S))/n and its verified periodic witness."""
    size, solution = found
    xs = sorted(solution)
    gaps = [b - a for a, b in zip(xs, xs[1:])]
    gaps.append(n - xs[-1] + xs[0])
    witness = BlockList(gaps)
    if not verify_periodic_independent(witness, distances).ok:
        raise AssertionError(f"internal error: circulant witness for {distances} not independent")
    return Fraction(size, n), witness


# interval rounds compute_ratio runs before it reports the bounds it has
_MAX_ROUNDS = 2000

# nodes a jump to a proper multiple kq (k >= 2) may spend before it gives up:
# such a hit finds its set at once (at most 4,258 nodes over the search
# corpus and 600 random sets within {1..30}), a miss can take a million
_MULTIPLE_JUMP_NODES = 10_000


def _circulant_jump(
    distances: DistanceSet, n: int, table: AlphaTable, budget: SearchBudget, need: int, limit: int
) -> Optional[tuple[int, list[int]]]:
    """_alpha_circulant_solution(distances, n, table, budget, need, True),
    which forces vertex 1 in each prefix search, but None once it has spent
    `limit` nodes; they count against the budget all the same, and
    BudgetExceeded still ends the search when the budget runs out first.
    The forced cut makes misses cheaper: {22,23,29} shows that Z_48 holds
    fewer than 22 vertices after 34,994 nodes, against 104,986 without it."""
    trial = SearchBudget(min(budget.max_nodes, budget.nodes + limit), budget.nodes)
    try:
        return _alpha_circulant_solution(distances, n, table, trial, need, True)
    except BudgetExceeded:
        if trial.max_nodes == budget.max_nodes:
            raise
        return None
    finally:
        budget.nodes = trial.nodes


def compute_ratio(distances: DistanceSet, budget: Optional[SearchBudget] = None) -> RatioReport:
    """Interleaved two-sided search for the independence ratio of G(S).

    Schedule: once n exceeds max(S), round n first runs the circulant on
    Z_n, which raises the lower bound only if it reaches
    need = floor(lower * n) + 1 vertices, and is cut as soon as it cannot
    (_alpha_circulant_solution); then, if the bounds still differ, it runs
    alpha of the intervals [2n-1] and [2n].  It stops when the best lower
    and upper bounds agree, so a circulant that closes the gap spares the
    round's two largest interval searches.

    The ratio is attained by a periodic set, and a set of period q has
    every period kq too, so once the upper bound reads p/q in lowest terms,
    Z_kq holding kp vertices settles it.  After the intervals of round n,
    let k be the least integer with kq > max(n, max(S)); if the bounds
    still differ, kq <= min(2n, n + max(S)) and no jump has been run for
    this upper bound, a jump runs the circulant on Z_kq with need = kp.  As
    alpha(G(kq,S))/kq <= ratio <= p/q, a hit holds exactly kp vertices and
    closes the search; need only gates the cut, which cannot fire on such
    a Z_kq, and the prefix-by-prefix search and the interval values it
    reads are those of round kq, so a hit yields the witness round kq would
    have yielded.  A miss changes no bound, but it is a whole circulant
    search that ends below kp.  The guard kq <= 2n reads only intervals the
    table holds, so loose early bounds jump no further than the table has
    grown, and kq <= n + max(S) keeps the misses few and cheap; a jump to a
    proper multiple (k >= 2) also gives up after _MULTIPLE_JUMP_NODES nodes
    (_circulant_jump), so its misses cost a search that stays bounded
    little of its budget.

    Each interval step is proved before it is searched
    (AlphaTable.ensure_interval): by subadditivity, a(j) + a(m-j) <= a(m-1)
    gives a(m) = a(m-1), and the table adopts the lower witness of each
    regular round once _circulant_lower has verified it (a jump that hits
    ends the search), so a window of m integers of that witness holding
    a(m-1) + 1 elements gives a(m) = a(m-1) + 1.  Both
    proofs are exact: every a(m), and so every cut, circulant search, bound
    and witness, is what the search alone would give, but the proved steps
    cost no nodes, so a budget that runs out does so later in the
    schedule.  interval_proved counts the steps settled without a search.
    An interval search also stops trying candidates once beta of its
    untried ones falls below its need (AlphaTable._search).  That cut is
    exact as well: it lowers only interval node counts ({21,22} closes
    after 265,655 nodes, against 806,178 without it), so a budget-bound
    search gets further for the same budget.  Each interval step and each
    prefix search of a jump asks for one vertex more than the vertices
    after vertex 1 hold, so it must take vertex 1, and it drops every child
    that loses it (AlphaTable._search).  That cut is exact too: {21,22}
    closes after 169,231 nodes, and no value, witness or upper_witness_n
    changes.  Regular circulant rounds keep their node order: with the cut,
    the budget-bound {1,17,36} spends its nodes in later, costlier rounds.

    Interval minima alone can stay strictly above the ratio forever (for
    {5,6,9}, alpha(G(S)[m]) stays one element above 4m/11 at every multiple
    of 11), so such a set stays 'bounded'.  Budget exhaustion downgrades the
    result to certified bounds (status 'bounded'), never an error.
    circulant_rounds counts the regular circulant rounds that raised the
    lower bound, circulant_cut those that could not reach need, and
    circulant_jumps the jumps to some Z_kq run, hit, miss or given up; their
    nodes count against the budget all the same.
    """
    budget = budget or SearchBudget()
    table = AlphaTable(distances)
    s = distances.max_element
    lower = Fraction(1, s + 1)
    lower_witness = BlockList([s + 1])
    upper = Fraction(1)
    upper_n: Optional[int] = None
    circulant_rounds = circulant_cut = 0
    jumped: set[Fraction] = set()  # the upper bound of every jump run; one the budget cut short is not
    exact = False
    try:
        for n in range(1, _MAX_ROUNDS + 1):
            if n > s and lower < upper:
                need = lower.numerator * n // lower.denominator + 1
                found = _alpha_circulant_solution(distances, n, table, budget, need)
                if found is None:
                    circulant_cut += 1
                else:  # at least need elements: a better lower bound
                    circulant_rounds += 1
                    lower, lower_witness = _circulant_lower(distances, n, found)
                    table.adopt_witness(lower_witness)
            if lower < upper:
                for m in (2 * n - 1, 2 * n):
                    a = alpha_interval(distances, m, table, budget)
                    r = Fraction(a, m)
                    if r < upper:
                        upper, upper_n = r, m
                k = max(n, s) // upper.denominator + 1
                kq = k * upper.denominator
                if lower < upper and kq <= min(2 * n, n + s) and upper not in jumped:
                    limit = budget.max_nodes if k == 1 else _MULTIPLE_JUMP_NODES
                    found = _circulant_jump(distances, kq, table, budget, k * upper.numerator, limit)
                    jumped.add(upper)
                    if found is not None:  # alpha(Z_kq)/kq <= ratio <= upper: exactly upper
                        lower, lower_witness = _circulant_lower(distances, kq, found)
            if lower == upper:
                exact = True
                break
    except BudgetExceeded:
        pass
    counters = {
        "nodes": budget.nodes,
        "interval_max_n": len(table.interval_alpha) - 1,
        "interval_proved": table.proved,
        "circulant_rounds": circulant_rounds,
        "circulant_cut": circulant_cut,
        "circulant_jumps": len(jumped),
    }
    return RatioReport(
        distances=distances,
        status="exact" if exact else "bounded",
        value=lower if exact else None,
        lower=lower,
        upper=upper,
        lower_witness=lower_witness,
        upper_witness_n=upper_n,
        method="search",
        counters=counters,
    )
