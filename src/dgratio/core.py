"""Exact domain types for periodic subsets of the integers.

A distance set S generates the graph G(S) on the integers, with an edge
between i and j whenever |i - j| is in S.  Periodic subsets of the integers
are described by their gap ("block") structure: the list of differences
between consecutive elements, repeated forever in both directions.  All
densities are exact rationals; no floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional

DEFAULT_EXPANSION_CAP = 10**6


class BlockSyntaxError(ValueError):
    """Raised for malformed block notation; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExpansionLimitError(RuntimeError):
    """Raised when block notation would expand past the block cap."""

    def __init__(self, needed: int, cap: int):
        super().__init__(f"expansion needs {needed} blocks, cap is {cap}")
        self.needed = needed
        self.cap = cap


@dataclass(frozen=True)
class DistanceSet:
    """A finite set of distinct positive integer distances, kept sorted."""

    distances: tuple[int, ...]

    def __init__(self, distances: Iterable[int]):
        ds = tuple(sorted({int(d) for d in distances}))
        if not ds:
            raise ValueError("distance set must be nonempty")
        if ds[0] < 1:
            raise ValueError(f"distances must be positive, got {ds[0]}")
        object.__setattr__(self, "distances", ds)

    @classmethod
    def parse(cls, text: str) -> "DistanceSet":
        """Parse a comma-separated list such as '1,4,7'."""
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise ValueError("empty distance set")
        try:
            return cls(int(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"bad distance set {text!r}: {exc}") from None

    @property
    def max_element(self) -> int:
        return self.distances[-1]

    @property
    def divisor(self) -> int:
        g = 0
        for d in self.distances:
            g = gcd(g, d)
        return g

    def is_all_odd(self) -> bool:
        return all(d % 2 == 1 for d in self.distances)

    def scaled(self, d: int) -> "DistanceSet":
        if d < 1:
            raise ValueError("scale factor must be positive")
        return DistanceSet(x * d for x in self.distances)

    def __contains__(self, value: int) -> bool:
        return value in set(self.distances)

    def __iter__(self):
        return iter(self.distances)

    def __len__(self) -> int:
        return len(self.distances)

    def __str__(self) -> str:
        return "{" + ",".join(str(d) for d in self.distances) + "}"


@dataclass(frozen=True)
class NormalizedSet:
    """A distance set with its gcd factored out (densities are invariant)."""

    reduced: DistanceSet
    divisor: int
    all_odd: bool


def normalize(distances: DistanceSet) -> NormalizedSet:
    """Factor out gcd(S); flag reduced sets with only odd elements.

    The independence ratio satisfies alpha-bar(S) = alpha-bar(S/d), and an
    all-odd reduced set has ratio 1/2 (the even integers are independent).
    """
    d = distances.divisor
    reduced = DistanceSet(x // d for x in distances.distances)
    return NormalizedSet(reduced=reduced, divisor=d, all_odd=reduced.is_all_odd())


def power_distance_set(distances: DistanceSet, r: int) -> DistanceSet:
    """Distance set of the r-th graph power of G(S).

    Two integers are within graph distance r exactly when their difference
    is a sum of t <= r signed generators; only positive values are kept.
    """
    if r < 1:
        raise ValueError("power must be >= 1")
    reach = {0}
    positive: set[int] = set()
    for _ in range(r):
        nxt = set()
        for x in reach:
            for s in distances:
                nxt.add(x + s)
                nxt.add(x - s)
        reach = nxt
        positive.update(v for v in reach if v > 0)
    return DistanceSet(positive)


# ---------------------------------------------------------------------------
# Block notation
#
# Grammar (terms separated by whitespace, exponents bind tightly):
#   structure := term (WS term)*
#   term      := INT | INT '^' INT | '(' structure ')' '^' INT
#   INT       := [1-9][0-9]*
# ---------------------------------------------------------------------------


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "(":
            tokens.append(("LP", None, i))
            i += 1
        elif c == ")":
            tokens.append(("RP", None, i))
            i += 1
        elif c == "^":
            tokens.append(("CARET", None, i))
            i += 1
        elif c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            lexeme = text[i:j]
            if lexeme[0] == "0":
                raise BlockSyntaxError("integers must be positive without leading zeros", i)
            tokens.append(("INT", int(lexeme), i))
            i = j
        else:
            raise BlockSyntaxError(f"unexpected character {c!r}", i)
    return tokens


def parse_block_notation(text: str, cap: int = DEFAULT_EXPANSION_CAP) -> BlockList:
    """Parse block notation such as '(2 3)^5 7 (3 4)^2' into its block list.

    Every group counts its blocks before it builds them: a repeat multiplies
    the count first and builds its blocks only when that count is within
    `cap`.  Past the cap the parse goes on and only counts, so a syntax error
    later in the text is still reported first; otherwise
    ExpansionLimitError carries the full count.  Open groups live on an
    explicit stack, so nesting depth is not limited by Python's recursion
    limit.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise BlockSyntaxError("empty block notation", 0)
    tokens.append(("EOF", None, len(text)))
    pos = 0

    def take(kind: str, what: str):
        nonlocal pos
        tok = tokens[pos]
        if tok[0] != kind:
            raise BlockSyntaxError(f"expected {what}", tok[2])
        pos += 1
        return tok[1]

    # one [count, blocks] per open group, the whole text at the bottom;
    # blocks is complete only while count <= cap
    groups: list[list] = [[0, []]]

    def add(count: int, blocks: list[int]) -> None:
        group = groups[-1]
        group[0] += count
        if group[0] <= cap:
            group[1].extend(blocks)

    opened = False  # the current group has no term yet
    while True:
        kind, value, offset = tokens[pos]
        nested = len(groups) > 1
        if opened and kind in ("RP", "EOF"):
            raise BlockSyntaxError("empty group", offset)
        opened = False
        if kind == "INT":
            pos += 1
            if tokens[pos][0] == "CARET":
                pos += 1
                exp = take("INT", "exponent")
                add(exp, [value] * exp if exp <= cap else [])
            else:
                add(1, [value])
        elif kind == "LP":
            pos += 1
            groups.append([0, []])
            opened = True
        elif kind == "RP" and nested:
            pos += 1
            take("CARET", "'^' after ')'")
            exp = take("INT", "exponent")
            count, body = groups.pop()
            count *= exp
            add(count, body * exp if count <= cap else [])
        elif kind == "EOF" and nested:
            raise BlockSyntaxError("expected ')'", offset)
        elif kind == "EOF":
            break
        else:
            raise BlockSyntaxError("expected block size or '('", offset)

    count, sizes = groups[0]
    if count > cap:
        raise ExpansionLimitError(count, cap)
    return BlockList(sizes)


@dataclass(frozen=True)
class BlockList:
    """Flat list of block sizes describing one period of a periodic set."""

    sizes: tuple[int, ...]

    def __init__(self, sizes: Iterable[int]):
        ss = tuple(int(s) for s in sizes)
        if not ss:
            raise ValueError("block list must be nonempty")
        if min(ss) < 1:
            raise ValueError("block sizes must be positive")
        object.__setattr__(self, "sizes", ss)

    @property
    def period(self) -> int:
        return sum(self.sizes)

    @property
    def count(self) -> int:
        return len(self.sizes)

    def density(self) -> Fraction:
        return Fraction(self.count, self.period)

    def positions(self) -> list[int]:
        """Element positions of one period, anchored at 0."""
        out = []
        x = 0
        for s in self.sizes:
            out.append(x)
            x += s
        return out

    def notation(self) -> str:
        """Render the sizes compactly, run-length encoding repeats."""
        parts = []
        i = 0
        ss = self.sizes
        while i < len(ss):
            j = i
            while j < len(ss) and ss[j] == ss[i]:
                j += 1
            run = j - i
            parts.append(f"{ss[i]}^{run}" if run > 1 else str(ss[i]))
            i = j
        return " ".join(parts)

    def __str__(self) -> str:
        return self.notation()


@dataclass(frozen=True)
class IndependenceVerdict:
    ok: bool
    violation: Optional[tuple[int, int]] = None

    @property
    def distance(self) -> Optional[int]:
        if self.violation is None:
            return None
        return self.violation[1] - self.violation[0]

    def __bool__(self) -> bool:
        return self.ok


def verify_periodic_independent(blocks: BlockList, distances: DistanceSet) -> IndependenceVerdict:
    """Check that the periodic set given by `blocks` is independent in G(S).

    The set is one period's positions repeated with that period, so it holds
    u and u + d exactly when u and (u + d) mod period are both positions of
    the first period.  The violation reported is the first such u, with its
    smallest d in S, as the pair (u, u + d).  The work is |positions| * |S|
    lookups, independent of max(S).
    """
    period = blocks.period
    members = blocks.positions()
    residues = set(members)
    for u in members:
        for d in distances.distances:
            if (u + d) % period in residues:
                return IndependenceVerdict(ok=False, violation=(u, u + d))
    return IndependenceVerdict(ok=True)
