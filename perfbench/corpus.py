"""Seeded question corpora, one per workload, drawn from fixed regime pools.

A pool is a list of strata; each stratum lists alternatives of similar cost
and how many of them one sweep asks.  The seed picks the alternatives, a
scale factor for every independence question (the ratio of d*S equals that
of S, so the engines see the same reduced set) and the order of the sweep.
Drawing per stratum keeps the cost of a sweep, and the order statistics of
its question times, nearly the same for every seed.

Pool membership is judged on the reduced set (gcd divided out) with the
benchmark's own gap-state count, never with the package: a pool member that
left its regime would make the workload measure a different engine, so
building the corpus fails instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from math import gcd
from typing import Iterable

import numpy as np

WORKLOADS = ("catalog", "gap-large", "search", "windows")

# Regime limits at which the program's defaults switch engines; they define
# the workloads and stay fixed when the program's own caps change.
GAP_MAX_ELEMENT = 22
GAP_MAX_STATES = 400_000
GAP_LARGE_MIN_ELEMENT = 18
GAP_LARGE_MIN_STATES = 10_000
DOMINATION_MAX_ELEMENT = 4
IDENTIFYING_MAX_WINDOW = 12

SCALES = (1, 2, 3)
TABLE_ARGV = ("table", "--k", "1..10", "--i", "1..12")


@dataclass(frozen=True)
class Question:
    """One call to one public entry point.

    kind is cli | independence | domination | identifying | coloring.  For
    cli, args is the argv; otherwise args[0] is the distance set asked
    about, followed by the radius (identifying) or color count (coloring).
    """

    kind: str
    args: tuple

    @property
    def label(self) -> str:
        if self.kind == "cli":
            return " ".join(self.args)
        text = "{" + ",".join(map(str, self.args[0])) + "}"
        if self.kind == "identifying":
            return f"idcode {text} r={self.args[1]}"
        if self.kind == "coloring":
            return f"coloring {text} k={self.args[1]}"
        if self.kind == "domination":
            return f"domination {text}"
        return text


# ---------------------------------------------------------------------------
# Reduced sets and the gap-state count
# ---------------------------------------------------------------------------


def reduce_set(distances: Iterable[int]) -> tuple[tuple[int, ...], int]:
    ds = tuple(sorted(set(distances)))
    g = reduce(gcd, ds)
    return tuple(d // g for d in ds), g


def all_odd(distances: Iterable[int]) -> bool:
    return all(d % 2 for d in distances)


def gap_state_count(distances: Iterable[int], chunk_bits: int = 18) -> int:
    """Number of S-independent subsets of [0, max(S)) that contain 0.

    These are exactly the reachable states of the gap engine on S.  Counted
    over 2^(max(S)-1) bitmasks in chunks, so memory stays a few MB.
    """
    ds = sorted(set(distances))
    s = ds[-1]
    total_masks = 1 << (s - 1)
    chunk = 1 << chunk_bits
    count = 0
    for lo in range(0, total_masks, chunk):
        m = (np.arange(lo, min(total_masks, lo + chunk), dtype=np.int64) << 1) | 1
        ok = np.ones(len(m), dtype=bool)
        for d in ds:
            if d < s:
                ok &= (m & (m >> d)) == 0
        count += int(np.count_nonzero(ok))
    return count


def independence_regime(distances: Iterable[int]) -> str:
    """shortcut | stategraph | search, as the default pipeline would route."""
    reduced, _ = reduce_set(distances)
    if all_odd(reduced):
        return "shortcut"
    if reduced[-1] > GAP_MAX_ELEMENT or gap_state_count(reduced) > GAP_MAX_STATES:
        return "search"
    return "stategraph"


def _in_gap_large(reduced: tuple[int, ...]) -> bool:
    if all_odd(reduced) or not GAP_LARGE_MIN_ELEMENT <= reduced[-1] <= GAP_MAX_ELEMENT:
        return False
    return GAP_LARGE_MIN_STATES <= gap_state_count(reduced) <= GAP_MAX_STATES


# ---------------------------------------------------------------------------
# Catalog: verify windows over cheap theorem families
# ---------------------------------------------------------------------------

# family id -> (parameter names, set builder, domain, window starts).  The
# builders restate the family definitions so that the benchmark can judge
# each point's regime and count points without asking the package.
VERIFY_FAMILIES: dict[str, tuple] = {
    "1-4-k": (("k",), lambda p: (1, 4, p["k"]), lambda p: p["k"] > 4, range(5, 19)),
    "1-3-2i": (("i",), lambda p: (1, 3, 2 * p["i"]), lambda p: p["i"] >= 2, range(2, 10)),
    "1-2-3k": (("k",), lambda p: (1, 2, 3 * p["k"]), lambda p: p["k"] >= 1, range(1, 6)),
    "two-generators": (
        ("a", "b"),
        lambda p: (p["a"], p["b"]),
        lambda p: 1 <= p["a"] < p["b"] and gcd(p["a"], p["b"]) == 1,
        range(1, 13),
    ),
    # every other window: six rungs of equal-work pairs from 0.6k to 3.8k
    # points' cost
    "1-k-kp1": (("k",), lambda p: (1, p["k"], p["k"] + 1), lambda p: p["k"] >= 2, range(5, 16, 2)),
    "1-k-kp3": (("k",), lambda p: (1, p["k"], p["k"] + 3), lambda p: p["k"] >= 3, range(3, 14, 2)),
    "1-5-2i": (("i",), lambda p: (1, 5, 2 * p["i"]), lambda p: p["i"] >= 5, range(5, 10)),
    "consecutive": (("l",), lambda p: tuple(range(1, p["l"] + 1)), lambda p: p["l"] >= 1, range(1, 11)),
    "all-odd": (("k",), lambda p: (1, 2 * p["k"] + 1, 2 * p["k"] + 3), lambda p: p["k"] >= 1, range(1, 9)),
}
VERIFY_WIDTH = 3  # parameter values per verify command
# asked in every sweep besides the drawn ones: with it a sweep asks 12 verify
# commands and one table, and the median question, the 7th of 13, is the
# 7.1 ms rung of `1-k-kp1`/`1-k-kp3` for every seed, between the 4.7-5.2 ms
# rung and `1-5-2i 5..7` (9 ms); this one takes 21 ms
VERIFY_FIXED = [("1-4-k", 15)]


def verify_points(family: str, lo: int, hi: int) -> list[tuple[int, ...]]:
    """Distance sets of the in-domain points of `verify --range lo..hi`."""
    names, build, domain, _ = VERIFY_FAMILIES[family]
    points: list[dict] = [{}]
    for name in names:
        points = [dict(p, **{name: v}) for p in points for v in range(lo, hi + 1)]
    return [tuple(sorted(set(build(p)))) for p in points if domain(p)]


def _verify_cost(points: list[tuple[int, ...]]) -> int:
    # per-call overhead dominates small graphs; state count the large ones
    cost = 0
    for pts in points:
        reduced, _ = reduce_set(pts)
        cost += 200 if all_odd(reduced) else 200 + gap_state_count(reduced)
    return cost


def _verify_question(family: str, lo: int) -> Question:
    hi = lo + VERIFY_WIDTH - 1
    for pts in verify_points(family, lo, hi):
        if independence_regime(pts) == "search":
            raise ValueError(f"verify {family} {lo}..{hi}: {pts} leaves the catalog regimes")
    return Question("cli", ("verify", "--family", family, "--range", f"{lo}..{hi}"))


def _verify_strata() -> list[list[Question]]:
    """Verify commands grouped by the total cost of their points.

    Costs shared by at least two commands form the strata the seed draws
    from, so it swaps commands of equal work (for example `1-k-kp1 11..13`
    and `1-k-kp3 9..11`, or two all-odd windows) and the median question
    stays the same kind of question for every seed.  A family with no
    command in those strata is asked at its cheapest window, and the
    VERIFY_FIXED commands are asked as well.
    """
    groups: dict[int, list[Question]] = {}
    cheapest: dict[str, tuple[int, Question]] = {}
    for family, (_, _, _, starts) in VERIFY_FAMILIES.items():
        for lo in starts:
            hi = lo + VERIFY_WIDTH - 1
            points = verify_points(family, lo, hi)
            if not points:
                continue
            q = _verify_question(family, lo)
            cost = _verify_cost(points)
            groups.setdefault(cost, []).append(q)
            cheapest[family] = min(cheapest.get(family, (cost, q)), (cost, q), key=lambda t: t[0])
    strata = [groups[cost] for cost in sorted(groups) if len(groups[cost]) > 1]
    covered = {q.args[2] for stratum in strata for q in stratum}
    strata += [[q] for family, (_, q) in cheapest.items() if family not in covered]
    return strata + [[_verify_question(family, lo)] for family, lo in VERIFY_FIXED]


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------

# gap-large: two-generator sets whose gap graph has 11.7k-131k states.  Each
# stratum groups sets of near-equal build-plus-Howard time (0.22-0.26 s,
# 0.39-0.48 s, 1.1 s, 1.2-1.35 s on a 2.1 GHz Xeon; {18,19}, 131k states,
# 1.9 s), so the sweep time barely depends on the seed.  A sweep asks 11
# questions: three light ones, all five of 0.39-0.48 s and three heavy ones,
# so the median question, the 6th of 11, is the middle one of the five for
# every seed.  {18,19} is in every sweep, so every seed has the same peak
# memory.
GAP_LARGE_STRATA = [
    (3, [(11, 18), (8, 19), (2, 21), (10, 19)]),
    (5, [(4, 21), (1, 22), (7, 20), (13, 18), (12, 19)]),
    (1, [(5, 22), (8, 21), (10, 21), (7, 22)]),
    (1, [(17, 18), (13, 20)]),
    (1, [(18, 19)]),
]

# search: the cap-abandoned builds, one set that exhausts the default node
# budget and two sets past the element cap, at a seeded scale; then 35 light
# sets past the element cap, spread over 0.4k-55k search nodes, each asked at
# every scale.  One sweep takes about 20 s, so a run makes one; the light
# questions give it 110 samples, and repeating the same reduced sets keeps
# the median question the same for every seed.
SEARCH_FIXED = [(19, 22), (21, 22), (1, 17, 36), (2, 5, 24), (1, 10, 31)]
SEARCH_LIGHT = [
    (1, 2, 25), (1, 4, 32), (1, 4, 26), (2, 33), (2, 5, 23), (3, 10, 25), (5, 14, 23), (5, 8, 24),
    (3, 24, 25), (5, 6, 25), (1, 10, 25), (2, 6, 37), (4, 7, 23), (5, 17, 28), (5, 6, 24),
    (2, 10, 29), (9, 12, 23), (5, 6, 36), (7, 15, 26), (2, 23, 28), (2, 15, 23), (9, 19, 24),
    (8, 17, 23), (1, 23, 36), (11, 20, 25), (4, 19, 29), (1, 18, 29), (2, 25, 38), (4, 12, 29),
    (9, 17, 30), (3, 14, 23), (8, 17, 35), (4, 17, 27), (10, 11, 29), (7, 10, 39),
]

# windows: a sweep asks 21 questions: nine of at most 4.1 ms (the refused
# colorings, the first two domination strata, idcode {1} r=1 and the first
# two coloring strata), the 8.2 ms coloring {1,2,3,6} k=4 three times, and
# nine of 11 ms to 1.4 s.  The median question, the 11th of 21, is therefore
# that coloring for every seed, its neighbours are at least 30% away, and
# the median of a run is the middle one of its 18 or so asks.
WINDOWS_MEDIAN = ((1, 2, 3, 6), 4)
WINDOWS_MEDIAN_ASKS = 3
DOMINATION_STRATA = [
    (1, [(1,), (2,), (1, 2)]),
    (2, [(1, 3), (2, 3)]),
    (3, [(2, 4), (3, 4), (1, 4), (1, 2, 4), (1, 3, 4), (2, 3, 4)]),
    (1, [(1, 2, 3, 4)]),
]
# Only four identifying-code questions fit the window cap; all are asked.
IDENTIFYING_FIXED = [((1,), 1), ((2,), 1), ((1, 2), 1), ((1,), 2)]
COLORING_STRATA = [
    (1, [((1, 2), 3), ((1, 3), 2), ((1, 2, 4), 3), ((1, 3, 4), 3), ((1, 3, 5, 7), 2), ((1, 4), 3),
         ((2, 3, 5), 3)]),
    (2, [((1, 2, 4), 4), ((1, 5), 3), ((1, 2, 3, 5), 4), ((1, 3, 6), 3)]),
    (1, [((2, 5, 6), 3), ((1, 2, 5), 4), ((1, 2, 3, 4), 5), ((1, 2, 3, 4, 5), 5)]),
    (1, [((1, 2, 6), 4), ((1, 2, 3, 5), 5)]),
    # refused by the raw k^s state cap although few proper windows exist;
    # they count as failed questions until the cap is fixed
    (1, [((1, 2, 3, 4, 5), 6), ((1, 2, 3, 4, 5), 7)]),
    (1, [((1, 2, 3, 4, 5, 6), 7), ((1, 2, 3, 4, 5, 6), 8)]),
]


def _pick(rng: random.Random, strata: list) -> list:
    out = []
    for picks, alternatives in strata:
        out.extend(rng.sample(alternatives, picks))
    return out


def _scaled(rng: random.Random, reduced: tuple[int, ...]) -> Question:
    d = rng.choice(SCALES)
    return Question("independence", (tuple(d * x for x in reduced),))


def _check_membership(workload: str, questions: list[Question]) -> None:
    for q in questions:
        if q.kind == "independence":
            reduced, _ = reduce_set(q.args[0])
            ok = _in_gap_large(reduced) if workload == "gap-large" else independence_regime(reduced) == "search"
        elif q.kind == "domination":
            ok = max(q.args[0]) <= DOMINATION_MAX_ELEMENT
        elif q.kind == "identifying":
            ok = 6 * max(q.args[0]) * q.args[1] <= IDENTIFYING_MAX_WINDOW
        else:
            ok = True
        if not ok:
            raise ValueError(f"{q.label} is outside the {workload} regime")


def build_corpus(workload: str, seed: int) -> list[Question]:
    """The ordered questions of one sweep of `workload` for `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "catalog":
        questions = [Question("cli", TABLE_ARGV)] + [rng.choice(s) for s in _verify_strata()]
    elif workload == "gap-large":
        questions = [_scaled(rng, r) for r in _pick(rng, GAP_LARGE_STRATA)]
    elif workload == "search":
        questions = [_scaled(rng, r) for r in SEARCH_FIXED]
        questions += [Question("independence", (tuple(d * x for x in r),)) for r in SEARCH_LIGHT for d in SCALES]
    else:
        questions = [Question("domination", (s,)) for s in _pick(rng, DOMINATION_STRATA)]
        questions += [Question("identifying", (s, r)) for s, r in IDENTIFYING_FIXED]
        questions += [Question("coloring", (s, k)) for s, k in _pick(rng, COLORING_STRATA)]
        questions += [Question("coloring", WINDOWS_MEDIAN)] * WINDOWS_MEDIAN_ASKS
    _check_membership(workload, questions)
    rng.shuffle(questions)
    return questions
