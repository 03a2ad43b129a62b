"""Catalog of closed-form independence ratios with a verification harness.

Each family pairs a parameterized distance set with its known exact value,
conjectured value, or proven bound, dispatched by residue classes where
applicable, plus (where a periodic witness is known) a block list whose
density attains the stated value.  Kinds are tagged faithfully: conjectured
formulas are never reported as theorems, and a verification mismatch is a
failure only for proven statements.

A family states its set once, in its set builder: matching decodes candidate
parameters from the sorted elements and keeps them only inside the domain
and when they rebuild the set, at O(|S|) cost per family.  closed_form
settles every all-odd set by the parity theorem before it asks the families.

The seven one-parameter families whose answer depends on k mod m (1-4-k,
1-k-kp1, 1-k-kp3, 1-6-k, 1-8-k, 1-k-kp5, 1-k-kp7) hold it as a ResidueRule:
per class, the value (a k + b)/(c k + d) and a block pattern of the witness,
read by one evaluator, so rules compare as plain data.

Residue tables are transcribed literally; the few places where a printed
extremal structure disagrees with its own stated density use a corrected
block list that is machine-verified against the value (the tests cross-check
every witness by independence and exact density).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Optional

from .core import BlockList, DistanceSet, verify_periodic_independent
from .ratio import independence_ratio
from .search import RatioReport, SearchBudget

THEOREM = "theorem"
CONJECTURE = "conjecture"
LOWER = "lower_bound"
UPPER = "upper_bound"
LIMIT = "limit"


class UnknownFamilyError(KeyError):
    pass


def _bs(*parts) -> BlockList:
    """Assemble a block list from ints and ([sizes], exponent) groups.

    Groups with exponent zero add nothing; an overall empty list is an
    error (callers guard their parameter ranges).
    """
    sizes: list[int] = []
    for part in parts:
        if isinstance(part, int):
            sizes.append(part)
        else:
            body, exp = part
            sizes.extend(body * exp)
    return BlockList(sizes)


@dataclass(frozen=True)
class Family:
    """One parameterized family: set builder, value rule, witness, decoder.

    decode reads candidate parameters off a set's sorted elements; match keeps
    them only in the domain and when set_builder rebuilds the set."""

    id: str
    kind: str
    description: str
    parameters: tuple[str, ...]
    set_builder: Callable[[dict], DistanceSet]
    domain: Callable[[dict], bool]
    value_rule: Optional[Callable[[dict], Fraction]] = None
    witness_builder: Optional[Callable[[dict], Optional[BlockList]]] = None
    decode: Optional[Callable[[tuple[int, ...]], Optional[dict]]] = None
    strict: bool = False  # bound families: paper states a strict inequality
    findings_only: bool = False  # mismatches are findings, never failures

    def in_domain(self, params: dict) -> bool:
        return self.domain(params)

    def build_set(self, params: dict) -> DistanceSet:
        return self.set_builder(params)

    def predicted(self, params: dict) -> Optional[Fraction]:
        if self.value_rule is None:
            return None
        return self.value_rule(params)

    def witness(self, params: dict) -> Optional[BlockList]:
        if self.witness_builder is None:
            return None
        return self.witness_builder(params)

    def match(self, distances: DistanceSet) -> Optional[dict]:
        """The in-domain parameters whose set is `distances`, or None."""
        if self.decode is None:
            return None
        params = self.decode(distances.distances)
        if params is None or not self.domain(params) or self.set_builder(params) != distances:
            return None
        return params

    def sweep(self, lo: int, hi: int) -> list[dict]:
        """All in-domain parameter points with every parameter in [lo, hi]."""
        points: list[dict] = [{}]
        for name in self.parameters:
            points = [dict(p, **{name: v}) for p in points for v in range(lo, hi + 1)]
        return [p for p in points if self.domain(p)]

    def catalog_entry(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "parameters": list(self.parameters),
            "description": self.description,
        }


def _least_missing(t: tuple[int, ...]) -> int:
    """The least positive integer that is not in the sorted tuple t."""
    return next((j for j, x in enumerate(t, 1) if x != j), len(t) + 1)


@dataclass(frozen=True)
class ResidueRule:
    """A rule in one parameter k by its residue r = k mod modulus.

    values[r] = (a, b, c, d) gives the value (a k + b)/(c k + d).  witnesses[r]
    is a block pattern: an int is one block, and a pair (body, j) is body
    repeated k // modulus + j times.  A negative repeat means the class has
    no witness at that k.  A rule is plain data, so two rules agree exactly
    when they compare equal."""

    modulus: int
    values: tuple[tuple[int, int, int, int], ...]
    witnesses: Optional[tuple] = None

    def value(self, params: dict) -> Fraction:
        k = params["k"]
        a, b, c, d = self.values[k % self.modulus]
        return Fraction(a * k + b, c * k + d)

    def witness(self, params: dict) -> Optional[BlockList]:
        if self.witnesses is None:
            return None
        q, r = divmod(params["k"], self.modulus)
        parts = [p if isinstance(p, int) else (p[0], q + p[1]) for p in self.witnesses[r]]
        if any(not isinstance(p, int) and p[1] < 0 for p in parts):
            return None
        return _bs(*parts)


def _residue_family(family_id, kind, description, elements, domain, decode, rule) -> Family:
    """A family in k whose set is elements(k) and whose value and witness are rule's."""
    return Family(family_id, kind, description, ("k",), lambda p: DistanceSet(elements(p["k"])),
                  domain, rule.value, rule.witness, decode=decode)


# ---------------------------------------------------------------------------
# Theorem families
# ---------------------------------------------------------------------------


def _family_all_odd() -> Family:
    return Family(
        id="all-odd",
        kind=THEOREM,
        description="every generator odd: ratio 1/2 (even integers)",
        parameters=("k",),
        set_builder=lambda p: DistanceSet([1, 2 * p["k"] + 1, 2 * p["k"] + 3]),
        domain=lambda p: p["k"] >= 1,
        value_rule=lambda p: Fraction(1, 2),
        witness_builder=lambda p: _bs(2),
        decode=lambda t: {"k": (t[-1] - 3) // 2},
    )


def _family_consecutive() -> Family:
    return Family(
        id="consecutive",
        kind=THEOREM,
        description="{1,...,l}: ratio 1/(l+1)",
        parameters=("l",),
        set_builder=lambda p: DistanceSet(range(1, p["l"] + 1)),
        domain=lambda p: p["l"] >= 1,
        value_rule=lambda p: Fraction(1, p["l"] + 1),
        witness_builder=lambda p: _bs(p["l"] + 1),
        decode=lambda t: {"l": len(t)},
    )


def _family_two_generators() -> Family:
    def value(p):
        a, b = p["a"], p["b"]
        if a % 2 == 1 and b % 2 == 1:
            return Fraction(1, 2)
        return Fraction(a + b - 1, 2 * (a + b))

    def witness(p):
        a, b = p["a"], p["b"]
        if a % 2 == 1 and b % 2 == 1:
            return _bs(2)
        if a == 1 and b % 2 == 0:
            return _bs(([2], b // 2 - 1), 3)
        return None

    return Family(
        id="two-generators",
        kind=THEOREM,
        description="{a,b}, gcd 1: 1/2 if both odd, else (a+b-1)/(2a+2b)",
        parameters=("a", "b"),
        set_builder=lambda p: DistanceSet([p["a"], p["b"]]),
        domain=lambda p: 1 <= p["a"] < p["b"] and gcd(p["a"], p["b"]) == 1,
        value_rule=value,
        witness_builder=witness,
        decode=lambda t: {"a": t[0], "b": t[-1]},
    )


def _family_interval_and_k() -> Family:
    def value(p):
        l, k = p["l"], p["k"]
        if k % l:
            return Fraction(1, l)
        return Fraction(k, l * (k + 1))

    def witness(p):
        l, k = p["l"], p["k"]
        if k % l:
            return _bs(l)
        return _bs(([l], k // l - 1), l + 1)

    return Family(
        id="interval-and-k",
        kind=THEOREM,
        description="{1,...,l-1,k}, k>l: 1/l, or k/(l(k+1)) when l divides k",
        parameters=("l", "k"),
        set_builder=lambda p: DistanceSet(list(range(1, p["l"])) + [p["k"]]),
        domain=lambda p: p["l"] >= 2 and p["k"] > p["l"],
        value_rule=value,
        witness_builder=witness,
        decode=lambda t: {"l": len(t), "k": t[-1]},
    )


def _family_one_two_3k() -> Family:
    return Family(
        id="1-2-3k",
        kind=THEOREM,
        description="{1,2,3k}: ratio k/(3k+1)",
        parameters=("k",),
        set_builder=lambda p: DistanceSet([1, 2, 3 * p["k"]]),
        domain=lambda p: p["k"] >= 1,
        value_rule=lambda p: Fraction(p["k"], 3 * p["k"] + 1),
        witness_builder=lambda p: _bs(([3], p["k"] - 1), 4),
        decode=lambda t: {"k": t[-1] // 3},
    )


def _family_1_3_2i() -> Family:
    return Family(
        id="1-3-2i",
        kind=THEOREM,
        description="{1,3,2i}, i>=2: ratio i/(2i+3)",
        parameters=("i",),
        set_builder=lambda p: DistanceSet([1, 3, 2 * p["i"]]),
        domain=lambda p: p["i"] >= 2,
        value_rule=lambda p: Fraction(p["i"], 2 * p["i"] + 3),
        witness_builder=lambda p: _bs(([2], p["i"] - 1), 5),
        decode=lambda t: {"i": t[-1] // 2},
    )


def _family_1_5_2i() -> Family:
    return Family(
        id="1-5-2i",
        kind=THEOREM,
        description="{1,5,2i}, i>=5: ratio i/(2i+5)",
        parameters=("i",),
        set_builder=lambda p: DistanceSet([1, 5, 2 * p["i"]]),
        domain=lambda p: p["i"] >= 5,
        value_rule=lambda p: Fraction(p["i"], 2 * p["i"] + 5),
        witness_builder=lambda p: _bs(([2], p["i"] - 1), 7),
        decode=lambda t: {"i": t[-1] // 2},
    )


def _family_1_4_k() -> Family:
    return _residue_family(
        "1-4-k", THEOREM, "{1,4,k}, k>4: five residue classes of k mod 5",
        lambda k: [1, 4, k], lambda p: p["k"] > 4, lambda t: {"k": t[-1]},
        ResidueRule(
            5, ((2, 0, 5, 5), (0, 2, 0, 5), (2, 1, 5, 5), (2, -1, 5, 5), (0, 2, 0, 5)),
            ((((2, 3), -1), 3, 3), (2, 3), (((2, 3), 0), 3), (((2, 3), -1), 3, 3, 3), (2, 3)),
        ),
    )


def _family_1_k_kp1() -> Family:
    return _residue_family(
        "1-k-kp1", THEOREM, "{1,k,k+1}, k>=2: three residue classes of k mod 3",
        lambda k: [1, k, k + 1], lambda p: p["k"] >= 2, lambda t: {"k": t[-1] - 1},
        ResidueRule(
            3, ((2, 0, 6, 3), (0, 1, 0, 3), (1, 1, 3, 6)),
            ((2, ((3,), -1), 5, ((3,), -1)), (3,), (((3,), 0), 4)),
        ),
    )


def _family_1_k_kp3() -> Family:
    return _residue_family(
        "1-k-kp3", THEOREM, "{1,k,k+3}, k>=3: five residue classes of k mod 5",
        lambda k: [1, k, k + 3], lambda p: p["k"] >= 3, lambda t: {"k": t[-1] - 3},
        ResidueRule(
            5, ((2, 5, 5, 20), (0, 2, 0, 5), (2, 6, 5, 20), (4, 3, 10, 15), (2, 7, 5, 20)),
            ((((2, 3), -1), 3, 3, 3), (2, 3), (((2, 3), 0), 3, 3),
             (((2, 3), 0), 2, ((2, 3), 0), 2, 5), (((2, 3), 1), 3)),
        ),
    )


def _witness_1_2k_2kp2l(p):
    k, l = p["k"], p["l"]
    if k == 1:
        return _bs(3)
    return _bs(([2], k - 1), 3, ([2], k - 1), 2 * l + 1)


def _family_1_2k_2kp2l() -> Family:
    return Family(
        id="1-2k-2kp2l",
        kind=THEOREM,
        description="{1,2k,2k+2l}, 1<=l<=3, k>=l: ratio 2k/(4k+2l)",
        parameters=("k", "l"),
        set_builder=lambda p: DistanceSet([1, 2 * p["k"], 2 * p["k"] + 2 * p["l"]]),
        domain=lambda p: 1 <= p["l"] <= 3 and p["k"] >= p["l"],
        value_rule=lambda p: Fraction(2 * p["k"], 4 * p["k"] + 2 * p["l"]),
        witness_builder=_witness_1_2k_2kp2l,
        decode=lambda t: {"k": t[1] // 2, "l": (t[2] - t[1]) // 2} if len(t) == 3 else None,
    )


def _family_one_and_multiples() -> Family:
    def witness(p):
        k, l = p["k"], p["l"]
        period = k * (l + 1)
        if k % 2 == 1:
            return _bs(([2], k - 1), period - 2 * (k - 1))
        h = k // 2
        return _bs(([2], h - 1), 3, ([2], k - h - 1), period - 2 * k + 1)

    return Family(
        id="one-and-multiples",
        kind=THEOREM,
        description="{1,k,2k,...,lk}, k,l>=2: ratio 1/(l+1)",
        parameters=("k", "l"),
        set_builder=lambda p: DistanceSet([1] + [p["k"] * j for j in range(1, p["l"] + 1)]),
        domain=lambda p: p["k"] >= 2 and p["l"] >= 2,
        value_rule=lambda p: Fraction(1, p["l"] + 1),
        witness_builder=witness,
        decode=lambda t: {"k": t[1], "l": len(t) - 1} if len(t) > 1 else None,
    )


def _family_arith_plus_b() -> Family:
    def value(p):
        m, b = p["m"], p["b"]
        if b % m == 0:
            return Fraction(b // m, b + 1)
        return Fraction(1, m)

    def witness(p):
        a, m, b = p["a"], p["m"], p["b"]
        if a != 1:
            return None
        if b % m == 0:
            return _bs(([m], b // m - 1), m + 1)
        return _bs(m)

    def decode(t):
        # b is the first element off the progression a, 2a, ..., inside or past it
        a = t[0]
        b = next((x for j, x in enumerate(t, 1) if x != j * a), t[-1])
        return {"a": a, "m": len(t), "b": b}

    return Family(
        id="arith-and-b",
        kind=THEOREM,
        description="{a,2a,...,(m-1)a,b}, gcd(a,b)=1: (b/m)/(b+1) if m|b (a=1) else 1/m",
        parameters=("a", "m", "b"),
        set_builder=lambda p: DistanceSet([p["a"] * j for j in range(1, p["m"])] + [p["b"]]),
        # the m | b clause is restricted to a = 1 and the m = 2 case to a = 1:
        # for a >= 2 both printed branches are contradicted by exact
        # computation (e.g. {2,3,4} is 1/3, {2,5} is 3/7)
        domain=lambda p: (
            p["a"] >= 1
            and p["m"] >= 2
            and p["b"] > p["a"]
            and gcd(p["a"], p["b"]) == 1
            and p["b"] not in {p["a"] * j for j in range(1, p["m"])}
            and (p["m"] >= 3 or p["a"] == 1)
            and (p["b"] % p["m"] != 0 or p["a"] == 1)
        ),
        value_rule=value,
        witness_builder=witness,
        decode=decode,
    )


def _family_triple_sum() -> Family:
    def value(p):
        a, b = p["a"], p["b"]
        d = b - a
        if d % 3 == 0:
            return Fraction(1, 3)
        if d % 3 == 1:
            k = (d - 1) // 3
            return Fraction(a + k, 3 * (a + k) + 1)
        k = (d - 2) // 3
        return Fraction(a + 2 * k + 1, 3 * a + 6 * k + 4)

    def witness(p):
        if (p["b"] - p["a"]) % 3 == 0:
            return _bs(3)
        return None

    return Family(
        id="a-b-apb",
        kind=THEOREM,
        description="{a,b,a+b}, gcd(a,b)=1: three cases by (b-a) mod 3",
        parameters=("a", "b"),
        set_builder=lambda p: DistanceSet([p["a"], p["b"], p["a"] + p["b"]]),
        domain=lambda p: 1 <= p["a"] < p["b"] and gcd(p["a"], p["b"]) == 1,
        value_rule=value,
        witness_builder=witness,
        decode=lambda t: {"a": t[0], "b": t[-1] - t[0]},
    )


def _family_four_mixed() -> Family:
    return Family(
        id="a-b-bma-apb",
        kind=THEOREM,
        description="{a,b,b-a,a+b}, a+b odd, gcd 1: ratio 1/4",
        parameters=("a", "b"),
        set_builder=lambda p: DistanceSet(
            [p["a"], p["b"], p["b"] - p["a"], p["a"] + p["b"]]
        ),
        domain=lambda p: (
            1 <= p["a"] < p["b"]
            and (p["a"] + p["b"]) % 2 == 1
            and gcd(p["a"], p["b"]) == 1
            and p["b"] - p["a"] != p["a"]
        ),
        value_rule=lambda p: Fraction(1, 4),
        # b-a < b and a < b < a+b, so b is the second largest element
        decode=lambda t: {"a": t[3] - t[2], "b": t[2]} if len(t) == 4 else None,
    )


def _family_1_2m_range() -> Family:
    return Family(
        id="1-2m-range",
        kind=THEOREM,
        description="{1,2m,2m+1,2m+2}: ratio m/(4m+1)",
        parameters=("m",),
        set_builder=lambda p: DistanceSet([1, 2 * p["m"], 2 * p["m"] + 1, 2 * p["m"] + 2]),
        domain=lambda p: p["m"] >= 1,
        value_rule=lambda p: Fraction(p["m"], 4 * p["m"] + 1),
        witness_builder=lambda p: _bs(([2], p["m"] - 1), 2 * p["m"] + 3),
        decode=lambda t: {"m": (t[-1] - 2) // 2},
    )


def _family_interval_block() -> Family:
    return Family(
        id="interval",
        kind=THEOREM,
        description="[k,k'], 4k'>=5k: ratio k/(k+k')",
        parameters=("k", "kp"),
        set_builder=lambda p: DistanceSet(range(p["k"], p["kp"] + 1)),
        domain=lambda p: 2 <= p["k"] <= p["kp"] and 4 * p["kp"] >= 5 * p["k"],
        value_rule=lambda p: Fraction(p["k"], p["k"] + p["kp"]),
        witness_builder=lambda p: _bs(([1], p["k"] - 1), p["kp"] + 1),
        # counted first, so a sparse set never builds its whole span
        decode=lambda t: {"k": t[0], "kp": t[-1]} if len(t) == t[-1] - t[0] + 1 else None,
    )


def _family_punctured_multiples() -> Family:
    def clause(p):
        m, k, s = p["m"], p["k"], p["s"]
        if s == 1 and 2 * k > m:
            return Fraction(1, k)
        if m >= (s + 1) * k:
            return Fraction(s + 1, m + s * k + 1)
        return None

    def witness(p):
        m, k, s = p["m"], p["k"], p["s"]
        if s == 1 and 2 * k > m:
            return _bs(k)
        if m >= (s + 1) * k:
            return _bs(([k], s), m + 1)
        return None

    return Family(
        id="punctured-multiples",
        kind=THEOREM,
        description="[m] minus {k,...,sk}: 1/k when 2k>m (s=1), (s+1)/(m+sk+1) when m>=(s+1)k",
        parameters=("m", "k", "s"),
        set_builder=lambda p: DistanceSet(
            sorted(set(range(1, p["m"] + 1)) - {p["k"] * j for j in range(1, p["s"] + 1)})
        ),
        domain=lambda p: (
            p["k"] >= 2
            and p["s"] >= 1
            and p["s"] * p["k"] < p["m"]
            and (
                (p["s"] == 1 and 2 * p["k"] > p["m"])
                or p["m"] >= (p["s"] + 1) * p["k"]
            )
        ),
        value_rule=lambda p: clause(p),
        witness_builder=witness,
        # the domain's s k < m with k >= 2 keeps m below 2|S|
        decode=lambda t: {"m": t[-1], "k": _least_missing(t), "s": t[-1] - len(t)},
    )


def _family_punctured_interval() -> Family:
    def split(p):
        k, kp = p["k"], p["kp"]
        s, i = divmod(kp, k)
        return s, i

    def clause(p):
        m, k = p["m"], p["k"]
        s, i = split(p)
        if i == 0:
            return None
        if s == 1:
            if m < 2 * k:
                return Fraction(1, k)
            if m < 2 * k + 2 * i:
                return Fraction(2, m + 1)
            return Fraction(2, m + k + 1)
        if m < (s + 1) * k:
            return Fraction(1, k)
        if m < (s + 1) * k + i:
            return Fraction(s + 1, m + 1)
        return None

    def witness(p):
        m, k = p["m"], p["k"]
        s, i = split(p)
        val = clause(p)
        if val is None:
            return None
        if val == Fraction(1, k):
            return _bs(k)
        if s == 1 and val == Fraction(2, m + 1):
            j = max(k, m + 1 - k - i)
            return _bs(j, m + 1 - j)
        if s == 1:
            return _bs(k, m + 1)
        return _bs(([k], s), m + 1 - s * k)

    def in_domain(p):
        m, k, kp = p["m"], p["k"], p["kp"]
        if not (2 <= k <= kp < m):
            return False
        s, i = divmod(kp, k)
        if i == 0:
            return False
        if s == 1:
            return True
        return m < (s + 1) * k + i

    def decode(t):
        # the gap is k..kp and t[k - 1] follows it; counted before anything is built
        k = _least_missing(t)
        if k > len(t) or len(t) - (k - 1) != t[-1] - t[k - 1] + 1:
            return None
        return {"m": t[-1], "k": k, "kp": t[k - 1] - 1}

    return Family(
        id="punctured-interval",
        kind=THEOREM,
        description="[m] minus [k,k']: five clauses by m against multiples of k",
        parameters=("m", "k", "kp"),
        set_builder=lambda p: DistanceSet([*range(1, p["k"]), *range(p["kp"] + 1, p["m"] + 1)]),
        domain=in_domain,
        value_rule=clause,
        witness_builder=witness,
        decode=decode,
    )


# ---------------------------------------------------------------------------
# Conjecture families
# ---------------------------------------------------------------------------


_EXC_1_6_K = {7, 10, 12, 17}
_EXC_1_8_K = {9, 10, 14, 16, 18, 23, 25, 32}
_EXC_1_K_KP5 = {7, 12}
_EXC_1_K_KP7 = {9, 11, 16, 18, 25}


def _family_1_6_k() -> Family:
    # the classes 0, 2, 3 and 5 need k // 7 >= 2, 1, 3 and 2 for their (2 2 3) runs
    return _residue_family(
        "1-6-k", CONJECTURE, "{1,6,k}, k>6, k not in {7,10,12,17}: seven residue classes mod 7",
        lambda k: [1, 6, k], lambda p: p["k"] > 6 and p["k"] not in _EXC_1_6_K,
        lambda t: {"k": t[-1]},
        ResidueRule(
            7, ((3, 0, 7, 7), (0, 3, 0, 7), (3, 1, 7, 7), (3, -2, 7, 7), (3, 2, 7, 7),
                (3, -1, 7, 7), (0, 3, 0, 7)),
            ((((2, 2, 3), -2), 2, 3, 2, 3, 2, 3), (2, 2, 3), (((2, 2, 3), -1), 2, 3, 2, 3),
             (((2, 2, 3), -3), 2, 3, 2, 3, 2, 3, 2, 3, 2, 3), (((2, 2, 3), 0), 2, 3),
             (((2, 2, 3), -2), 2, 3, 2, 3, 2, 3, 2, 3), (2, 2, 3)),
        ),
    )


def _family_1_8_k() -> Family:
    return _residue_family(
        "1-8-k", CONJECTURE, "{1,8,k}, k>8, eight exceptions: nine residue classes mod 9",
        lambda k: [1, 8, k], lambda p: p["k"] > 8 and p["k"] not in _EXC_1_8_K,
        lambda t: {"k": t[-1]},
        ResidueRule(
            9, ((4, 0, 9, 9), (0, 4, 0, 9), (4, 1, 9, 9), (4, 24, 9, 72), (4, 2, 9, 9),
                (4, 1, 9, 16), (4, 3, 9, 9), (4, -1, 9, 9), (0, 4, 0, 9)),
        ),
    )


def _family_1_k_kp5() -> Family:
    return _residue_family(
        "1-k-kp5", CONJECTURE, "{1,k,k+5}, k>=6, k not in {7,12}: seven residue classes mod 7",
        lambda k: [1, k, k + 5], lambda p: p["k"] >= 6 and p["k"] not in _EXC_1_K_KP5,
        lambda t: {"k": t[-1] - 5},
        ResidueRule(
            7, ((3, 14, 7, 42), (0, 3, 0, 7), (3, 15, 7, 42), (6, 10, 14, 35), (3, 16, 7, 42),
                (3, 13, 7, 42), (3, 17, 7, 42)),
        ),
    )


def _family_1_k_kp7() -> Family:
    return _residue_family(
        "1-k-kp7", CONJECTURE, "{1,k,k+7}, k>=8, five exceptions: nine residue classes mod 9",
        lambda k: [1, k, k + 7], lambda p: p["k"] >= 8 and p["k"] not in _EXC_1_K_KP7,
        lambda t: {"k": t[-1] - 7},
        ResidueRule(
            9, ((4, 27, 9, 72), (0, 4, 0, 9), (4, 28, 9, 72), (8, 21, 18, 63), (4, 29, 9, 72),
                (4, -2, 9, 9), (4, 30, 9, 72), (4, 26, 9, 72), (4, 31, 9, 72)),
        ),
    )


def _family_1_odd_2i() -> Family:
    return Family(
        id="1-odd-2i",
        kind=CONJECTURE,
        description="{1,l,2i}, odd l>=7, 2i>=3l: ratio i/(2i+l)",
        parameters=("l", "i"),
        set_builder=lambda p: DistanceSet([1, p["l"], 2 * p["i"]]),
        domain=lambda p: p["l"] >= 7 and p["l"] % 2 == 1 and 2 * p["i"] >= 3 * p["l"],
        value_rule=lambda p: Fraction(p["i"], 2 * p["i"] + p["l"]),
        witness_builder=lambda p: _bs(([2], p["i"] - 1), p["l"] + 2),
        decode=lambda t: {"l": t[1], "i": t[2] // 2} if len(t) == 3 else None,
    )


def _family_1_2k_2kp2l_conj() -> Family:
    base = _family_1_2k_2kp2l()
    return Family(
        id="1-2k-2kp2l-conj",
        kind=CONJECTURE,
        description="{1,2k,2k+2l}, 4<=l<=k: conjectured ratio 2k/(4k+2l)",
        parameters=("k", "l"),
        set_builder=base.set_builder,
        domain=lambda p: p["l"] >= 4 and p["k"] >= p["l"],
        value_rule=lambda p: Fraction(2 * p["k"], 4 * p["k"] + 2 * p["l"]),
        witness_builder=_witness_1_2k_2kp2l,
        decode=base.decode,
    )


# ---------------------------------------------------------------------------
# Bound families
# ---------------------------------------------------------------------------


def _family_zhu_3k1(side: str) -> Family:
    kind = LOWER if side == "lower" else UPPER

    def value(p):
        a, k = p["a"], p["k"]
        if side == "lower":
            return Fraction(a + k, 3 * (a + k) + 1)
        return Fraction(a + 2 * k, 3 * (a + 2 * k) + 1)

    return Family(
        id=f"zhu-3k1-{side}",
        kind=kind,
        description=f"{{a,a+3k+1,2a+3k+1}}: proven {side} bound",
        parameters=("a", "k"),
        set_builder=lambda p: DistanceSet(
            [p["a"], p["a"] + 3 * p["k"] + 1, 2 * p["a"] + 3 * p["k"] + 1]
        ),
        domain=lambda p: p["a"] >= 1
        and p["k"] >= 1
        and gcd(p["a"], p["a"] + 3 * p["k"] + 1) == 1,
        value_rule=value,
    )


def _family_zhu_3k2(side: str) -> Family:
    kind = LOWER if side == "lower" else UPPER

    def value(p):
        a, k = p["a"], p["k"]
        if side == "lower":
            return Fraction(a + 2 * k + 1, 3 * (a + 2 * k + 2) + 1)
        return Fraction(a + 2 * k + 2, 3 * (a + 2 * k + 2) + 1)

    return Family(
        id=f"zhu-3k2-{side}",
        kind=kind,
        description=f"{{a,a+3k+2,2a+3k+2}}: proven {side} bound",
        parameters=("a", "k"),
        set_builder=lambda p: DistanceSet(
            [p["a"], p["a"] + 3 * p["k"] + 2, 2 * p["a"] + 3 * p["k"] + 2]
        ),
        domain=lambda p: p["a"] >= 1
        and p["k"] >= 1
        and gcd(p["a"], p["a"] + 3 * p["k"] + 2) == 1,
        value_rule=value,
    )


def _zhu_mixed_domain(p) -> bool:
    a, b, c = p["a"], p["b"], p["c"]
    if not (1 <= a < b < c):
        return False
    if gcd(gcd(a, b), c) != 1:
        return False
    if a % 2 == 1 and b % 2 == 1 and c % 2 == 1:
        return False
    if c == a + b:
        return False
    if a == 1 and b == 2 and c % 3 == 0:
        return False
    return True


def _family_zhu_mixed(side: str) -> Family:
    kind = LOWER if side == "lower" else UPPER
    value = Fraction(1, 3) if side == "lower" else Fraction(1, 2)
    return Family(
        id=f"zhu-mixed-{side}",
        kind=kind,
        description=f"not-all-odd triples, c != a+b: {side} bound "
        + ("1/3" if side == "lower" else "1/2 (strict)"),
        parameters=("a", "b", "c"),
        set_builder=lambda p: DistanceSet([p["a"], p["b"], p["c"]]),
        domain=_zhu_mixed_domain,
        value_rule=lambda p: value,
        strict=(side == "upper"),
    )


def _zhu_generic_domain(p) -> bool:
    a, b, c = p["a"], p["b"], p["c"]
    if not _zhu_mixed_domain(p):
        return False
    return c != 2 * b and b != 2 * a and c != 2 * a


def _family_zhu_generic(side: str) -> Family:
    kind = LOWER if side == "lower" else UPPER
    value = Fraction(3, 8) if side == "lower" else Fraction(1, 2)
    return Family(
        id=f"zhu-generic-{side}",
        kind=kind,
        description=f"nondegenerate triples: {side} bound "
        + ("3/8" if side == "lower" else "1/2 (strict)")
        + ", finitely many unlisted exceptions",
        parameters=("a", "b", "c"),
        set_builder=lambda p: DistanceSet([p["a"], p["b"], p["c"]]),
        domain=_zhu_generic_domain,
        value_rule=lambda p: value,
        strict=(side == "upper"),
        findings_only=True,
    )


# ---------------------------------------------------------------------------
# Asymptotic (limit) families: witnesses carry the finite lower bounds
# ---------------------------------------------------------------------------


def _family_lim_1_odd_2k() -> Family:
    return Family(
        id="lim-1-odd-2k",
        kind=LIMIT,
        description="{1,2i+1,2k} -> 1/2 as k grows; lower witness per k",
        parameters=("i", "k"),
        set_builder=lambda p: DistanceSet([1, 2 * p["i"] + 1, 2 * p["k"]]),
        domain=lambda p: p["i"] >= 1 and 2 * p["k"] > 2 * p["i"] + 1,
        value_rule=lambda p: Fraction(p["k"], 2 * p["k"] + 2 * p["i"] + 1),
        witness_builder=lambda p: _bs(([2], p["k"] - 1), 2 * p["i"] + 3),
    )


def _family_lim_1_2i_k() -> Family:
    def qr(p):
        return divmod(p["k"], 2 * p["i"] + 1)

    def witness(p):
        q, r = qr(p)
        if r == 0:
            return None
        return _bs(([2] * (p["i"] - 1) + [3], q - 1), 2 * p["i"] + 2 + r)

    def value(p):
        i = p["i"]
        q, r = qr(p)
        if r == 0:
            return None
        return Fraction(i * (q - 1) + 1, (2 * i + 1) * q + r + 1)

    return Family(
        id="lim-1-2i-k",
        kind=LIMIT,
        description="{1,2i,k} -> i/(2i+1) as k grows; lower witness per k",
        parameters=("i", "k"),
        set_builder=lambda p: DistanceSet([1, 2 * p["i"], p["k"]]),
        domain=lambda p: p["i"] >= 1
        and p["k"] > 2 * p["i"] + 1
        and p["k"] % (2 * p["i"] + 1) != 0,
        value_rule=value,
        witness_builder=witness,
    )


def _family_lim_1_k_kpodd() -> Family:
    def qr(p):
        return divmod(p["k"] + 2 * p["i"] + 2, 2 * p["i"] + 3)

    def witness(p):
        q, r = qr(p)
        if q < 1:
            return None
        return _bs(([2] * p["i"] + [3], q - 1), 2 * p["i"] + 3 + r)

    def value(p):
        i = p["i"]
        q, r = qr(p)
        return Fraction((i + 1) * (q - 1) + 1, (2 * i + 3) * q + r)

    return Family(
        id="lim-1-k-kpodd",
        kind=LIMIT,
        description="{1,k,k+2i+1} -> (i+1)/(2i+3) as k grows; lower witness per k",
        parameters=("i", "k"),
        set_builder=lambda p: DistanceSet([1, p["k"], p["k"] + 2 * p["i"] + 1]),
        domain=lambda p: p["i"] >= 0 and p["k"] >= 2,
        value_rule=value,
        witness_builder=witness,
    )


_FAMILIES: tuple[Family, ...] = (
    _family_all_odd(),
    _family_consecutive(),
    _family_two_generators(),
    _family_interval_and_k(),
    _family_one_two_3k(),
    _family_1_3_2i(),
    _family_1_5_2i(),
    _family_1_4_k(),
    _family_1_k_kp1(),
    _family_1_k_kp3(),
    _family_1_2k_2kp2l(),
    _family_one_and_multiples(),
    _family_arith_plus_b(),
    _family_triple_sum(),
    _family_four_mixed(),
    _family_1_2m_range(),
    _family_interval_block(),
    _family_punctured_multiples(),
    _family_punctured_interval(),
    _family_1_6_k(),
    _family_1_8_k(),
    _family_1_k_kp5(),
    _family_1_k_kp7(),
    _family_1_odd_2i(),
    _family_1_2k_2kp2l_conj(),
    _family_zhu_3k1("lower"),
    _family_zhu_3k1("upper"),
    _family_zhu_3k2("lower"),
    _family_zhu_3k2("upper"),
    _family_zhu_mixed("lower"),
    _family_zhu_mixed("upper"),
    _family_zhu_generic("lower"),
    _family_zhu_generic("upper"),
    _family_lim_1_odd_2k(),
    _family_lim_1_2i_k(),
    _family_lim_1_k_kpodd(),
)


def list_families() -> tuple[Family, ...]:
    """All catalogued families, in closed-form precedence order."""
    return _FAMILIES


def get_family(family_id: str) -> Family:
    for fam in _FAMILIES:
        if fam.id == family_id:
            return fam
    raise UnknownFamilyError(family_id)


@dataclass(frozen=True)
class Prediction:
    family_id: str
    kind: str
    params: dict
    value: Fraction


def closed_form(distances: DistanceSet) -> Optional[Prediction]:
    """The closed form of a set, or None.

    Every all-odd set is 1/2 by the parity theorem, reported as family
    all-odd with the k that rebuilds it as {1, 2k+1, 2k+3}, or with no
    parameters when it has another shape.  Any other set takes the first
    theorem or conjecture family, in precedence order, that matches it and
    gives a value; bound and limit families never produce a closed form.  Each
    family costs O(|S|).
    """
    if distances.is_all_odd():
        params = get_family("all-odd").match(distances) or {}
        return Prediction(family_id="all-odd", kind=THEOREM, params=params, value=Fraction(1, 2))
    for fam in _FAMILIES:
        if fam.kind not in (THEOREM, CONJECTURE):
            continue
        params = fam.match(distances)
        if params is None:
            continue
        value = fam.predicted(params)
        if value is not None:
            return Prediction(family_id=fam.id, kind=fam.kind, params=params, value=value)
    return None


@dataclass(frozen=True)
class FormulaVerdict:
    family: str
    kind: str
    params: dict
    distances: DistanceSet
    predicted: Optional[Fraction]
    computed: Optional[Fraction]
    computed_status: str
    agreement: str  # match | mismatch | unresolved
    witness_ok: Optional[bool]
    findings_only: bool = False

    @property
    def is_failure(self) -> bool:
        """A mismatch against a proven statement breaks the build;
        conjectures and findings-only bounds surface as findings."""
        if self.findings_only:
            return False
        bad_witness = self.witness_ok is False and self.kind == THEOREM
        return bad_witness or (
            self.agreement == "mismatch" and self.kind in (THEOREM, LOWER, UPPER)
        )


def _judge(fam: Family, predicted: Fraction, report: RatioReport) -> str:
    lower, upper = report.lower, report.upper
    if fam.kind in (THEOREM, CONJECTURE):
        if report.status == "exact":
            return "match" if report.value == predicted else "mismatch"
        if predicted < lower or predicted > upper:
            return "mismatch"
        return "unresolved"
    if fam.kind in (LOWER, LIMIT):
        # claim: ratio >= predicted
        if lower >= predicted:
            return "match"
        if upper < predicted:
            return "mismatch"
        return "unresolved"
    # claim: ratio <= predicted (or strictly below for strict bounds)
    if fam.strict:
        if upper < predicted:
            return "match"
        if lower >= predicted:
            return "mismatch"
        return "unresolved"
    if upper <= predicted:
        return "match"
    if lower > predicted:
        return "mismatch"
    return "unresolved"


def verify_family(
    family_id: str,
    lo: int,
    hi: int,
    budget_nodes: Optional[int] = None,
) -> list[FormulaVerdict]:
    """Check every in-domain parameter point of a family in [lo, hi].

    The engine value comes from the usual pipeline (state graph when the set
    is small, two-sided search otherwise).  Witness block lists, when present,
    are verified independent and compared against the stated density.  budget_nodes caps the search nodes spent per parameter point.
    """
    fam = get_family(family_id)
    verdicts = []
    for params in fam.sweep(lo, hi):
        distances = fam.build_set(params)
        predicted = fam.predicted(params)
        point_budget = (
            SearchBudget() if budget_nodes is None else SearchBudget(max_nodes=budget_nodes)
        )
        report = independence_ratio(distances, budget=point_budget)
        witness_ok = None
        blocks = fam.witness(params)
        if blocks is not None:
            ok = verify_periodic_independent(blocks, distances).ok
            witness_ok = ok and (predicted is None or blocks.density() == predicted)
        if predicted is None:
            agreement = "unresolved"
        else:
            agreement = _judge(fam, predicted, report)
        verdicts.append(
            FormulaVerdict(
                family=fam.id,
                kind=fam.kind,
                params=params,
                distances=distances,
                predicted=predicted,
                computed=report.value,
                computed_status=report.status,
                agreement=agreement,
                witness_ok=witness_ok,
                findings_only=fam.findings_only,
            )
        )
    return verdicts
