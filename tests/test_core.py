"""Domain types, block notation, and periodic-set verification."""

import random
from fractions import Fraction

import pytest

from dgratio.core import (
    BlockList,
    BlockSyntaxError,
    DistanceSet,
    ExpansionLimitError,
    normalize,
    parse_block_notation,
    power_distance_set,
    verify_periodic_independent,
)
from oracles import scan_periodic_independent


def test_distance_set_validation():
    s = DistanceSet([7, 1, 4])
    assert s.distances == (1, 4, 7)
    assert s.max_element == 7
    with pytest.raises(ValueError):
        DistanceSet([])
    with pytest.raises(ValueError):
        DistanceSet([0, 2])
    with pytest.raises(ValueError):
        DistanceSet([-1])
    assert DistanceSet.parse("1,4,7").distances == (1, 4, 7)
    with pytest.raises(ValueError):
        DistanceSet.parse("1,a")


def test_normalize_examples():
    ns = normalize(DistanceSet([2, 6]))
    assert ns.reduced.distances == (1, 3)
    assert ns.divisor == 2
    assert ns.all_odd

    ns = normalize(DistanceSet([1, 4, 7]))
    assert ns.reduced.distances == (1, 4, 7)
    assert ns.divisor == 1
    assert not ns.all_odd

    ns = normalize(DistanceSet([3, 5, 7]))
    assert ns.divisor == 1
    assert ns.all_odd


def test_normalize_idempotent():
    rng = random.Random(11)
    for _ in range(40):
        s = DistanceSet(rng.sample(range(1, 40), rng.randint(1, 4)))
        ns = normalize(s)
        again = normalize(ns.reduced)
        assert again.divisor == 1
        assert again.reduced.distances == ns.reduced.distances


def test_power_distance_set_examples():
    assert power_distance_set(DistanceSet([2]), 2).distances == (2, 4)
    assert power_distance_set(DistanceSet([1]), 3).distances == (1, 2, 3)
    assert power_distance_set(DistanceSet([1, 4]), 2).distances == (1, 2, 3, 4, 5, 8)


def test_power_distance_set_properties():
    rng = random.Random(5)
    for _ in range(25):
        s = DistanceSet(rng.sample(range(1, 9), rng.randint(1, 3)))
        assert power_distance_set(s, 1).distances == s.distances
        prev = set()
        for r in range(1, 4):
            cur = set(power_distance_set(s, r).distances)
            assert prev <= cur
            assert max(cur) == r * s.max_element
            prev = cur


def test_parse_examples():
    bl = parse_block_notation("(2 3)^5 7 (3 4)^2")
    assert bl.count == 15
    assert bl.period == 46

    assert parse_block_notation("3").sizes == (3,)
    assert parse_block_notation("2^3").sizes == (2, 2, 2)
    assert parse_block_notation("(2)^3").sizes == (2, 2, 2)


@pytest.mark.parametrize(
    "text",
    ["", "(2 3", "2^0", "0", "(2 3))^2", "2^", "()^2", "(2 3)", "2 ^x", "03"],
)
def test_parse_errors_carry_offsets(text):
    with pytest.raises(BlockSyntaxError) as err:
        parse_block_notation(text)
    assert err.value.offset >= 0


def test_expansion_cap():
    with pytest.raises(ExpansionLimitError) as err:
        parse_block_notation("2^999999999")
    assert err.value.needed == 999_999_999
    # but a configured cap admits larger expansions
    bl = parse_block_notation("2^2000000", cap=3_000_000)
    assert bl.count == 2_000_000


@pytest.mark.parametrize(
    "text, needed",
    [("2^999999999 3", 1_000_000_000), ("((2 3)^4 5)^3", 27), ("(2^999999 3)^999999", 999_999_000_000)],
)
def test_expansion_limit_carries_the_full_count(text, needed):
    # past the cap the parser keeps counting, through nesting and later terms
    with pytest.raises(ExpansionLimitError) as err:
        parse_block_notation(text, cap=10)
    assert (err.value.needed, err.value.cap) == (needed, 10)


@pytest.mark.parametrize(
    "text, offset",
    [("2^999999999 (", 13), ("(2^999999 3)^999999 )", 20), ("(2)^999999999 2^", 16)],
)
def test_a_later_syntax_error_wins_over_the_cap(text, offset):
    with pytest.raises(BlockSyntaxError) as err:
        parse_block_notation(text)
    assert err.value.offset == offset


def test_block_density_examples():
    assert BlockList([2, 2, 5]).density() == Fraction(1, 3)
    assert BlockList([3]).density() == Fraction(1, 3)
    bl = parse_block_notation("(2 3)^5 7 (3 4)^2")
    assert bl.density() == Fraction(15, 46)
    for bad in ([2, 0, 3], []):
        with pytest.raises(ValueError):
            BlockList(bad)


def test_block_density_concatenation_invariant():
    rng = random.Random(7)
    for _ in range(30):
        sizes = [rng.randint(1, 9) for _ in range(rng.randint(1, 8))]
        one = BlockList(sizes)
        two = BlockList(sizes * 2)
        assert one.density() == two.density()
        d = one.density()
        assert d.numerator == one.count // __import__("math").gcd(one.count, one.period)


def test_random_notation_expands_like_a_reference():
    rng = random.Random(13)

    def random_text(depth):
        # returns the notation and the sizes it stands for, built separately
        parts, sizes = [], []
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if depth > 0 and roll < 0.35:
                body_text, body = random_text(depth - 1)
                exp = rng.randint(1, 4)
                parts.append(f"({body_text})^{exp}")
                sizes += body * exp
            elif roll < 0.55:
                size, exp = rng.randint(1, 12), rng.randint(1, 5)
                parts.append(f"{size}^{exp}")
                sizes += [size] * exp
            else:
                size = rng.randint(1, 12)
                parts.append(str(size))
                sizes.append(size)
        spaces = [rng.choice([" ", "  ", "\t", "\n "]) for _ in parts]
        return "".join(s + p for s, p in zip(spaces, parts)).strip(), sizes

    for _ in range(200):
        text, sizes = random_text(3)
        assert parse_block_notation(text).sizes == tuple(sizes), text
        if len(sizes) > 1:
            with pytest.raises(ExpansionLimitError) as err:
                parse_block_notation(text, cap=len(sizes) - 1)
            assert err.value.needed == len(sizes), text


def test_verify_examples():
    assert verify_periodic_independent(BlockList([2, 2, 5]), DistanceSet([1, 3, 6])).ok

    verdict = verify_periodic_independent(BlockList([2]), DistanceSet([1, 2]))
    assert not verdict.ok
    assert verdict.distance == 2

    verdict = verify_periodic_independent(BlockList([2, 3]), DistanceSet([1, 4, 7]))
    assert not verdict.ok
    assert verdict.distance in (2 + 3 + 2, 2, 3, 7)
    assert verdict.distance == 7  # 1 and 4 are not cyclic run sums of (2,3)


def test_verify_violation_positions_are_real():
    rng = random.Random(23)
    for _ in range(60):
        sizes = [rng.randint(1, 6) for _ in range(rng.randint(1, 6))]
        s = DistanceSet(rng.sample(range(1, 12), rng.randint(1, 3)))
        verdict = verify_periodic_independent(BlockList(sizes), s)
        if not verdict.ok:
            x, y = verdict.violation
            assert (y - x) in set(s.distances)


def test_verify_matches_the_pair_scan():
    # same verdict and same violation pair as scanning unrolled periods
    rng = random.Random(29)
    violations = 0
    for _ in range(3000):
        blocks = BlockList([rng.randint(1, 12) for _ in range(rng.randint(1, 7))])
        s = DistanceSet(rng.sample(range(1, rng.choice([10, 30, 100])), rng.randint(1, 4)))
        verdict = verify_periodic_independent(blocks, s)
        expected = scan_periodic_independent(blocks, s)
        assert (verdict.ok, verdict.violation) == (expected.ok, expected.violation), (blocks, s)
        violations += not verdict.ok
    assert 0 < violations < 3000


def test_verify_stays_cheap_on_huge_inputs():
    # a pair scan over unrolled periods takes minutes on each of these
    assert verify_periodic_independent(BlockList([2, 6] * 100_000), DistanceSet([1, 3, 5])).ok
    big = DistanceSet([1, 3, 10**12 + 1])
    assert verify_periodic_independent(BlockList([2]), big).ok
    # 10**12 is a multiple of the period 5; 2 is not
    verdict = verify_periodic_independent(BlockList([5]), DistanceSet([2, 10**12]))
    assert verdict.violation == (0, 10**12)


@pytest.mark.parametrize("depth", [600, 10_000])
def test_deep_nesting_parses_without_recursion(depth):
    assert parse_block_notation("(" * depth + "2" + ")^1" * depth).sizes == (2,)
    with pytest.raises(ExpansionLimitError) as err:
        parse_block_notation("(" * depth + "2" + ")^2" * depth)
    assert err.value.needed == 2**depth
    with pytest.raises(BlockSyntaxError) as err:
        parse_block_notation("(" * depth + "2" + ")^2" * (depth - 1))
    assert "expected ')'" in str(err.value)
    assert err.value.offset == 1 + depth + 3 * (depth - 1)


def test_blocklist_notation_round_trip():
    bl = BlockList([2, 2, 2, 5, 3, 3])
    assert bl.notation() == "2^3 5 3^2"
    assert parse_block_notation(bl.notation()).sizes == bl.sizes
