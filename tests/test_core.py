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
    structure_from_sizes,
    verify_periodic_independent,
)


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
    bs = parse_block_notation("(2 3)^5 7 (3 4)^2")
    bl = bs.expand()
    assert bl.count == 15
    assert bl.period == 46

    bs = parse_block_notation("3")
    assert bs.expand().sizes == (3,)

    assert parse_block_notation("2^3").expand().sizes == (2, 2, 2)
    assert parse_block_notation("(2)^3").expand().sizes == (2, 2, 2)


@pytest.mark.parametrize(
    "text",
    ["", "(2 3", "2^0", "0", "(2 3))^2", "2^", "()^2", "(2 3)", "2 ^x", "03"],
)
def test_parse_errors_carry_offsets(text):
    with pytest.raises(BlockSyntaxError) as err:
        parse_block_notation(text)
    assert err.value.offset >= 0


def test_expansion_cap():
    bs = parse_block_notation("2^999999999")
    with pytest.raises(ExpansionLimitError):
        bs.expand()
    # but a configured cap admits larger expansions
    bl = parse_block_notation("2^2000000").expand(cap=3_000_000)
    assert bl.count == 2_000_000


def test_block_density_examples():
    assert BlockList([2, 2, 5]).density() == Fraction(1, 3)
    assert BlockList([3]).density() == Fraction(1, 3)
    bl = parse_block_notation("(2 3)^5 7 (3 4)^2").expand()
    assert bl.density() == Fraction(15, 46)


def test_block_density_concatenation_invariant():
    rng = random.Random(7)
    for _ in range(30):
        sizes = [rng.randint(1, 9) for _ in range(rng.randint(1, 8))]
        one = BlockList(sizes)
        two = BlockList(sizes * 2)
        assert one.density() == two.density()
        d = one.density()
        assert d.numerator == one.count // __import__("math").gcd(one.count, one.period)


def test_render_parse_round_trip():
    rng = random.Random(13)

    def random_structure(depth):
        from dgratio.core import BlockStructure, Literal, Power

        items = []
        for _ in range(rng.randint(1, 4)):
            if depth > 0 and rng.random() < 0.4:
                body = random_structure(depth - 1)
                items.append(Power(body, rng.randint(1, 4)))
            else:
                items.append(Literal(rng.randint(1, 9)))
        return BlockStructure(tuple(items))

    for _ in range(60):
        bs = random_structure(2)
        text = bs.render()
        reparsed = parse_block_notation(text)
        assert reparsed.expand().sizes == bs.expand().sizes


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


def test_structure_from_sizes():
    bs = structure_from_sizes([2, 3, 2])
    assert bs.expand().sizes == (2, 3, 2)
    with pytest.raises(ValueError):
        structure_from_sizes([0])


def test_blocklist_notation_round_trip():
    bl = BlockList([2, 2, 2, 5, 3, 3])
    assert bl.notation() == "2^3 5 3^2"
    assert parse_block_notation(bl.notation()).expand().sizes == bl.sizes
