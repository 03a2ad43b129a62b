"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every comparison is exact rational equality; there are no tolerances
anywhere in this module.
"""

import random
from fractions import Fraction
from itertools import combinations

from dgratio.appendix import TABLE, table_set
from dgratio.cli import run as cli_run
from dgratio.core import DistanceSet, verify_periodic_independent
from dgratio.ratio import fractional_chromatic, independence_ratio
from dgratio.registry import get_family, verify_family
from dgratio.search import (
    AlphaTable,
    SearchBudget,
    alpha_interval,
    compute_ratio,
)
from dgratio.stategraph import (
    independence_ratio_exact,
    min_dominating_density,
    min_identifying_density,
    verify_periodic_identifying,
)

from oracles import brute_force_alpha_interval


def _verdict(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number}: {status} - {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_appendix_black_cells():
    bad = []
    checked = 0
    for (k, i), (num, den, exact) in sorted(TABLE.items()):
        if not exact or k > 6 or i > 10:
            continue
        checked += 1
        report = independence_ratio(table_set(k, i))
        if report.status != "exact" or report.value != Fraction(num, den):
            bad.append((k, i, str(report.value), f"{num}/{den}"))
    _verdict(
        1,
        f"bundled exact cells (k<=6, i<=10) reproduced: {checked} cells",
        checked >= 40 and not bad,
        f"mismatches={bad}" if bad else "",
    )


def test_criterion_2_family_1_4_k():
    verdicts = verify_family("1-4-k", 5, 40)
    bad = [(v.params, str(v.predicted), str(v.computed)) for v in verdicts
           if v.agreement != "match"]
    _verdict(
        2,
        f"{{1,4,k}} residue rule for k=5..40: {len(verdicts)} points",
        len(verdicts) == 36 and not bad,
        f"mismatches={bad}" if bad else "",
    )


def test_criterion_3_family_1_k_kp1():
    verdicts = verify_family("1-k-kp1", 2, 20)
    bad = [(v.params, str(v.predicted), str(v.computed)) for v in verdicts
           if v.agreement != "match"]
    _verdict(
        3,
        f"{{1,k,k+1}} residue rule for k=2..20: {len(verdicts)} points",
        len(verdicts) == 19 and not bad,
        f"mismatches={bad}" if bad else "",
    )


def test_criterion_4_families_1_3_2i_and_1_5_2i():
    v1 = verify_family("1-3-2i", 2, 10)
    v2 = verify_family("1-5-2i", 5, 10)
    bad = [(v.family, v.params) for v in v1 + v2 if v.agreement != "match"]
    ok = len(v1) == 9 and len(v2) == 6 and not bad
    _verdict(
        4,
        "{1,3,2i} (i=2..10) and {1,5,2i} (i=5..10) match i/(2i+3), i/(2i+5)",
        ok,
        f"mismatches={bad}" if bad else "",
    )


def test_criterion_5_oracle_equivalence():
    # interval minima stay above the ratio of these two sets at every length,
    # so the search alone leaves them bounded, with the ratio as its lower
    # bound; every other set closes in under 2,000 nodes
    interval_resistant = {(5, 6, 9), (5, 8, 9)}
    bad = []
    count = 0
    for size in (1, 2, 3):
        for combo in combinations(range(1, 10), size):
            s = DistanceSet(combo)
            if s.is_all_odd():
                continue
            count += 1
            exact_value, _ = independence_ratio_exact(s)
            report = compute_ratio(s, budget=SearchBudget(max_nodes=200_000))
            if combo in interval_resistant:
                agree = report.status == "bounded" and report.lower == exact_value < report.upper
            else:
                agree = report.status == "exact" and report.value == exact_value
            if not agree:
                bad.append((combo, str(exact_value), report.status, str(report.lower), str(report.upper)))
    rng = random.Random(2024)
    samples = 0
    while samples < 50:
        s = DistanceSet(rng.sample(range(1, 9), rng.randint(1, 3)))
        n = rng.randint(1, 18)
        got = alpha_interval(s, n, AlphaTable(s))
        want = brute_force_alpha_interval(s, n)
        if got != want:
            bad.append(("interval", s.distances, n, got, want))
        samples += 1
    _verdict(
        5,
        f"state graph == search on {count} sets (bounds around it on 2); interval == brute force on 50 samples",
        not bad,
        f"disagreements={bad[:4]}" if bad else "",
    )


def test_criterion_6_scaling_and_subset_invariants():
    rng = random.Random(66)
    bad = []
    scaled_checked = 0
    while scaled_checked < 20:
        s = DistanceSet(rng.sample(range(1, 9), rng.randint(1, 3)))
        base, _ = independence_ratio_exact(s)
        doubled, _ = independence_ratio_exact(s.scaled(2))
        if base != doubled:
            bad.append(("scale", s.distances, str(base), str(doubled)))
        scaled_checked += 1
    subset_checked = 0
    while subset_checked < 20:
        big = sorted(rng.sample(range(1, 10), 3))
        small = sorted(rng.sample(big, rng.randint(1, 2)))
        r_small = independence_ratio(DistanceSet(small))
        r_big = independence_ratio(DistanceSet(big))
        if not (r_small.status == r_big.status == "exact" and r_small.value >= r_big.value):
            bad.append(("subset", small, big))
        subset_checked += 1
    _verdict(
        6,
        "ratio(S) == ratio(2S) on 20 samples; ratio(S) >= ratio(T) on 20 chains",
        not bad,
        f"violations={bad[:4]}" if bad else "",
    )


def test_criterion_7_registry_witnesses():
    plans = {
        "1-4-k": [{"k": k} for k in (5, 7, 8, 12, 40)],
        "1-6-k": [{"k": k} for k in (8, 16, 24, 25, 33)],
        "1-k-kp1": [{"k": k} for k in (2, 3, 6, 11, 20)],
        "1-k-kp3": [{"k": k} for k in (3, 5, 7, 12, 14)],
        "1-3-2i": [{"i": i} for i in (2, 3, 5, 8, 10)],
        "1-5-2i": [{"i": i} for i in (5, 6, 7, 9, 10)],
        "1-2k-2kp2l": [
            {"k": 1, "l": 1}, {"k": 2, "l": 1}, {"k": 3, "l": 2},
            {"k": 4, "l": 3}, {"k": 6, "l": 3},
        ],
    }
    bad = []
    for fid, points in plans.items():
        fam = get_family(fid)
        for params in points:
            assert fam.in_domain(params), (fid, params)
            blocks = fam.witness(params)
            if blocks is None:
                bad.append((fid, params, "no witness"))
                continue
            s = fam.build_set(params)
            if not verify_periodic_independent(blocks, s).ok:
                bad.append((fid, params, "not independent"))
            elif blocks.density() != fam.predicted(params):
                bad.append((fid, params, "density mismatch"))
    _verdict(
        7,
        "table and block-structure witnesses verify at 5 parameters per family",
        not bad,
        f"failures={bad}" if bad else "",
    )


def test_criterion_8_domination_and_identifying():
    ok = True
    detail = []
    d1, _ = min_dominating_density(DistanceSet([1]))
    d2, _ = min_dominating_density(DistanceSet([1, 2]))
    if d1 != Fraction(1, 3):
        ok, _ = False, detail.append(f"dom({{1}})={d1}")
    if d2 != Fraction(1, 5):
        ok, _ = False, detail.append(f"dom({{1,2}})={d2}")

    engine, _ = min_identifying_density(DistanceSet([1]), 1)
    oracle = None
    for period in range(1, 13):
        for mask in range(1, 1 << period):
            members = sorted(i for i in range(period) if mask >> i & 1)
            gaps = [b - a for a, b in zip(members, members[1:])]
            gaps.append(period - members[-1] + members[0])
            from dgratio.core import BlockList

            blocks = BlockList(gaps)
            if verify_periodic_identifying(blocks, DistanceSet([1]), 1):
                cand = Fraction(len(members), period)
                if oracle is None or cand < oracle:
                    oracle = cand
    if engine != oracle:
        ok = False
        detail.append(f"idcode engine={engine} oracle={oracle}")
    _verdict(
        8,
        "dominating densities 1/3 and 1/5; identifying density equals the "
        f"period<=12 oracle ({engine})",
        ok,
        "; ".join(detail),
    )


def test_criterion_9_fractional_chromatic():
    values = (
        fractional_chromatic(DistanceSet([1, 2, 3])),
        fractional_chromatic(DistanceSet([1, 4])),
        fractional_chromatic(DistanceSet([3, 5, 7])),
    )
    ok = values == (Fraction(4), Fraction(5, 2), Fraction(2))
    _verdict(9, f"chi_f spot checks 4, 5/2, 2 (got {[str(v) for v in values]})", ok)


def test_criterion_10_table_determinism(tmp_path, capsys):
    a = tmp_path / "one.csv"
    b = tmp_path / "two.csv"
    assert cli_run(["table", "--k", "1..4", "--i", "1..8", "--out", str(a)]) == 0
    assert cli_run(["table", "--k", "1..4", "--i", "1..8", "--out", str(b)]) == 0
    capsys.readouterr()
    identical = a.read_bytes() == b.read_bytes()
    _verdict(10, "two identical `table --k 1..4 --i 1..8` runs are byte-identical", identical)
