"""Closed-form catalog: matching, predictions, witnesses, verification."""

import itertools
import time
from fractions import Fraction

import pytest

from dgratio.appendix import TABLE, table_set, table_value
from dgratio.core import DistanceSet, verify_periodic_independent
from dgratio.registry import (
    CONJECTURE,
    THEOREM,
    ResidueRule,
    UnknownFamilyError,
    closed_form,
    get_family,
    list_families,
    verify_family,
)

from oracles import family_inverse

EXPECTED_IDS = {
    "all-odd", "consecutive", "two-generators", "interval-and-k", "1-2-3k",
    "1-3-2i", "1-5-2i", "1-4-k", "1-k-kp1", "1-k-kp3", "1-2k-2kp2l",
    "one-and-multiples", "arith-and-b", "a-b-apb", "a-b-bma-apb",
    "1-2m-range", "interval", "punctured-multiples", "punctured-interval",
    "1-6-k", "1-8-k", "1-k-kp5", "1-k-kp7", "1-odd-2i", "1-2k-2kp2l-conj",
    "zhu-3k1-lower", "zhu-3k1-upper", "zhu-3k2-lower", "zhu-3k2-upper",
    "zhu-mixed-lower", "zhu-mixed-upper", "zhu-generic-lower",
    "zhu-generic-upper", "lim-1-odd-2k", "lim-1-2i-k", "lim-1-k-kpodd",
}


def test_catalog_is_complete_and_unique():
    fams = list_families()
    ids = [f.id for f in fams]
    assert len(ids) == len(set(ids))
    assert set(ids) == EXPECTED_IDS
    # conjectures are never tagged as theorems
    for fam in fams:
        if fam.id in ("1-6-k", "1-8-k", "1-k-kp5", "1-k-kp7", "1-odd-2i",
                      "1-2k-2kp2l-conj"):
            assert fam.kind == CONJECTURE


def test_unknown_family():
    with pytest.raises(UnknownFamilyError):
        get_family("no-such-family")


def test_closed_form_examples():
    pred = closed_form(DistanceSet([1, 4, 12]))
    assert pred.family_id == "1-4-k"
    assert pred.value == Fraction(5, 13)

    pred = closed_form(DistanceSet([1, 3, 5]))
    assert pred.family_id == "all-odd"
    assert pred.value == Fraction(1, 2)

    assert closed_form(DistanceSet([2, 3, 7])) is None


def _round_trip_families():
    return [fam for fam in list_families() if fam.decode is not None]


def test_bound_and_limit_families_have_no_matcher():
    # closed_form consults theorem and conjecture families only
    for fam in list_families():
        if fam.kind not in (THEOREM, CONJECTURE):
            assert fam.decode is None, fam.id


@pytest.mark.parametrize("fam", _round_trip_families(), ids=lambda fam: fam.id)
def test_matcher_round_trips(fam):
    hi = 30 if len(fam.parameters) < 3 else 12
    for params in fam.sweep(0, hi):
        assert fam.match(fam.build_set(params)) == params
    for size in range(1, 5):
        for members in itertools.combinations(range(1, 16), size):
            distances = DistanceSet(members)
            params = fam.match(distances)
            if params is not None:
                assert fam.build_set(params) == distances, params


def test_match_and_closed_form_agree_with_the_brute_force_inverse():
    # every family's sets from parameters in [0, 14] cover every set within
    # {1..14} that the family holds, since no parameter exceeds max(S)
    families = _round_trip_families()
    assert len(families) == 25 and families[0].id == "all-odd"
    inverses = [family_inverse(fam, 14) for fam in families]
    for size in range(1, 5):
        for members in itertools.combinations(range(1, 15), size):
            distances = DistanceSet(members)
            first = None
            for fam, inverse in zip(families, inverses):
                listed = inverse.get(members, [])
                params = fam.match(distances)
                assert (params is None) == (not listed), (fam.id, members, params)
                assert params is None or params in listed, (fam.id, members, params)
                if first is None and listed:
                    first = (fam, params)
            pred = closed_form(distances)
            if pred is not None and pred.params:
                # parameters always rebuild the set they were reported for
                assert get_family(pred.family_id).build_set(pred.params) == distances, members
            if distances.is_all_odd():
                # the all-odd family's parameters, or none when S is not {1, 2k+1, 2k+3}
                params = inverses[0].get(members, [{}])[0]
                assert (pred.family_id, pred.kind, pred.params, pred.value) == (
                    "all-odd", THEOREM, params, Fraction(1, 2)), members
            elif first is None:
                assert pred is None, members
            else:
                fam, params = first
                assert (pred.family_id, pred.params, pred.value) == (
                    fam.id, params, fam.predicted(params)), members


def test_closed_form_is_cheap_on_huge_sparse_sets():
    # no decoder or rebuilt set spans max(S): each answer reads O(|S|) elements
    expected = {
        (2, 10**9): None,
        (2, 4, 10**9): None,
        (1, 2, 10**9 - 1, 10**9): ("punctured-interval", {"m": 10**9, "k": 3, "kp": 10**9 - 2}),
    }
    for members, want in expected.items():
        started = time.process_time()
        pred = closed_form(DistanceSet(members))
        assert time.process_time() - started < 0.1, members
        assert (pred and (pred.family_id, pred.params)) == want, (members, pred)


def test_list_family_value_examples():
    fam = get_family("1-4-k")
    assert fam.predicted({"k": 10}) == Fraction(4, 11)
    fam = get_family("1-k-kp1")
    assert fam.predicted({"k": 2}) == Fraction(1, 4)
    fam = get_family("1-k-kp5")
    assert not fam.in_domain({"k": 7})
    assert not fam.in_domain({"k": 12})
    assert fam.in_domain({"k": 8})


RESIDUE_FAMILIES = ("1-4-k", "1-k-kp1", "1-k-kp3", "1-6-k", "1-8-k", "1-k-kp5", "1-k-kp7")


def _product(x, y):
    """Coefficients of (x0 + x1 q)(y0 + y1 q), constant first."""
    return (x[0] * y[0], x[0] * y[1] + x[1] * y[0], x[1] * y[1])


def test_residue_rule_witnesses_attain_their_values_for_every_k():
    # with q = k // m and k = m q + r, a class's block count and period are
    # affine in q; the witness density equals (a k + b)/(c k + d) at every k
    # exactly when count (c k + d) = period (a k + b) as polynomials in q
    classes = 0
    for fid in RESIDUE_FAMILIES:
        fam = get_family(fid)
        rule = fam.value_rule.__self__
        assert isinstance(rule, ResidueRule) and fam.witness_builder.__self__ is rule, fid
        m = rule.modulus
        assert len(rule.values) == m, fid
        if rule.witnesses is None:
            continue
        assert len(rule.witnesses) == m, fid
        for r, ((a, b, c, d), pattern) in enumerate(zip(rule.values, rule.witnesses)):
            count, period = [0, 0], [0, 0]  # constant term, coefficient of q
            for part in pattern:
                body, j, per_q = ((part,), 1, 0) if isinstance(part, int) else (*part, 1)
                count[0] += len(body) * j
                count[1] += len(body) * per_q
                period[0] += sum(body) * j
                period[1] += sum(body) * per_q
            num, den = (a * r + b, a * m), (c * r + d, c * m)  # a k + b and c k + d in q
            assert _product(count, den) == _product(period, num), (fid, r)
            classes += 1
    assert classes == 20


def test_residue_rule_witnesses_are_independent_up_to_200():
    points = 0
    for fid in RESIDUE_FAMILIES:
        fam = get_family(fid)
        if fam.value_rule.__self__.witnesses is None:
            continue
        for params in fam.sweep(0, 200):
            blocks = fam.witness(params)
            distances = fam.build_set(params)
            assert verify_periodic_independent(blocks, distances).ok, (fid, params)
            assert blocks.density() == fam.predicted(params), (fid, params)
            points += 1
    assert points == 196 + 199 + 198 + 190


def test_residue_rule_has_no_witness_where_a_repeat_is_negative():
    rule = ResidueRule(5, ((0, 1, 0, 2),) * 5, ((((2, 3), -1), 3),) * 5)
    assert rule.witness({"k": 4}) is None
    assert rule.witness({"k": 5}).sizes == (3,)
    assert rule.witness({"k": 11}).sizes == (2, 3, 3)
    assert rule.value({"k": 11}) == Fraction(1, 2)
    assert ResidueRule(5, rule.values).witness({"k": 11}) is None


def test_exception_lists_emit_no_prediction():
    for fid, bad in [("1-6-k", 7), ("1-6-k", 17), ("1-8-k", 32), ("1-k-kp7", 25)]:
        fam = get_family(fid)
        assert not fam.in_domain({"k": bad})
        assert all(p["k"] != bad for p in fam.sweep(bad, bad))


def test_verify_family_examples():
    verdicts = verify_family("1-3-2i", 2, 8)
    assert len(verdicts) == 7
    assert all(v.agreement == "match" for v in verdicts)
    assert all(v.predicted == Fraction(p["i"], 2 * p["i"] + 3) for v, p in
               ((v, v.params) for v in verdicts))

    verdicts = verify_family("1-k-kp1", 2, 12)
    assert all(v.agreement == "match" for v in verdicts)

    verdicts = verify_family("consecutive", 1, 6)
    assert all(v.agreement == "match" for v in verdicts)
    assert [v.predicted for v in verdicts] == [Fraction(1, l + 1) for l in range(1, 7)]


def test_conjecture_mismatch_is_a_finding_not_a_failure():
    # the bundled reference table contradicts this conjecture point: the
    # set {1,8,11} is also {1,k,k+3} at k=8, a proven 7/19
    verdicts = verify_family("1-8-k", 11, 11)
    assert len(verdicts) == 1
    v = verdicts[0]
    assert v.agreement == "mismatch"
    assert v.predicted == Fraction(5, 12)
    assert v.computed == Fraction(7, 19)
    assert not v.is_failure

    pred = closed_form(DistanceSet([1, 8, 11]))
    assert pred.family_id == "1-k-kp3"
    assert pred.value == Fraction(7, 19)


def test_theorem_families_verify_with_witnesses():
    sweeps = [
        ("1-4-k", 5, 16),
        ("1-k-kp1", 2, 13),
        ("1-k-kp3", 3, 13),
        ("1-5-2i", 5, 9),
        ("1-2k-2kp2l", 1, 5),
        ("one-and-multiples", 2, 5),
        ("interval", 2, 7),
        ("punctured-multiples", 2, 9),
        ("punctured-interval", 2, 9),
        ("two-generators", 1, 7),
        ("interval-and-k", 2, 8),
        ("1-2-3k", 1, 5),
        ("a-b-apb", 1, 7),
        ("a-b-bma-apb", 1, 6),
        ("1-2m-range", 1, 4),
        ("arith-and-b", 1, 6),
    ]
    for fid, lo, hi in sweeps:
        verdicts = verify_family(fid, lo, hi)
        assert verdicts, fid
        for v in verdicts:
            assert v.agreement == "match", (fid, v.params, v.predicted, v.computed)
            assert v.witness_ok in (True, None), (fid, v.params)
            assert not v.is_failure


def test_bound_families_hold():
    for fid in ("zhu-3k1-lower", "zhu-3k1-upper", "zhu-3k2-lower", "zhu-3k2-upper"):
        verdicts = verify_family(fid, 1, 4)
        assert verdicts, fid
        for v in verdicts:
            assert v.agreement == "match", (fid, v.params, v.predicted, v.computed)

    for fid in ("zhu-mixed-lower", "zhu-mixed-upper"):
        verdicts = verify_family(fid, 1, 6)
        assert verdicts, fid
        for v in verdicts:
            assert v.agreement == "match", (fid, v.params, v.predicted, v.computed)


def test_conjecture_sweeps_match_over_wider_ranges():
    # beyond the acceptance ranges; k=31 of the {1,6,k} family needs tens of
    # millions of search nodes to close, so these stop short of it
    for fid, lo, hi in (("1-6-k", 7, 30), ("1-k-kp5", 6, 17), ("1-k-kp7", 8, 15)):
        verdicts = verify_family(fid, lo, hi)
        assert verdicts, fid
        for v in verdicts:
            assert v.agreement == "match", (fid, v.params, v.predicted, v.computed)


def test_limit_families_carry_verified_lower_witnesses():
    for fid in ("lim-1-odd-2k", "lim-1-2i-k", "lim-1-k-kpodd"):
        fam = get_family(fid)
        assert fam.kind == "limit"
        verdicts = verify_family(fid, 1, 6)
        assert verdicts, fid
        for v in verdicts:
            assert v.witness_ok is not False, (fid, v.params)
            # the predicted value is the witness's density
            assert fam.witness(v.params).density() == v.predicted, (fid, v.params)
            # lower-bound semantics: witness density certified below the ratio
            assert v.agreement in ("match", "unresolved"), (fid, v.params)
        assert any(v.agreement == "match" for v in verdicts)


def test_limit_witness_densities_approach_the_limit():
    fam = get_family("lim-1-odd-2k")
    dens = [fam.predicted({"i": 1, "k": k}) for k in (5, 20, 80)]
    assert dens[0] < dens[1] < dens[2] < Fraction(1, 2)


def test_catalog_predictions_match_bundled_table():
    hits = 0
    for (k, i), (num, den, exact) in sorted(TABLE.items()):
        if not exact:
            continue
        pred = closed_form(table_set(k, i))
        if pred is not None and pred.kind == THEOREM:
            assert pred.value == Fraction(num, den), (k, i, pred)
            hits += 1
    assert hits >= 40


def test_every_bundled_exact_cell_reproduces_through_the_pipeline():
    from dgratio.ratio import independence_ratio

    for (k, i), (num, den, exact) in sorted(TABLE.items()):
        if not exact:
            continue
        report = independence_ratio(table_set(k, i))
        assert report.status == "exact", (k, i)
        assert report.value == Fraction(num, den), (k, i, report.value)


def test_odd_generator_conjecture_point_matches():
    # smallest in-domain point of the odd-l family that fits the exact engine
    verdicts = verify_family("1-odd-2i", 7, 11)
    points = [v for v in verdicts if v.params == {"l": 7, "i": 11}]
    assert points and points[0].agreement == "match"
    assert points[0].witness_ok


def test_even_pair_conjecture_findings():
    # beyond the proven l<=3 range the conjecture has real counterexamples:
    # at (k,l)=(5,4) the engine (and the bundled table cell (9,8)) give 4/11,
    # strictly above the conjectured 5/14; the stated witness is still a
    # valid lower-bound structure
    verdicts = {tuple(sorted(v.params.items())): v
                for v in verify_family("1-2k-2kp2l-conj", 4, 5)}
    good = verdicts[(("k", 4), ("l", 4))]
    assert good.agreement == "match" and good.witness_ok
    finding = verdicts[(("k", 5), ("l", 4))]
    assert finding.agreement == "mismatch"
    assert finding.predicted == Fraction(5, 14)
    assert finding.computed == Fraction(4, 11)
    assert finding.witness_ok  # independent and at the conjectured density
    assert not finding.is_failure
    assert table_value(9, 8) == (Fraction(4, 11), True)


def test_odd_generator_conjecture_finding():
    # in the coded domain (odd l >= 7, 2i >= 3l) the conjecture predicts
    # 14/37 for {1,9,28}, at (l, i) = (9, 14), but a 50k-node search
    # already reaches a verified periodic witness of density 11/29 > 14/37
    from dgratio.ratio import independence_ratio
    from dgratio.search import SearchBudget

    [finding] = verify_family("1-odd-2i", 9, 14, budget_nodes=50_000)
    assert finding.params == {"l": 9, "i": 14}
    assert finding.agreement == "mismatch"
    assert finding.predicted == Fraction(14, 37)
    assert finding.witness_ok  # the stated witness is independent at 14/37
    assert not finding.is_failure
    distances = DistanceSet([1, 9, 28])
    report = independence_ratio(distances, budget=SearchBudget(max_nodes=50_000))
    assert report.lower == report.lower_witness.density() == Fraction(11, 29) > finding.predicted
    assert verify_periodic_independent(report.lower_witness, distances).ok


def test_red_cells_are_treated_as_lower_bounds_only():
    from dgratio.ratio import independence_ratio

    # (19,1) in the bundled table is a lower-bound-only 7/22 for {1,20,21};
    # the exact engine closes it and must not fall below the recorded bound
    value, exact = table_value(19, 1)
    assert not exact
    report = independence_ratio(table_set(19, 1))
    assert report.lower >= value
    assert report.status == "exact" and report.value == value
