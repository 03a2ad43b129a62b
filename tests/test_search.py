"""Branch-and-bound solvers and the two-sided ratio schedule."""

import inspect
import itertools
import math
import random
import sys
from fractions import Fraction
import pytest

from dgratio.core import BlockList, DistanceSet, verify_periodic_independent
from dgratio.registry import closed_form
from dgratio.stategraph import independence_ratio_exact
from dgratio.search import (
    FALLBACK_NODE_BUDGET,
    AlphaTable,
    BudgetExceeded,
    SearchBudget,
    _alpha_circulant_solution,
    _circulant_jump,
    _circulant_lower,
    _circulant_masks,
    _split_runs,
    _Windows,
    alpha_interval,
    compute_ratio,
)

from oracles import (
    RecursiveAlphaTable,
    beta,
    brute_force_alpha_interval,
    round_by_round_ratio,
    searched_interval_alpha,
)


def alpha_circulant(distances, n, table=None):
    """alpha(G(n,S)) on Z_n, through the solver's circulant step."""
    return _alpha_circulant_solution(distances, n, table or AlphaTable(distances), SearchBudget(), 0)[0]


def test_alpha_interval_examples():
    assert alpha_interval(DistanceSet([1, 2]), 7, AlphaTable(DistanceSet([1, 2]))) == 3
    assert alpha_interval(DistanceSet([1, 2, 3]), 9, AlphaTable(DistanceSet([1, 2, 3]))) == 3
    assert alpha_interval(DistanceSet([1, 4, 7]), 8, AlphaTable(DistanceSet([1, 4, 7]))) == 3


def test_alpha_interval_monotone_steps():
    rng = random.Random(19)
    for _ in range(15):
        s = DistanceSet(rng.sample(range(1, 9), rng.randint(1, 3)))
        table = AlphaTable(s)
        alpha_interval(s, 30, table)
        seq = table.interval_alpha
        assert seq[1] == 1
        for a, b in zip(seq, seq[1:]):
            assert b - a in (0, 1)


def test_brute_force_examples():
    assert brute_force_alpha_interval(DistanceSet([1]), 5) == 3
    assert brute_force_alpha_interval(DistanceSet([1, 2]), 4) == 2
    assert brute_force_alpha_interval(DistanceSet([2, 3]), 10) == 4
    with pytest.raises(ValueError):
        brute_force_alpha_interval(DistanceSet([1]), 27)


def test_oracle_equivalence_sampled():
    rng = random.Random(101)
    for _ in range(50):
        s = DistanceSet(rng.sample(range(1, 9), rng.randint(1, 3)))
        n = rng.randint(1, 20)
        table = AlphaTable(s)
        assert alpha_interval(s, n, table) == brute_force_alpha_interval(s, n), (s, n)


@pytest.mark.parametrize("combo", [(1,), (1, 2), (1, 3), (2, 3), (1, 4, 7), (5, 6, 9), (2, 5, 11), (3, 4, 10)])
def test_search_keeps_the_recursive_node_order(combo):
    distances = DistanceSet(combo)
    n = 3 * distances.max_element + 12
    runs = []
    for table in (AlphaTable(distances), RecursiveAlphaTable(distances)):
        budget = SearchBudget()
        alpha_interval(distances, n, table, budget)
        circulants = [
            _alpha_circulant_solution(distances, m, table, budget, 0)
            for m in range(distances.max_element + 1, distances.max_element + 9)
        ]
        iv, chosen = table.interval_alpha, []
        found = table._search((1 << n) - 1, iv[n], table._nbr, iv, budget, chosen)
        runs.append((iv, circulants, found, chosen, budget.nodes))
    assert runs[0] == runs[1]
    assert runs[0][2] and len(runs[0][3]) == runs[0][0][n]


def test_search_runs_out_of_budget_where_the_recursion_did():
    distances = DistanceSet([5, 6, 9])
    tables = []
    for table in (AlphaTable(distances), RecursiveAlphaTable(distances)):
        budget = SearchBudget(max_nodes=777)
        with pytest.raises(BudgetExceeded):
            alpha_interval(distances, 200, table, budget)
        tables.append((table.interval_alpha, budget.nodes))
    assert tables[0] == tables[1]


def _schedule_until_the_budget_runs_out(table, distances, budget):
    # compute_ratio's order of circulant and interval searches, with its
    # cut of circulant rounds that cannot raise the lower bound and its
    # jump to Z_q once the upper bound reads p/q, kept going past the point
    # where its bounds would meet
    s = distances.max_element
    lower, upper = Fraction(1, s + 1), Fraction(1)
    circulants, jumped = [], set()
    with pytest.raises(BudgetExceeded):
        for n in itertools.count(1):
            if n > s:
                need = lower.numerator * n // lower.denominator + 1
                found = _alpha_circulant_solution(distances, n, table, budget, need)
                circulants.append(found)
                if found is not None:
                    lower = Fraction(found[0], n)
            alpha_interval(distances, 2 * n, table, budget)
            iv = table.interval_alpha
            upper = min(upper, Fraction(iv[2 * n - 1], 2 * n - 1), Fraction(iv[2 * n], 2 * n))
            q = upper.denominator
            if lower < upper and max(n, s) < q <= n + s and q not in jumped:
                jumped.add(q)
                found = _alpha_circulant_solution(distances, q, table, budget, upper.numerator)
                circulants.append(found)
                if found is not None:
                    lower = Fraction(found[0], q)
    return table.interval_alpha, table.prefix_alpha, circulants, budget.nodes


@pytest.mark.parametrize("combo", [(1, 17, 36), (19, 22), (21, 22), (2, 5, 24)])
def test_search_matches_the_recursion_on_heavy_sets(combo):
    # sets from the search benchmark pool; over a compute_ratio run the
    # popcount cuts decide 31% to 84% of their children without a run scan
    distances = DistanceSet(combo)
    runs = [
        _schedule_until_the_budget_runs_out(table, distances, SearchBudget(max_nodes=150_000))
        for table in (AlphaTable(distances), RecursiveAlphaTable(distances))
    ]
    assert runs[0] == runs[1]
    assert runs[0][3] == 150_001


def test_search_matches_the_recursion_on_random_sets():
    # compute_ratio's schedule, run until a 20k-node budget runs out, visits
    # the same nodes with a beta carried along the stack as with a scan of
    # every child
    rng = random.Random(2024)
    with_circulants = 0
    for _ in range(16):
        top = rng.randint(4, 40)
        distances = DistanceSet(rng.sample(range(1, top + 1), rng.randint(2, 4)))
        runs = [
            _schedule_until_the_budget_runs_out(table, distances, SearchBudget(max_nodes=20_000))
            for table in (AlphaTable(distances), RecursiveAlphaTable(distances))
        ]
        assert runs[0] == runs[1], distances
        assert runs[0][3] == 20_001
        with_circulants += any(runs[0][2])
    assert with_circulants >= 10


def test_split_runs_match_the_run_scan():
    # a child's beta, built from its parent's by splitting the runs its
    # neighbours leave, equals a scan of the child's candidates
    rng = random.Random(8)
    seen = set()
    for combo in [(1, 4), (1, 17, 36), (21, 22), (2, 5, 11), (3, 4, 10)]:
        distances = DistanceSet(combo)
        table = AlphaTable(distances)
        n = 3 * distances.max_element + 5
        iv = table.interval_alpha
        alpha_interval(distances, n, table)
        for masks, circulant in ((table._nbr, False), (_circulant_masks(distances, n), True)):
            for _ in range(300):
                v = rng.randint(2, n)  # the vertex taken; its child keeps rest ^ hits
                density = rng.uniform(0.5, 1.0)
                rest = sum(1 << i for i in range(v - 1) if rng.random() < density)
                hits = rest & masks[v]
                below = rest ^ hits
                assert _split_runs(iv, beta(iv, rest), rest, hits) == beta(iv, below), (combo, v, bin(rest))
                if hits >> (v - 2) & 1:
                    seen.add("new top bit")
                if hits & 1:
                    seen.add("bit 0")
                if hits & (hits >> 1):
                    seen.add("adjacent")
                if circulant and hits & ~table._nbr[v]:
                    seen.add("wrap")
    assert seen == {"new top bit", "bit 0", "adjacent", "wrap"}


class _SnapshotTable(AlphaTable):
    """Keeps a copy of interval_alpha at every search call."""

    def __init__(self, distances):
        super().__init__(distances)
        self.snapshots = []

    def _search(self, *args):
        self.snapshots.append(list(self.interval_alpha))
        return super()._search(*args)


@pytest.mark.parametrize("combo", [(1,), (1, 3), (2, 3), (5, 6, 9), (2, 5, 11), (3, 4, 10)])
def test_popcount_cuts_agree_with_the_run_scan(combo):
    distances = DistanceSet(combo)
    table = _SnapshotTable(distances)
    alpha_interval(distances, 40, table)
    # mid interval step: the top entry is the sentinel a(m-1) + 1, in some
    # steps above the true alpha
    tables = [iv for iv in table.snapshots if len(iv) > 2]
    assert any(iv[-1] > brute_force_alpha_interval(distances, len(iv) - 1) for iv in tables[:20])
    for n in range(distances.max_element + 1, distances.max_element + 6):
        alpha_circulant(distances, n, table)
        tables.append(list(table.interval_alpha))  # after a circulant step: no sentinel
    rng = random.Random(sum(combo))
    for iv in tables:
        top = len(iv) - 1
        # a run of r candidates adds iv[r] to beta, and the cuts read iv at
        # the popcount: candidate sets are never wider than the table
        assert iv == [beta(iv, (1 << r) - 1) for r in range(top + 1)]
        for _ in range(40):
            width = rng.randint(1, top)
            density = rng.uniform(0.3, 1.0)
            b = sum(1 << i for i in range(width) if rng.random() < density)
            pc, scanned = b.bit_count(), beta(iv, b)
            for k in range(pc + 2):
                if pc < k:  # the reject cut
                    assert scanned < k, (iv, bin(b), k)
                if iv[pc] >= k:  # the accept cut
                    assert scanned >= k, (iv, bin(b), k)


def test_candidates_wider_than_the_table_are_refused():
    # runs are valued by interval_alpha itself, so no run may outgrow it;
    # the check raises under python -O too
    distances = DistanceSet([1, 3])
    table = AlphaTable(distances)
    alpha_interval(distances, 10, table)
    with pytest.raises(ValueError, match="exceed the table"):
        table._search((1 << 11) - 1, 5, table._nbr, table.interval_alpha, SearchBudget(), [])


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    distances = DistanceSet([1, 3])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        with pytest.raises(RecursionError):
            alpha_interval(distances, 600, RecursiveAlphaTable(distances))
        assert alpha_interval(distances, 600, AlphaTable(distances)) == 300
    finally:
        sys.setrecursionlimit(limit)
    # thousands of vertices deep, past the default recursion limit
    assert alpha_interval(distances, 2500, AlphaTable(distances)) == 1250


def test_alpha_circulant_examples():
    assert alpha_circulant(DistanceSet([1, 4]), 5) == 2
    assert alpha_circulant(DistanceSet([1, 2]), 6) == 2
    # frozen from the exhaustive oracle below (with rotation symmetry the
    # maximum over Z_15 with generators {1,4,7} is five vertices)
    assert alpha_circulant(DistanceSet([1, 4, 7]), 15) == 5


def _brute_circulant(distances, n):
    bad = set()
    for d in distances.distances:
        bad.add(d % n)
        bad.add((n - d) % n)
    bad.discard(0)
    best = 0

    def rec(v, chosen):
        nonlocal best
        if v == n:
            best = max(best, len(chosen))
            return
        rec(v + 1, chosen)
        if all((v - u) % n not in bad and (u - v) % n not in bad for u in chosen):
            chosen.append(v)
            rec(v + 1, chosen)
            chosen.pop()

    rec(0, [])
    return best


def test_alpha_circulant_against_brute_force():
    rng = random.Random(55)
    seen = 0
    while seen < 12:
        s = DistanceSet(rng.sample(range(1, 7), rng.randint(1, 3)))
        n = rng.randint(s.max_element + 1, 14)
        assert alpha_circulant(s, n) == _brute_circulant(s, n), (s, n)
        seen += 1
    assert _brute_circulant(DistanceSet([1, 4, 7]), 15) == 5


def test_circulant_rounds_are_cut_exactly_below_need():
    # need = alpha answers with a maximum independent set of Z_n; any
    # larger need is cut, often before the last prefix is searched
    rng = random.Random(31)
    cut_early = 0
    for _ in range(40):
        s = DistanceSet(rng.sample(range(1, 8), rng.randint(1, 3)))
        n = rng.randint(s.max_element + 1, 15)
        alpha = _brute_circulant(s, n)
        size, solution = _alpha_circulant_solution(s, n, AlphaTable(s), SearchBudget(), alpha)
        xs = sorted(solution)
        gaps = [b - a for a, b in zip(xs, xs[1:])] + [n - xs[-1] + xs[0]]
        assert size == alpha == len(set(xs)), (s, n)
        assert verify_periodic_independent(BlockList(gaps), s).ok, (s, n, xs)
        full = SearchBudget()
        _alpha_circulant_solution(s, n, AlphaTable(s), full, 0)
        for need in (alpha + 1, alpha + 3):
            budget = SearchBudget()
            assert _alpha_circulant_solution(s, n, AlphaTable(s), budget, need) is None, (s, n, need)
            assert budget.nodes <= full.nodes
        cut_early += budget.nodes < full.nodes
    assert cut_early >= 10


def test_alpha_circulant_requires_large_n():
    with pytest.raises(ValueError):
        alpha_circulant(DistanceSet([1, 4]), 4)


def test_circulant_prefix_table_shape():
    s = DistanceSet([1, 4])
    table = AlphaTable(s)
    alpha_circulant(s, 9, table)
    first = list(table.prefix_alpha)
    assert len(first) == 10 and first[0] == 0
    for a, b in zip(first[1:], first[2:]):
        assert 0 <= b - a <= 1
    alpha_circulant(s, 11, table)  # prefix values are per-n, fully replaced
    assert len(table.prefix_alpha) == 12


def test_compute_ratio_examples():
    assert compute_ratio(DistanceSet([1, 2, 3])).value == Fraction(1, 4)
    assert compute_ratio(DistanceSet([1, 4, 7])).value == Fraction(3, 8)
    assert compute_ratio(DistanceSet([1, 2, 5])).value == Fraction(1, 3)


def test_compute_ratio_report_invariants():
    rng = random.Random(7)
    for _ in range(12):
        s = DistanceSet(rng.sample(range(1, 9), rng.randint(1, 3)))
        report = compute_ratio(s)
        assert report.lower <= report.upper
        assert verify_periodic_independent(report.lower_witness, s).ok
        assert report.lower_witness.density() == report.lower
        if report.status == "exact":
            assert report.value == report.lower == report.upper


def test_compute_ratio_budget_is_a_status_not_an_error():
    report = compute_ratio(DistanceSet([2, 9, 13]), budget=SearchBudget(max_nodes=40))
    assert report.status == "bounded"
    assert report.value is None
    assert report.lower <= report.upper
    assert verify_periodic_independent(report.lower_witness, DistanceSet([2, 9, 13])).ok


def test_budget_error_leaves_a_resumable_table():
    # the caller's table keeps every completed entry and drops the open
    # sentinel, so the same table resumes where the budget ran out
    s = DistanceSet([2, 9, 13])
    table = AlphaTable(s)
    budget = SearchBudget(max_nodes=25)
    with pytest.raises(BudgetExceeded):
        alpha_interval(s, 30, table, budget)
    assert budget.nodes == 26
    done = table.interval_alpha
    assert len(done) >= 1
    assert done == [brute_force_alpha_interval(s, n) for n in range(len(done))]
    assert alpha_interval(s, 30, table) == alpha_interval(s, 30, AlphaTable(s))


def test_budget_below_one_node_is_refused():
    for nodes in (0, -5):
        with pytest.raises(ValueError, match="at least 1"):
            SearchBudget(max_nodes=nodes)


def test_subset_monotonicity_through_search():
    rng = random.Random(123)
    pairs = 0
    while pairs < 10:
        big = sorted(rng.sample(range(1, 9), 3))
        small = sorted(rng.sample(big, 2))
        r_small = compute_ratio(DistanceSet(small))
        r_big = compute_ratio(DistanceSet(big))
        if r_small.status == r_big.status == "exact":
            assert r_small.value >= r_big.value
            pairs += 1


def test_search_matches_known_family_values():
    # spot checks against closed forms, including one beyond the window cert
    assert compute_ratio(DistanceSet([1, 4, 23])).value == Fraction(3, 8)
    assert compute_ratio(DistanceSet([1, 4, 25])).value == Fraction(5, 13)


def test_interval_proofs_keep_the_searched_table_on_random_sets():
    # subadditivity alone, then with the windows of a verified circulant
    # witness (not always the best one) adopted before the table is filled
    rng = random.Random(28)
    proved = [0, 0]
    for _ in range(200):
        distances = DistanceSet(rng.sample(range(1, 15), rng.randint(1, 4)))
        searched = searched_interval_alpha(distances, 40)
        n = rng.randint(distances.max_element + 1, 2 * distances.max_element + 1)
        found = _alpha_circulant_solution(distances, n, AlphaTable(distances), SearchBudget(), 0)
        for with_witness in (False, True):
            table = AlphaTable(distances)
            if with_witness:
                table.adopt_witness(_circulant_lower(distances, n, found)[1])
            alpha_interval(distances, 40, table)
            assert table.interval_alpha == searched, (distances, with_witness)
            proved[with_witness] += table.proved
    assert 0 < proved[0] < proved[1]


@pytest.mark.parametrize(
    "combo, budget",
    [((10, 11, 29), None), ((3, 14, 23), None), ((1, 17, 36), 100_000)],
    ids=lambda arg: ",".join(map(str, arg)) if isinstance(arg, tuple) else str(arg),
)
def test_interval_proofs_keep_the_searched_table_on_search_sets(combo, budget):
    # the witness is compute_ratio's verified lower witness ({1,17,36}
    # runs out of a reduced budget first); the windows settle steps that
    # subadditivity leaves open
    distances = DistanceSet(combo)
    searched = searched_interval_alpha(distances, 120)
    report = compute_ratio(distances, budget and SearchBudget(max_nodes=budget))
    # {10,11,29} closes on Z_40 in round 20, before a step needs a proof
    assert (report.counters["interval_proved"] > 0) == (combo != (10, 11, 29))
    witness = report.lower_witness
    assert verify_periodic_independent(witness, distances).ok
    proved = []
    for adopt in (False, True):
        table = AlphaTable(distances)
        if adopt:
            table.adopt_witness(witness)
        alpha_interval(distances, 120, table)
        assert table.interval_alpha == searched
        proved.append(table.proved)
    assert 0 < proved[0] < proved[1]


def test_window_spans_match_a_count_over_every_window():
    # c elements of the periodic set fit in a window of m integers exactly
    # when span(c) < m: compared with the best of every window of m
    rng = random.Random(5)
    for _ in range(300):
        gaps = [rng.randint(1, 6) for _ in range(rng.randint(1, 8))]
        witness = BlockList(gaps)
        period, xs = witness.period, witness.positions()
        members = {x + period * r for x in xs for r in range(-1, 5)}
        windows = _Windows(witness)
        for m in range(1, 3 * period + 2):
            best = max(sum(y in members for y in range(start, start + m)) for start in range(period))
            k, r = len(xs), m % period  # a best window starts at an element
            assert best == k * (m // period) + max(sum(x <= y < x + r for y in members) for x in xs)
            assert windows.span(best) < m <= windows.span(best + 1), (gaps, m)


def test_search_agrees_with_the_gap_engine_where_jumps_to_multiples_fire():
    # max(S) in 10..16: most ratios p/q have q <= max(S), so the jumps to
    # multiples of q run, hit or miss, in the rounds before max(S); an exact
    # answer must be the engine's value, and a bounded one must bracket it
    rng = random.Random(29)
    sets = set()
    while len(sets) < 60:
        combo = tuple(sorted(rng.sample(range(1, 17), rng.randint(2, 4))))
        if combo[-1] >= 10 and math.gcd(*combo) == 1 and not all(d % 2 for d in combo):
            sets.add(combo)
    exact = 0
    for combo in sorted(sets):
        distances = DistanceSet(combo)
        value, _ = independence_ratio_exact(distances)
        report = compute_ratio(distances, SearchBudget(max_nodes=100_000))
        if report.status == "exact":
            assert report.value == value, combo
            exact += 1
        else:
            assert report.lower <= value <= report.upper, combo
    assert exact >= 50


def test_interval_resistant_sets_stay_bounded():
    # for this set alpha(G(S)[m])/m exceeds 4/11 at every m (the boundary
    # defect never vanishes), so interval bounds never meet the circulant
    # lower bound, which still reaches 4/11 with a verified witness
    s = DistanceSet([5, 6, 9])
    report = compute_ratio(s, budget=SearchBudget(max_nodes=20_000))
    assert report.status == "bounded"
    assert report.lower == Fraction(4, 11) < report.upper
    assert report.note is None
    assert report.lower_witness.density() == Fraction(4, 11)
    assert verify_periodic_independent(report.lower_witness, s).ok


def test_search_counters_report_the_work_done():
    # max(S) = 24 is past the gap-state engine's element cap; the search
    # closes it alone and reports only its own counters
    report = compute_ratio(DistanceSet([5, 6, 24]))
    assert report.status == "exact"
    assert report.counters["circulant_rounds"] == 5
    assert report.counters["circulant_cut"] == 1
    assert report.counters["circulant_jumps"] == 2  # Z_28 for 3/7 and Z_25 for 2/5, both misses
    assert report.counters["interval_proved"] > 0
    assert set(report.counters) == {
        "nodes", "interval_max_n", "interval_proved", "circulant_rounds", "circulant_cut", "circulant_jumps"
    }
    assert report.note is None


# the ten light sets of the search benchmark that cost the round-by-round
# schedule the fewest nodes (388 to 2,631), sets it closes only past round
# max(S), where a jump can close them sooner, light sets whose ratio p/q
# has q <= max(S), which a jump to a multiple of q closes, and one whose
# interval bound meets a circulant lower bound (no jump may then replace
# the round's witness by one of a longer period)
_JUMP_SETS = [
    (1, 2, 25), (1, 4, 32), (1, 4, 26), (2, 5, 23), (2, 33), (3, 10, 25), (5, 8, 24), (5, 14, 23),
    (3, 24, 25), (4, 7, 23), (19, 22), (21, 22), (12, 19), (17, 22), (1, 31, 36), (5, 6, 24),
    (10, 11, 29), (7, 10, 39), (9, 17, 30), (11, 20, 25), (5, 17, 28), (1, 23, 36), (3, 14, 23),
]


@pytest.mark.parametrize("combo", _JUMP_SETS, ids=lambda combo: ",".join(map(str, combo)))
def test_jumps_keep_the_round_by_round_answers(combo):
    # a jump to Z_kq that hits finds the witness round kq would have found,
    # and one that misses changes no bound
    distances = DistanceSet(combo)
    report = compute_ratio(distances, SearchBudget(max_nodes=FALLBACK_NODE_BUDGET))
    got = (report.status, report.value, report.lower, report.upper, report.lower_witness, report.upper_witness_n)
    assert got == round_by_round_ratio(distances, SearchBudget(max_nodes=FALLBACK_NODE_BUDGET))


@pytest.mark.parametrize(
    "combo, value, nodes, jumps",
    [((19, 22), Fraction(20, 41), 364_312, 9), ((21, 22), Fraction(21, 43), 806_178, 11)],
    ids=["19,22", "21,22"],
)
def test_jumps_close_the_capped_pairs_in_round_max_s(combo, value, nodes, jumps):
    # the round-by-round schedule spends 772,638 and 1,560,626 nodes and
    # closes these in round q, after the intervals up to 2q - 2; a jump hit
    # on Z_q closes them once an interval of round max(S) or just before
    # reads the value: {21,22} in round 22, after ten misses (four of them
    # on Z_24, a multiple of the loose early bounds 7/8, 3/4, 7/12 and 1/2)
    distances = DistanceSet(combo)
    report = compute_ratio(distances, SearchBudget(max_nodes=FALLBACK_NODE_BUDGET))
    assert report.status == "exact" and report.value == value
    assert report.lower_witness.period == value.denominator == report.upper_witness_n
    assert report.counters == {
        "nodes": nodes,
        "interval_max_n": value.denominator + 1,  # round (q + 1) / 2 < q
        "interval_proved": 0,  # subadditivity settles no step, and no round hands on a witness
        "circulant_rounds": 0,
        "circulant_cut": 0,
        "circulant_jumps": jumps,
    }


@pytest.mark.parametrize(
    "combo, z_q_nodes",
    [((10, 11, 29), 28_218), ((7, 10, 39), 32_032), ((9, 17, 30), 27_387), ((11, 20, 25), 23_764), ((5, 17, 28), 5_113),
     ((1, 23, 36), 5_281)],
    ids=lambda arg: ",".join(map(str, arg)) if isinstance(arg, tuple) else str(arg),
)
def test_jumps_to_multiples_close_light_sets_sooner(combo, z_q_nodes):
    # the ratio p/q has q <= max(S), so Z_q is never searched; once the
    # upper bound reads p/q, a jump to the least multiple kq > max(n, max(S))
    # closes the set with fewer nodes than a search that jumps only to Z_q
    # (z_q_nodes), which waits for round kq or an interval of length 3q
    distances = DistanceSet(combo)
    report = compute_ratio(distances, SearchBudget(max_nodes=FALLBACK_NODE_BUDGET))
    assert report.status == "exact" and report.value.denominator <= distances.max_element
    assert report.lower_witness.period % report.value.denominator == 0
    assert report.counters["nodes"] < z_q_nodes


def test_a_jump_gives_up_after_its_node_limit():
    # for {22,23,29}, Z_48 holds fewer than 22 vertices (11/24 is an upper
    # bound of round 24, not the ratio), and its search takes 104,986 nodes
    # to show it; nodes spent under the limit count against the budget
    distances = DistanceSet([22, 23, 29])
    table = AlphaTable(distances)
    alpha_interval(distances, 48, table)
    budget = SearchBudget(max_nodes=FALLBACK_NODE_BUDGET)
    assert _circulant_jump(distances, 48, table, budget, 22, FALLBACK_NODE_BUDGET) is None
    assert budget.nodes == 104_986
    budget = SearchBudget(max_nodes=FALLBACK_NODE_BUDGET, nodes=7)
    assert _circulant_jump(distances, 48, table, budget, 22, 10_000) is None
    assert budget.nodes == 7 + 10_001
    budget = SearchBudget(max_nodes=5_000)
    with pytest.raises(BudgetExceeded):
        _circulant_jump(distances, 48, table, budget, 22, 10_000)
    assert budget.nodes == 5_001
    # a hit within the limit is the circulant's own answer
    distances = DistanceSet([10, 11, 29])
    table = AlphaTable(distances)
    alpha_interval(distances, 40, table)
    found = _circulant_jump(distances, 40, table, SearchBudget(), 18, 10_000)
    assert found is not None and found == _alpha_circulant_solution(distances, 40, table, SearchBudget(), 18)


@pytest.mark.parametrize(
    "combo, budget, lower, upper",
    [((8, 17, 28, 29), 200_000, Fraction(1, 3), Fraction(7, 19)), ((16, 22, 27), 500_000, Fraction(11, 31), Fraction(9, 22))],
    ids=["8,17,28,29", "16,22,27"],
)
def test_jump_misses_leave_a_bounded_search_its_bounds(combo, budget, lower, upper):
    # the bounds a search that jumps only to Z_q reaches within the budget;
    # with no node limit on the jumps to multiples, their misses (Z_46 for
    # {8,17,28,29}, Z_38 and Z_44 for {16,22,27}) spend the budget before
    # the first circulant round, and the lower bound stays 1/(max(S) + 1)
    report = compute_ratio(DistanceSet(combo), SearchBudget(max_nodes=budget))
    assert report.status == "bounded"
    assert (report.lower, report.upper) == (lower, upper)


@pytest.mark.parametrize("combo, value", [((1, 6, 31), Fraction(13, 32)), ((1, 31, 36), Fraction(28, 67))])
def test_conjecture_points_close_under_the_default_budget(combo, value):
    # circulant rounds that cannot raise the lower bound are cut, so the
    # default budget reaches the interval that meets it; both values are
    # the paper's conjectured ones (1-6-k at k = 31, 1-k-kp5 at k = 31)
    distances = DistanceSet(combo)
    report = compute_ratio(distances, SearchBudget(max_nodes=FALLBACK_NODE_BUDGET))
    assert report.status == "exact" and report.value == value
    assert report.lower_witness.density() == value
    assert verify_periodic_independent(report.lower_witness, distances).ok
    assert closed_form(distances).value == value


def test_huge_generators_stay_cheap_and_bounded():
    report = compute_ratio(
        DistanceSet([1, 500000]), budget=SearchBudget(max_nodes=20000)
    )
    assert report.status == "bounded"
    assert report.lower >= Fraction(1, 500001)
    assert report.upper <= Fraction(1, 2)
