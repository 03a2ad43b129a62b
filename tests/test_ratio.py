"""The top-level pipeline: normalization, shortcuts, engine routing."""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import dgratio
from dgratio.core import DistanceSet, verify_periodic_independent
from dgratio.ratio import independence_ratio, scale_block_witness
from dgratio.search import SearchBudget, compute_ratio
from dgratio.stategraph import EngineCaps, StateSpaceError, independence_ratio_exact


def test_all_odd_shortcut():
    report = independence_ratio(DistanceSet([3, 5, 7]))
    assert report.status == "exact"
    assert report.value == Fraction(1, 2)
    assert report.method == "shortcut"
    assert verify_periodic_independent(report.lower_witness, DistanceSet([3, 5, 7])).ok


def test_gcd_reduction_with_all_odd_core():
    report = independence_ratio(DistanceSet([2, 6]))
    assert report.value == Fraction(1, 2)
    assert verify_periodic_independent(report.lower_witness, DistanceSet([2, 6])).ok
    assert report.lower_witness.density() == Fraction(1, 2)


def test_scaled_witness_structure():
    report = independence_ratio(DistanceSet([2, 8]))  # reduces to {1,4}
    assert report.value == Fraction(2, 5)
    assert verify_periodic_independent(report.lower_witness, DistanceSet([2, 8])).ok
    assert report.lower_witness.density() == Fraction(2, 5)


def test_scale_block_witness_density_preserved():
    rng = random.Random(3)
    from dgratio.core import BlockList

    for _ in range(30):
        sizes = [rng.randint(1, 7) for _ in range(rng.randint(1, 6))]
        blocks = BlockList(sizes)
        for d in (1, 2, 3, 5):
            scaled = scale_block_witness(blocks, d)
            assert scaled.density() == blocks.density()


def test_scaled_witness_is_capped_before_it_is_built():
    from dgratio.core import BlockList, ExpansionLimitError

    # each block becomes d blocks, refused by their count past 10^6
    with pytest.raises(ExpansionLimitError) as info:
        scale_block_witness(BlockList([3]), 10**6 + 1)
    assert (info.value.needed, info.value.cap) == (10**6 + 1, 10**6)
    # a divisor past any list that fits in memory is refused by its count
    huge = 10**20 - 1
    with pytest.raises(ExpansionLimitError) as info:
        independence_ratio(DistanceSet([huge]))
    assert info.value.needed == huge
    report = independence_ratio(DistanceSet([10**6]))
    assert report.value == Fraction(1, 2) and report.lower_witness.count == 10**6


def test_method_routing():
    small = independence_ratio(DistanceSet([1, 4, 7]))
    assert small.method == "stategraph"
    forced = compute_ratio(DistanceSet([1, 4, 7]))
    assert forced.method == "search"
    assert forced.value == small.value


def test_search_method_keeps_the_search_note():
    # compute_ratio called directly runs its gap-state rescue and says so
    certified = "upper bound certified by the exact gap-state engine"
    report = compute_ratio(DistanceSet([5, 6, 9]))
    assert report.note == certified
    report = compute_ratio(DistanceSet([10, 12, 18]))
    assert report.value == Fraction(4, 11)
    assert report.note == certified


def test_stategraph_cap_raises_when_forced():
    with pytest.raises(StateSpaceError):
        independence_ratio_exact(DistanceSet([1, 4, 30]))


def test_auto_falls_back_to_search_beyond_cap():
    report = independence_ratio(DistanceSet([1, 4, 25]))
    assert report.method == "search"
    assert report.value == Fraction(5, 13)
    assert report.note == "gap-state engine refused: max(S) = 25 exceeds the independence cap 22"


def test_fallback_note_names_the_refusal_after_the_gcd_note():
    report = independence_ratio(DistanceSet([2, 8, 50]))
    assert report.method == "search"
    assert report.value == Fraction(5, 13)
    assert report.note == (
        "gcd 2 factored out; computed on {1,4,25}; "
        "gap-state engine refused: max(S) = 25 exceeds the independence cap 22"
    )
    report = independence_ratio(DistanceSet([19, 22]))
    assert report.method == "search"
    assert report.note == (
        "gap-state engine refused: independence state space for {19,22} has 589824 states, "
        "over the cap of 400000"
    )
    # answers that need no fallback carry no refusal
    assert independence_ratio(DistanceSet([1, 4, 7])).note is None
    assert independence_ratio(DistanceSet([2, 8, 14])).note == "gcd 2 factored out; computed on {1,4,7}"
    assert independence_ratio(DistanceSet([3, 5])).note is None


def test_parity_shortcut_does_not_grow_with_max_s():
    started = time.process_time()
    report = independence_ratio(DistanceSet([1, 3, 1000001]))
    assert time.process_time() - started < 0.5
    assert report.method == "shortcut"
    assert report.value == Fraction(1, 2)


def test_caps_reach_the_search_rescue(monkeypatch):
    # {5,6,9} needs the gap-state bound to close (see test_search.py), and
    # more than 10 gap states; record the cap of every gap-state count
    counted = []
    count_states = dgratio.stategraph._gap_state_masks
    monkeypatch.setattr(
        dgratio.stategraph, "_gap_state_masks", lambda d, cap: counted.append(cap) or count_states(d, cap)
    )
    small = EngineCaps(independence_max_states=10)
    s = DistanceSet([5, 6, 9])
    # auto: the gap engine refuses the set once, and the search does not ask again
    report = independence_ratio(s, budget=SearchBudget(max_nodes=5000), caps=small)
    assert counted == [10]
    assert report.status == "bounded"
    assert report.counters["window_certificate"] is False
    assert report.note.startswith("gap-state engine refused: independence state space for {5,6,9} has ")
    # search: the rescue runs under the caller's caps, which refuse the set
    counted.clear()
    report = compute_ratio(s, budget=SearchBudget(max_nodes=5000), caps=small)
    assert counted == [10]
    assert report.status == "bounded"
    assert report.counters["window_certificate"] is False
    # the same budget suffices under the default caps
    counted.clear()
    report = compute_ratio(s, budget=SearchBudget(max_nodes=5000))
    assert counted == [400_000]
    assert report.value == Fraction(4, 11)
    assert report.counters["window_certificate"] is True


def test_bounded_status_propagates():
    report = independence_ratio(
        DistanceSet([2, 9, 25]), budget=SearchBudget(max_nodes=30)
    )
    assert report.status == "bounded"
    assert report.method == "search"


def test_verified_blocklist_density_never_exceeds_ratio():
    # any independent periodic structure is a lower bound for the ratio
    rng = random.Random(9)
    checked = 0
    from dgratio.core import BlockList

    while checked < 25:
        s = DistanceSet(rng.sample(range(1, 10), rng.randint(1, 3)))
        sizes = [rng.randint(1, 8) for _ in range(rng.randint(1, 5))]
        blocks = BlockList(sizes)
        if not verify_periodic_independent(blocks, s).ok:
            continue
        report = independence_ratio(s)
        assert report.status == "exact"
        assert blocks.density() <= report.value, (s, sizes)
        checked += 1


# Runs under python -O, which strips assert statements: every witness check in
# the pipeline must still refuse a witness the verifier rejects.
_REJECT_UNDER_O = """
import dgratio.core, dgratio.ratio, dgratio.search, dgratio.stategraph
from dgratio.core import DistanceSet, IndependenceVerdict
from dgratio.ratio import independence_ratio

if __debug__:
    raise SystemExit("asserts are on; run with python -O")

def reject(blocks, distances):
    return IndependenceVerdict(ok=False, violation=(0, 1))

def ask(label, members):
    try:
        report = independence_ratio(DistanceSet(members))
    except AssertionError:
        print(label, members, "raised")
    else:
        print(label, members, "returned", report.value)

# the pipeline's own re-check, after each engine: state graph, shortcut, search
dgratio.ratio.verify_periodic_independent = reject
for members in ([1, 4, 7], [3, 5, 7], [1, 4, 25]):
    ask("ratio", members)
# every verifier rejects: the engines refuse before the pipeline sees a witness
for module in (dgratio.core, dgratio.search, dgratio.stategraph):
    module.verify_periodic_independent = reject
for members in ([1, 4, 7], [1, 4, 25]):
    ask("all", members)
"""


def test_rejected_witnesses_raise_under_python_O():
    package_root = os.path.dirname(os.path.dirname(dgratio.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _REJECT_UNDER_O],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 5, proc.stdout
    assert all(line.endswith(" raised") for line in lines), proc.stdout
