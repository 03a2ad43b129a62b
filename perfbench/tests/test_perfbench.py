"""Self-tests of the benchmark: checkers, corpora, spans and the tail helper."""

import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import check, corpus, spans  # noqa: E402
from perfbench.run import CALIBRATION_REF_S, Runner, at_reference_speed, tail  # noqa: E402


@pytest.fixture(scope="module")
def refs():
    return check.References()


# {1,22}: gaps 2^10 3 give the optimum 11/23 (ratio recorded for the pool)
WITNESS_1_22 = [2] * 10 + [3]


def test_independence_check_accepts_the_true_answer(refs):
    v = Fraction(11, 23)
    check.check_independence(refs, (1, 22), (1, 22), "exact", v, v, v, WITNESS_1_22)


def test_independence_check_rejects_tampered_witness(refs):
    v = Fraction(11, 23)
    tampered = [1] + [2] * 9 + [4]  # same density, but two elements at distance 1
    with pytest.raises(check.Mismatch):
        check.check_independence(refs, (1, 22), (1, 22), "exact", v, v, v, tampered)


def test_independence_check_rejects_tampered_value(refs):
    # a claimed ratio the witness does not attain
    v = Fraction(12, 25)
    with pytest.raises(check.Mismatch):
        check.check_independence(refs, (1, 22), (1, 22), "exact", v, v, v, WITNESS_1_22)
    # a self-consistent answer that contradicts the reference
    v = Fraction(1, 3)
    with pytest.raises(check.Mismatch):
        check.check_independence(refs, (1, 22), (1, 22), "exact", v, v, v, [3])


def test_window_checks_reject_tampering(refs):
    check.check_window(refs, "domination", (1, 2), None, (Fraction(1, 5), [5]))
    with pytest.raises(check.Mismatch):
        check.check_window(refs, "domination", (1, 2), None, (Fraction(1, 6), [6]))
    with pytest.raises(check.Mismatch):
        check.check_window(refs, "domination", (1, 2), None, (Fraction(1, 4), [5]))
    check.check_window(refs, "coloring", (1, 2), 3, [0, 1, 2])
    with pytest.raises(check.Mismatch):
        check.check_window(refs, "coloring", (1, 2), 3, [0, 1, 1])
    with pytest.raises(check.Mismatch):
        check.check_window(refs, "coloring", (1, 2), 3, None)


def test_table_check_rejects_tampered_csv(refs):
    check.check_table_csv(refs, refs.table_csv)
    text = refs.table_csv.decode()
    with pytest.raises(check.Mismatch):
        check.check_table_csv(refs, text.replace("\n1,1,", "\n1,1, ", 1).encode())
    # if the recorded bytes themselves were wrong, the grid copy catches it
    refs_bad = check.References()
    refs_bad.table_csv = text.replace("1,1,\"1,2,3\",exact,1,4", "1,1,\"1,2,3\",exact,1,5").encode()
    with pytest.raises(check.Mismatch):
        check.check_table_csv(refs_bad, refs_bad.table_csv)


def test_identifying_checker():
    # {1}, r=1: every other vertex is an identifying code of density 1/2
    assert check.identifying([2], [1], 1)
    assert not check.identifying([3], [1], 1)


class Refusal(RuntimeError):
    """Stands in for the package's StateSpaceError."""


def raising_package(exc: Exception):
    """A package whose entry points all raise `exc`."""

    def entry(*args):
        raise exc

    return SimpleNamespace(DistanceSet=tuple, StateSpaceError=Refusal, independence_ratio=entry,
                           min_dominating_density=entry, min_identifying_density=entry, periodic_coloring=entry)


@pytest.mark.parametrize("exc", [ValueError("bad input"), AssertionError("internal error: witness failed"),
                                 Refusal("over the state cap")])
def test_a_question_that_raises_makes_the_run_incorrect(refs, exc):
    runner = Runner(raising_package(exc), refs)
    runner.sweep([corpus.Question("independence", ((1, 22),))])
    assert runner.failed == runner.mismatches == 1


def test_a_recorded_cap_refusal_fails_without_a_mismatch(refs):
    runner = Runner(raising_package(Refusal("over the state cap")), refs)
    runner.sweep([corpus.Question("coloring", ((1, 2, 3, 4, 5), 6))])
    assert (runner.failed, runner.mismatches) == (1, 0)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_is_a_function_of_the_seed(workload):
    first = corpus.build_corpus(workload, 7)
    assert first == corpus.build_corpus(workload, 7)
    assert first != corpus.build_corpus(workload, 8)


def test_gap_state_count_matches_known_sizes():
    assert corpus.gap_state_count((19, 22)) == 589_824
    assert corpus.gap_state_count((21, 22)) == 1_048_576
    assert corpus.gap_state_count((17, 22)) == 331_776
    assert corpus.gap_state_count((2, 5, 11)) == 52


def test_corpus_rejects_a_pool_member_outside_its_regime(monkeypatch):
    monkeypatch.setattr(corpus, "GAP_LARGE_STRATA", [(1, [(1, 18)])])  # 2,584 states
    with pytest.raises(ValueError):
        corpus.build_corpus("gap-large", 1)


def test_self_time_on_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    assert tracer.total["outer"] == 10.0
    assert tracer.self_s["outer"] == 7.0
    assert tracer.total["inner"] == tracer.self_s["inner"] == 3.0
    assert tracer.calls["inner"] == 2
    assert tracer.parent_calls[("inner", "outer")] == 2


def test_missing_hook_makes_its_metrics_absent():
    values, absent = spans.layer_values([spans.Tracer()], {"meancycle.csr"})
    assert "meancycle.csr.s" in absent and "meancycle.csr.edges" in absent
    assert "meancycle.csr.s" not in values
    assert values["meancycle.howard.s"]["value"] == 0


def test_tail_picks_highest_percentile_with_ten_samples_beyond():
    assert tail([float(x) for x in range(1, 101)]) == (90, 90.0)
    assert tail([float(x) for x in range(1, 201)]) == (95, 190.0)
    assert tail([float(x) for x in range(1, 21)]) == (50, 10.0)
    assert tail([float(x) for x in range(1, 20)]) is None


def test_times_scale_with_the_nearby_calibrations():
    ref = CALIBRATION_REF_S
    calls = [(0.0, 1.0, 1.0), (1.0, 3.0, 2.0)]
    assert at_reference_speed(calls, [(0.0, ref), (1.0, ref), (3.0, ref)]) == [1.0, 2.0]
    # a machine at half speed takes twice as long on kernel and question alike
    slow = [(0.0, 1.0, 2.0), (1.0, 3.0, 4.0)]
    assert at_reference_speed(slow, [(0.0, 2 * ref), (1.0, 2 * ref), (3.0, 2 * ref)]) == [1.0, 2.0]
    # each call follows the kernel runs near it, not those of the whole sweep
    calls = [(float(i), i + 0.5, 1.0) for i in range(10)]
    calibrations = [(i + 0.55, ref if i < 5 else 3 * ref) for i in range(-1, 10)]
    scaled = at_reference_speed(calls, calibrations)
    assert scaled[0] == 1.0 and scaled[-1] == pytest.approx(1 / 3)
