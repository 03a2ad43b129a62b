"""Top-level independence-ratio pipeline.

Every question takes one route: factor out gcd(S); answer all-odd reduced
sets with the even integers (ratio 1/2); otherwise solve the reduced set
exactly with the gap-state engine, and run the two-sided interval/circulant
search only when that engine refuses the set, with a note that names the
refusal.  Witnesses found for the reduced set are rescaled so the report's
witness is always a verified periodic independent set for the set that was
asked about.  Several questions asked together share the gap engine's
Howard runs (independence_ratios); one question is a batch of one.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .core import (
    DEFAULT_EXPANSION_CAP,
    BlockList,
    DistanceSet,
    ExpansionLimitError,
    normalize,
    verify_periodic_independent,
)
from .search import RatioReport, SearchBudget, compute_ratio
from .stategraph import (  # noqa: F401  perfbench/spans.py hooks independence_ratio_exact here
    DEFAULT_CAPS,
    EngineCaps,
    StateSpaceError,
    independence_ratio_exact,
    independence_ratios_exact,
)


class InexactResultError(RuntimeError):
    """An exact value was required but only bounds are available."""

    def __init__(self, report: RatioReport):
        super().__init__(
            f"exact ratio unavailable for {report.distances}: "
            f"bounds [{report.lower}, {report.upper}]"
        )
        self.report = report


def scale_block_witness(blocks: BlockList, divisor: int) -> BlockList:
    """Witness for d*S from a witness for S (same density).

    Each element x of the period becomes the cluster d*x, d*x+1, ...,
    d*x+d-1; cluster-internal gaps are 1 and each original gap g becomes
    d*g - (d-1) across clusters.  That is d times as many blocks, refused
    with ExpansionLimitError before any is built when more than
    DEFAULT_EXPANSION_CAP.
    """
    if divisor == 1:
        return blocks
    needed = divisor * blocks.count
    if needed > DEFAULT_EXPANSION_CAP:
        raise ExpansionLimitError(needed, DEFAULT_EXPANSION_CAP)
    sizes = []
    for g in blocks.sizes:
        sizes.extend([1] * (divisor - 1))
        sizes.append(divisor * g - (divisor - 1))
    return BlockList(sizes)


def _exact_report(distances: DistanceSet, value: Fraction, witness: BlockList, method: str) -> RatioReport:
    return RatioReport(
        distances=distances,
        status="exact",
        value=value,
        lower=value,
        upper=value,
        lower_witness=witness,
        upper_witness_n=None,
        method=method,
        counters={},
    )


def independence_ratios(
    sets: Sequence[DistanceSet],
    new_budget: Callable[[], Optional[SearchBudget]] = SearchBudget,
    caps: EngineCaps = DEFAULT_CAPS,
) -> list[RatioReport]:
    """The report independence_ratio gives for each set, in set order.

    The gap-engine sets are solved together (independence_ratios_exact).
    Then, in set order, a set the engine refused goes to the search with a
    budget of its own from new_budget(), and every witness is rescaled and
    verified, so an error is raised at the set that meets it first.
    """
    normalized = [normalize(distances) for distances in sets]
    exact = iter(independence_ratios_exact([ns.reduced for ns in normalized if not ns.all_odd], caps))
    reports = []
    for distances, ns in zip(sets, normalized):
        reduced, divisor = ns.reduced, ns.divisor
        if ns.all_odd:
            # the even integers, scaled by the divisor below
            report = _exact_report(reduced, Fraction(1, 2), BlockList([2]), "shortcut")
            notes = []
        else:
            notes = [f"gcd {divisor} factored out; computed on {reduced}"] if divisor > 1 else []
            answer = next(exact)
            if isinstance(answer, StateSpaceError):
                report = compute_ratio(reduced, budget=new_budget())
                notes.append(f"gap-state engine refused: {answer}")
            else:
                report = _exact_report(reduced, *answer, "stategraph")

        witness = scale_block_witness(report.lower_witness, divisor)
        if not verify_periodic_independent(witness, distances).ok:
            raise AssertionError(f"internal error: witness for {distances} failed verification")
        reports.append(replace(report, distances=distances, lower_witness=witness,
                               note="; ".join(notes) or None))
    return reports


def independence_ratio(
    distances: DistanceSet,
    budget: Optional[SearchBudget] = None,
    caps: EngineCaps = DEFAULT_CAPS,
) -> RatioReport:
    """Independence ratio of G(S): exact where possible, else certified bounds."""
    [report] = independence_ratios([distances], lambda: budget, caps)
    return report


def fractional_chromatic(
    distances: DistanceSet, budget: Optional[SearchBudget] = None, caps: EngineCaps = DEFAULT_CAPS
) -> Fraction:
    """Reciprocal of the independence ratio; demands an exact ratio."""
    report = independence_ratio(distances, budget=budget, caps=caps)
    if report.status != "exact":
        raise InexactResultError(report)
    return 1 / report.value
