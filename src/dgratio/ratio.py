"""Top-level independence-ratio pipeline.

Every question takes one route: factor out gcd(S); answer all-odd reduced
sets with the even integers (ratio 1/2); otherwise solve the reduced set
exactly with the gap-state engine, and run the two-sided interval/circulant
search only when that engine refuses the set, with a note that names the
refusal.  Witnesses found for the reduced set are rescaled so the report's
witness is always a verified periodic independent set for the set that was
asked about.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import Optional

from .core import (
    DEFAULT_EXPANSION_CAP,
    BlockList,
    DistanceSet,
    ExpansionLimitError,
    normalize,
    verify_periodic_independent,
)
from .search import RatioReport, SearchBudget, compute_ratio
from .stategraph import DEFAULT_CAPS, EngineCaps, StateSpaceError, independence_ratio_exact


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


def independence_ratio(
    distances: DistanceSet,
    budget: Optional[SearchBudget] = None,
    caps: EngineCaps = DEFAULT_CAPS,
) -> RatioReport:
    """Independence ratio of G(S): exact where possible, else certified bounds."""
    ns = normalize(distances)
    reduced, divisor = ns.reduced, ns.divisor

    if ns.all_odd:
        # the even integers, scaled by the divisor below
        report = _exact_report(reduced, Fraction(1, 2), BlockList([2]), "shortcut")
        notes = []
    else:
        notes = [f"gcd {divisor} factored out; computed on {reduced}"] if divisor > 1 else []
        try:
            value, witness = independence_ratio_exact(reduced, caps)
        except StateSpaceError as exc:
            # caps=None: the engine has just refused this set; the search must not ask again
            report = compute_ratio(reduced, budget=budget, caps=None)
            notes.append(f"gap-state engine refused: {exc}")
        else:
            report = _exact_report(reduced, value, witness, "stategraph")

    witness = scale_block_witness(report.lower_witness, divisor)
    if not verify_periodic_independent(witness, distances).ok:
        raise AssertionError(f"internal error: witness for {distances} failed verification")
    return replace(report, distances=distances, lower_witness=witness, note="; ".join(notes) or None)


def fractional_chromatic(
    distances: DistanceSet, budget: Optional[SearchBudget] = None, caps: EngineCaps = DEFAULT_CAPS
) -> Fraction:
    """Reciprocal of the independence ratio; demands an exact ratio."""
    report = independence_ratio(distances, budget=budget, caps=caps)
    if report.status != "exact":
        raise InexactResultError(report)
    return 1 / report.value
