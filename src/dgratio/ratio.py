"""Top-level independence-ratio pipeline.

Order of attack: factor out gcd(S); answer all-odd reduced sets with the
even integers (ratio 1/2); solve small max(S) exactly on the state graph;
fall back to the two-sided interval/circulant search.  Witnesses found for
the reduced set are rescaled so the report's witness is always a verified
periodic independent set for the set that was asked about.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .core import BlockList, DistanceSet, normalize, verify_periodic_independent
from .search import RatioReport, SearchBudget, compute_ratio
from .stategraph import DEFAULT_CAPS, EngineCaps, StateSpaceError, independence_ratio_exact

METHODS = ("auto", "search", "stategraph")


def scale_block_witness(blocks: BlockList, divisor: int) -> BlockList:
    """Witness for d*S from a witness for S (same density).

    Each element x of the period becomes the cluster d*x, d*x+1, ...,
    d*x+d-1; cluster-internal gaps are 1 and each original gap g becomes
    d*g - (d-1) across clusters.
    """
    if divisor == 1:
        return blocks
    sizes = []
    for g in blocks.sizes:
        sizes.extend([1] * (divisor - 1))
        sizes.append(divisor * g - (divisor - 1))
    return BlockList(sizes)


def _all_odd_witness(divisor: int) -> BlockList:
    # clusters of d consecutive integers every 2d positions, density 1/2
    return BlockList([1] * (divisor - 1) + [divisor + 1])


def _check_witness(witness: BlockList, distances: DistanceSet) -> None:
    if not verify_periodic_independent(witness, distances).ok:
        raise AssertionError(f"internal error: witness for {distances} failed verification")


def independence_ratio(
    distances: DistanceSet,
    method: str = "auto",
    budget: Optional[SearchBudget] = None,
    caps: EngineCaps = DEFAULT_CAPS,
) -> RatioReport:
    """Independence ratio of G(S): exact where possible, else certified bounds."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    ns = normalize(distances)
    reduced, divisor = ns.reduced, ns.divisor

    if ns.all_odd:
        witness = _all_odd_witness(divisor)
        _check_witness(witness, distances)
        note = None
        if method != "auto":
            note = "all-odd set answered by the parity shortcut; no search run"
        return RatioReport(
            distances=distances,
            status="exact",
            value=Fraction(1, 2),
            lower=Fraction(1, 2),
            upper=Fraction(1, 2),
            lower_witness=witness,
            upper_witness_n=None,
            method="shortcut",
            counters={},
            note=note,
        )

    note = None
    if divisor > 1:
        note = f"gcd {divisor} factored out; computed on {reduced}"

    if method in ("auto", "stategraph") and reduced.max_element <= caps.independence_max_element:
        try:
            value, witness = independence_ratio_exact(reduced, caps)
        except StateSpaceError:
            if method == "stategraph":
                raise
        else:
            witness = scale_block_witness(witness, divisor)
            _check_witness(witness, distances)
            return RatioReport(
                distances=distances,
                status="exact",
                value=value,
                lower=value,
                upper=value,
                lower_witness=witness,
                upper_witness_n=None,
                method="stategraph",
                counters={},
                note=note,
            )
    elif method == "stategraph":
        raise StateSpaceError(
            f"max(S) = {reduced.max_element} exceeds the independence cap "
            f"{caps.independence_max_element}",
            required=1 << reduced.max_element,
        )

    report = compute_ratio(reduced, budget=budget)
    witness = scale_block_witness(report.lower_witness, divisor)
    _check_witness(witness, distances)
    return RatioReport(
        distances=distances,
        status=report.status,
        value=report.value,
        lower=report.lower,
        upper=report.upper,
        lower_witness=witness,
        upper_witness_n=report.upper_witness_n,
        method="search",
        counters=report.counters,
        note=note,
    )
