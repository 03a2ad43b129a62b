"""Answer checks that do not rely on the package's own verifiers.

Witnesses are periodic objects given by one period, so every check works
on residues modulo the period: a periodic set X with period P conflicts
with distance d exactly when two residues of X differ by d modulo P.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from pathlib import Path
from typing import Sequence

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class Mismatch(Exception):
    """An answer disagrees with its witness or with the recorded reference."""


def _residues(blocks: Sequence[int]) -> tuple[int, set[int]]:
    period = sum(blocks)
    members, x = set(), 0
    for size in blocks:
        if size < 1:
            raise Mismatch(f"block size {size} is not positive")
        members.add(x)
        x += size
    return period, members


def independent(blocks: Sequence[int], distances: Sequence[int]) -> bool:
    period, members = _residues(blocks)
    return not any((u + d) % period in members for u in members for d in distances)


def dominating(blocks: Sequence[int], distances: Sequence[int]) -> bool:
    period, members = _residues(blocks)
    deltas = [0] + [s * d for d in distances for s in (1, -1)]
    return all(any((u + e) % period in members for e in deltas) for u in range(period))


def ball(distances: Sequence[int], radius: int) -> set[int]:
    """Offsets within graph distance `radius` of 0 in G(S)."""
    reach = {0}
    for _ in range(radius):
        reach |= {x + s * d for x in reach for d in distances for s in (1, -1)}
    return reach


def identifying(blocks: Sequence[int], distances: Sequence[int], radius: int) -> bool:
    """Every ball meets the code, and no two balls meet it the same way.

    Balls of vertices more than twice the ball radius apart are disjoint,
    so nonempty intersections already tell them apart.
    """
    period, members = _residues(blocks)
    offsets = sorted(ball(distances, radius))
    reach = offsets[-1]

    def signature(u: int) -> frozenset:
        return frozenset(u + e for e in offsets if (u + e) % period in members)

    for u in range(period):
        tu = signature(u)
        if not tu or any(signature(v) == tu for v in range(u + 1, u + 2 * reach + 1)):
            return False
    return True


def proper_coloring(colors: Sequence[int], distances: Sequence[int], k: int) -> bool:
    period = len(colors)
    if period == 0 or any(not 0 <= c < k for c in colors):
        return False
    return all(colors[u] != colors[(u + d) % period] for u in range(period) for d in distances)


def density(blocks: Sequence[int]) -> Fraction:
    return Fraction(len(blocks), sum(blocks))


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def _load_json(name: str) -> dict:
    with open(REFERENCE_DIR / name) as handle:
        return json.load(handle)


def set_key(distances: Sequence[int]) -> str:
    return ",".join(str(d) for d in sorted(distances))


class References:
    """Recorded answers: the table CSV, the bundled grid and the pools."""

    def __init__(self):
        self.table_csv = (REFERENCE_DIR / "table_k1-10_i1-12.csv").read_bytes()
        self.grid = {
            tuple(map(int, key.split(","))): Fraction(value)
            for key, value in _load_json("appendix_table.json").items()
        }
        answers = _load_json("answers.json")
        self.independence = answers["independence"]
        self.domination = answers["domination"]
        self.identifying = answers["identifying"]
        self.coloring = answers["coloring"]


def check_independence(refs: References, distances: Sequence[int], reduced: Sequence[int],
                       status: str, value, lower, upper, blocks: Sequence[int]) -> None:
    """Witness independent with density `lower`; bounds consistent with the reference.

    A reference interval and a reported interval both contain the true
    ratio, so they must meet; an exact reference must lie in the reported
    interval and equal any exact report.
    """
    if not independent(blocks, distances):
        raise Mismatch(f"{set_key(distances)}: witness is not independent")
    if density(blocks) != lower:
        raise Mismatch(f"{set_key(distances)}: witness density {density(blocks)} != lower bound {lower}")
    if not lower <= upper or (status == "exact" and not value == lower == upper):
        raise Mismatch(f"{set_key(distances)}: inconsistent bounds [{lower}, {upper}] for {status}")
    ref = refs.independence.get(set_key(reduced))
    if ref is None:
        raise Mismatch(f"no reference for {set_key(reduced)}")
    ref_lower, ref_upper = Fraction(ref["lower"]), Fraction(ref["upper"])
    if upper < ref_lower or lower > ref_upper:
        raise Mismatch(f"{set_key(distances)}: [{lower}, {upper}] misses reference [{ref_lower}, {ref_upper}]")
    if ref["status"] == "exact" and status == "exact" and value != ref_lower:
        raise Mismatch(f"{set_key(distances)}: {value} != reference {ref_lower}")


def check_table_csv(refs: References, data: bytes) -> None:
    """Byte equality with the recorded CSV, and each row against the grid copy."""
    if data != refs.table_csv:
        raise Mismatch("table CSV differs from the recorded bytes")
    for row in csv.DictReader(io.StringIO(data.decode())):
        k, i = int(row["k"]), int(row["i"])
        distances = [int(x) for x in row["set"].split(",")]
        expected = refs.grid.get((k, i), Fraction(1, 2) if all(d % 2 for d in distances) else None)
        value = Fraction(int(row["value_num"]), int(row["value_den"])) if row["value_num"] else None
        if row["status"] != "exact" or value != expected:
            raise Mismatch(f"table cell ({k},{i}): {row['status']} {value}, grid has {expected}")
        blocks = [int(b) for b in _expand_notation(row["witness_blocks"])]
        if not independent(blocks, distances) or density(blocks) != value:
            raise Mismatch(f"table cell ({k},{i}): witness {row['witness_blocks']} does not attain {value}")


def _expand_notation(text: str) -> list[int]:
    """Expand run-length notation such as '2^3 5' (the CSV witness format)."""
    out = []
    for term in text.split():
        size, _, reps = term.partition("^")
        out.extend([int(size)] * int(reps or 1))
    return out


def refusal_recorded(refs: References, q) -> bool:
    """Whether the program refused question `q` when the references were recorded."""
    if q.kind != "coloring":
        return False
    return refs.coloring[f"{set_key(q.args[0])}/{q.args[1]}"]["source"] == "brute force"


def check_window(refs: References, kind: str, distances: Sequence[int], extra, answer) -> None:
    """Domination, identifying-code and coloring answers against witnesses and references."""
    key = set_key(distances)
    if kind == "coloring":
        ref = refs.coloring[f"{key}/{extra}"]
        if answer is None:
            if ref["exists"]:
                raise Mismatch(f"coloring {key} k={extra}: none returned, reference has {ref['witness']}")
            return
        if not proper_coloring(answer, distances, extra):
            raise Mismatch(f"coloring {key} k={extra}: {answer} is not proper")
        return
    value, blocks = answer
    if kind == "domination":
        ok, ref = dominating(blocks, distances), refs.domination[key]
    else:
        ok, ref = identifying(blocks, distances, extra), refs.identifying[f"{key}/{extra}"]
    if not ok:
        raise Mismatch(f"{kind} {key}: witness fails the check")
    if density(blocks) != value or value != Fraction(ref):
        raise Mismatch(f"{kind} {key}: density {value}, witness {density(blocks)}, reference {ref}")
