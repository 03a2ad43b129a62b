"""Command-line interface.

Subcommands: compute, blocks, verify, table, families, domination, idcode,
coloring, chi-f.  Exit codes: 0 success, 1 verification failure against a
proven statement, 2 usage or parse error, 3 budget exhausted without an
exact result (bounds are still printed), 4 state-space cap exceeded.

All values print as exact rationals.  CSV and JSON layouts are stable and
deterministic for fixed arguments and budget; timing lives only in the JSON
sidecar field, never in data rows.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from fractions import Fraction
from typing import Optional

from .core import (
    DEFAULT_EXPANSION_CAP,
    BlockSyntaxError,
    DistanceSet,
    ExpansionLimitError,
    parse_block_notation,
    verify_periodic_independent,
)
from .ratio import InexactResultError, fractional_chromatic, independence_ratio
from .registry import get_family, list_families, verify_family, UnknownFamilyError
from .search import FALLBACK_NODE_BUDGET, RatioReport, SearchBudget, default_node_budget
from .stategraph import (
    StateSpaceError,
    min_dominating_density,
    min_identifying_density,
    periodic_coloring,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_RESOURCE = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # return exit code 2 instead of killing pytest
        raise UsageError(message)


def _frac(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _frac_fields(value: Optional[Fraction]) -> dict:
    if value is None:
        return {"num": None, "den": None}
    return {"num": value.numerator, "den": value.denominator}


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise UsageError(f"bad range {text!r}, expected A..B") from None
    if lo > hi:
        raise UsageError(f"empty range {text!r}")
    return lo, hi


def _positive(what: str):
    """An argparse type accepting integers >= 1, naming `what` in its errors."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {what} {text!r}, expected a positive integer") from None
        if value < 1:
            raise argparse.ArgumentTypeError(f"{what} {value} must be at least 1")
        return value

    return parse


def _budget(args) -> SearchBudget:
    nodes = getattr(args, "budget", None)
    if nodes is None:
        nodes = default_node_budget()
    return SearchBudget(max_nodes=nodes)


def _report_json(report: RatioReport) -> dict:
    return {
        "set": list(report.distances.distances),
        "status": report.status,
        "value": _frac_fields(report.value),
        "lower": _frac_fields(report.lower),
        "upper": _frac_fields(report.upper),
        "method": report.method,
        "witness_blocks": report.lower_witness.notation(),
        "witness_period": report.lower_witness.period,
        "upper_witness_n": report.upper_witness_n,
        "note": report.note,
        "counters": report.counters,
    }


def _emit_json(command: list, result: dict, started: float) -> None:
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "result": result,
        "timing_seconds": round(time.monotonic() - started, 6),
    }
    print(json.dumps(record, indent=2))


def _cmd_compute(args, argv) -> int:
    started = time.monotonic()
    distances = DistanceSet.parse(args.set)
    report = independence_ratio(distances, budget=_budget(args))
    if args.json:
        _emit_json(argv, _report_json(report), started)
    else:
        if report.status == "exact":
            print(f"alpha-bar = {_frac(report.value)} (exact)")
        else:
            print(
                f"alpha-bar in [{_frac(report.lower)}, {_frac(report.upper)}] "
                f"({report.status})"
            )
        print(f"method: {report.method}")
        wit = report.lower_witness
        s = "s" if wit.count != 1 else ""
        print(f"witness: {wit.notation()}  (period {wit.period}, {wit.count} element{s})")
        if report.upper_witness_n is not None:
            print(f"upper bound from interval of length {report.upper_witness_n}")
        if report.note:
            print(f"note: {report.note}")
    return EXIT_OK if report.status == "exact" else EXIT_BUDGET


def _cmd_blocks(args, argv) -> int:
    started = time.monotonic()
    distances = DistanceSet.parse(args.set)
    blocks = parse_block_notation(args.blocks, cap=args.expansion_cap)
    verdict = verify_periodic_independent(blocks, distances)
    density = blocks.density()
    if args.json:
        result = {
            "set": list(distances.distances),
            "blocks": blocks.notation(),
            "period": blocks.period,
            "count": blocks.count,
            "density": _frac_fields(density),
            "independent": verdict.ok,
            "violation": list(verdict.violation) if verdict.violation else None,
        }
        _emit_json(argv, result, started)
        return EXIT_OK
    if verdict.ok:
        print(f"independent; density {_frac(density)}")
    else:
        x, y = verdict.violation
        print(
            f"not independent: elements at positions {x} and {y} are at "
            f"distance {y - x}; density {_frac(density)}"
        )
    return EXIT_OK


def _cmd_verify(args, argv) -> int:
    started = time.monotonic()
    lo, hi = _parse_range(args.range)
    try:
        get_family(args.family)
    except UnknownFamilyError:
        raise UsageError(f"unknown family {args.family!r}")
    verdicts = verify_family(args.family, lo, hi, budget_nodes=args.budget)
    failures = [v for v in verdicts if v.is_failure]
    if args.json:
        result = {
            "family": args.family,
            "range": [lo, hi],
            "verdicts": [
                {
                    "params": v.params,
                    "set": list(v.distances.distances),
                    "predicted": _frac_fields(v.predicted),
                    "computed": _frac_fields(v.computed),
                    "computed_status": v.computed_status,
                    "agreement": v.agreement,
                    "witness_ok": v.witness_ok,
                }
                for v in verdicts
            ],
            "failures": len(failures),
        }
        _emit_json(argv, result, started)
    else:
        for v in verdicts:
            pred = _frac(v.predicted) if v.predicted is not None else "-"
            comp = _frac(v.computed) if v.computed is not None else f"[{v.computed_status}]"
            wit = {True: "witness ok", False: "WITNESS BAD", None: "no witness"}[v.witness_ok]
            params = ",".join(f"{k}={v2}" for k, v2 in sorted(v.params.items()))
            print(
                f"{v.family} {params} set={v.distances} predicted={pred} "
                f"computed={comp} {v.agreement} ({wit})"
            )
        print(f"{len(verdicts)} points, {len(failures)} failures")
    return EXIT_MISMATCH if failures else EXIT_OK


_TABLE_FIELDS = (
    "k", "i", "set", "status", "value_num", "value_den",
    "lower_num", "lower_den", "upper_num", "upper_den", "witness_blocks",
)


def _cmd_table(args, argv) -> int:
    k_lo, k_hi = _parse_range(args.k)
    i_lo, i_hi = _parse_range(args.i)
    # opened before the first cell is computed, so an unwritable path fails
    # at once, and opened to append, so a run that stops partway leaves an
    # existing file as it was
    try:
        handle = open(args.out, "a", newline="")
    except OSError as exc:
        raise UsageError(str(exc)) from exc
    with handle:
        rows = _table_rows(args, k_lo, k_hi, i_lo, i_hi)
        handle.seek(0)
        handle.truncate()
        writer = csv.DictWriter(handle, fieldnames=_TABLE_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    exact = sum(1 for r in rows if r["status"] == "exact")
    print(f"wrote {len(rows)} rows to {args.out} ({exact} exact)")
    return EXIT_OK


def _table_rows(args, k_lo: int, k_hi: int, i_lo: int, i_hi: int) -> list[dict]:
    """One row per cell (k, i), the set {1, 1+k, 1+k+i}, in row-major order."""
    rows = []
    for k in range(k_lo, k_hi + 1):
        for i in range(i_lo, i_hi + 1):
            distances = DistanceSet([1, 1 + k, 1 + k + i])
            report = independence_ratio(distances, budget=_budget(args))
            if report.status == "exact":
                status = "exact"
                value = report.value
            elif report.counters.get("circulant_rounds", 0) > 0:
                status = "lower_bound"
                value = None
            else:
                status = "inconclusive"
                value = None
            rows.append(
                {
                    "k": k,
                    "i": i,
                    "set": ",".join(str(d) for d in distances.distances),
                    "status": status,
                    "value_num": value.numerator if value is not None else "",
                    "value_den": value.denominator if value is not None else "",
                    "lower_num": report.lower.numerator,
                    "lower_den": report.lower.denominator,
                    "upper_num": report.upper.numerator,
                    "upper_den": report.upper.denominator,
                    "witness_blocks": report.lower_witness.notation(),
                }
            )
    return rows


def _cmd_families(args, argv) -> int:
    started = time.monotonic()
    entries = [fam.catalog_entry() for fam in list_families()]
    if args.json:
        _emit_json(argv, {"families": entries}, started)
    else:
        for entry in entries:
            params = ",".join(entry["parameters"])
            print(f"{entry['id']:22s} {entry['kind']:12s} ({params}) {entry['description']}")
    return EXIT_OK


def _cmd_domination(args, argv) -> int:
    started = time.monotonic()
    distances = DistanceSet.parse(args.set)
    density, witness = min_dominating_density(distances)
    if args.json:
        result = {
            "set": list(distances.distances),
            "density": _frac_fields(density),
            "witness_blocks": witness.period_set.notation(),
            "period": witness.period,
        }
        _emit_json(argv, result, started)
    else:
        print(f"minimum dominating density = {_frac(density)}")
        print(f"witness: {witness.period_set.notation()}  (period {witness.period})")
    return EXIT_OK


def _cmd_idcode(args, argv) -> int:
    started = time.monotonic()
    distances = DistanceSet.parse(args.set)
    density, witness = min_identifying_density(distances, args.r)
    if args.json:
        result = {
            "set": list(distances.distances),
            "radius": args.r,
            "density": _frac_fields(density),
            "witness_blocks": witness.period_set.notation(),
            "period": witness.period,
        }
        _emit_json(argv, result, started)
    else:
        print(f"minimum {args.r}-identifying density = {_frac(density)}")
        print(f"witness: {witness.period_set.notation()}  (period {witness.period})")
    return EXIT_OK


def _cmd_coloring(args, argv) -> int:
    started = time.monotonic()
    distances = DistanceSet.parse(args.set)
    witness = periodic_coloring(distances, args.k)
    if args.json:
        result = {
            "set": list(distances.distances),
            "colors": args.k,
            "exists": witness is not None,
            "coloring": list(witness.colors) if witness else None,
            "period": witness.period if witness else None,
        }
        _emit_json(argv, result, started)
        return EXIT_OK
    if witness is None:
        print(f"no periodic proper {args.k}-coloring exists")
    else:
        seq = " ".join(str(c + 1) for c in witness.colors)
        print(f"periodic proper {args.k}-coloring with period {witness.period}: {seq}")
    return EXIT_OK


def _cmd_chi_f(args, argv) -> int:
    started = time.monotonic()
    distances = DistanceSet.parse(args.set)
    try:
        value = fractional_chromatic(distances, budget=_budget(args))
    except InexactResultError as exc:
        report = exc.report
        print(
            f"fractional chromatic number in [{_frac(1 / report.upper)}, "
            f"{_frac(1 / report.lower)}] (budget exhausted)"
        )
        return EXIT_BUDGET
    if args.json:
        _emit_json(argv, {"set": list(distances.distances), "chi_f": _frac_fields(value)}, started)
    else:
        print(_frac(value))
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built on first use and then kept for the process:
    building it costs about 30 times as much as a parse, and a parse keeps
    nothing on the parser."""
    parser = _Parser(prog="dgratio", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_set(p):
        p.add_argument("--set", required=True, help="comma-separated distances, e.g. 1,4,7")

    def add_budget(p):
        p.add_argument("--budget", type=_positive("budget"), default=None,
                       help=f"search node budget (default: DGRATIO_BUDGET, else {FALLBACK_NODE_BUDGET:,})")

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit a JSON record")

    p = sub.add_parser("compute", help="independence ratio of G(S)")
    add_set(p)
    add_budget(p)
    add_json(p)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("blocks", help="check a block structure against a set")
    add_set(p)
    p.add_argument("--blocks", required=True, help="block notation, e.g. \"2^2 5\"")
    p.add_argument("--expansion-cap", type=_positive("expansion cap"), default=DEFAULT_EXPANSION_CAP,
                   help="maximum number of blocks an expansion may produce")
    add_json(p)
    p.set_defaults(func=_cmd_blocks)

    p = sub.add_parser("verify", help="check a closed-form family against the engines")
    p.add_argument("--family", required=True)
    p.add_argument("--range", required=True, help="parameter range A..B")
    add_budget(p)
    add_json(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", help="grid of ratios for sets {1,1+k,1+k+i}")
    p.add_argument("--k", required=True, help="row range A..B")
    p.add_argument("--i", required=True, help="column range C..D")
    add_budget(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("families", help="list the closed-form catalog")
    add_json(p)
    p.set_defaults(func=_cmd_families)

    p = sub.add_parser("domination", help="minimum dominating density")
    add_set(p)
    add_json(p)
    p.set_defaults(func=_cmd_domination)

    p = sub.add_parser("idcode", help="minimum r-identifying code density")
    add_set(p)
    p.add_argument("--r", type=int, default=1)
    add_json(p)
    p.set_defaults(func=_cmd_idcode)

    p = sub.add_parser("coloring", help="periodic proper coloring with k colors")
    add_set(p)
    p.add_argument("--k", type=int, required=True)
    add_json(p)
    p.set_defaults(func=_cmd_coloring)

    p = sub.add_parser("chi-f", help="fractional chromatic number")
    add_set(p)
    add_budget(p)
    add_json(p)
    p.set_defaults(func=_cmd_chi_f)

    return parser


def run(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BlockSyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (StateSpaceError, ExpansionLimitError) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
