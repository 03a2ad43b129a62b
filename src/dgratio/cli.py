"""Command-line interface.

Subcommands: compute, blocks, verify, table, families, domination, idcode,
coloring, chi-f.  Exit codes: 0 success, 1 verification failure against a
proven statement, 2 usage or parse error, 3 budget exhausted without an
exact result (bounds are still printed), 4 state-space cap exceeded.

All values print as exact rationals.  CSV and JSON layouts are stable and
deterministic for fixed arguments and budget; timing lives only in the JSON
sidecar field, never in data rows.

Every command except table takes --json.  Each _cmd_* computes its answer
once and returns (exit code, result, lines); run alone prints either the
JSON record of that result or the text lines, so text and JSON come from
one result, and timing_seconds is the only field that changes from run to run.
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
from .search import FALLBACK_NODE_BUDGET, SearchBudget, default_node_budget
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
    return SearchBudget(max_nodes=args.budget or default_node_budget())


def _cmd_compute(args):
    report = independence_ratio(DistanceSet.parse(args.set), budget=_budget(args))
    wit = report.lower_witness
    result = {
        "set": list(report.distances.distances),
        "status": report.status,
        "value": _frac_fields(report.value),
        "lower": _frac_fields(report.lower),
        "upper": _frac_fields(report.upper),
        "method": report.method,
        "witness_blocks": wit.notation(),
        "witness_period": wit.period,
        "upper_witness_n": report.upper_witness_n,
        "note": report.note,
        "counters": report.counters,
    }
    if report.status == "exact":
        lines = [f"alpha-bar = {_frac(report.value)} (exact)"]
    else:
        lines = [f"alpha-bar in [{_frac(report.lower)}, {_frac(report.upper)}] ({report.status})"]
    s = "s" if wit.count != 1 else ""
    lines += [
        f"method: {report.method}",
        f"witness: {result['witness_blocks']}  (period {wit.period}, {wit.count} element{s})",
    ]
    if report.upper_witness_n is not None:
        lines.append(f"upper bound from interval of length {report.upper_witness_n}")
    if report.note:
        lines.append(f"note: {report.note}")
    return (EXIT_OK if report.status == "exact" else EXIT_BUDGET), result, lines


def _cmd_blocks(args):
    distances = DistanceSet.parse(args.set)
    blocks = parse_block_notation(args.blocks, cap=args.expansion_cap)
    verdict = verify_periodic_independent(blocks, distances)
    density = blocks.density()
    result = {
        "set": list(distances.distances),
        "blocks": blocks.notation(),
        "period": blocks.period,
        "count": blocks.count,
        "density": _frac_fields(density),
        "independent": verdict.ok,
        "violation": list(verdict.violation) if verdict.violation else None,
    }
    if verdict.ok:
        line = f"independent; density {_frac(density)}"
    else:
        x, y = verdict.violation
        line = f"not independent: elements at positions {x} and {y} are at distance {y - x}; density {_frac(density)}"
    return EXIT_OK, result, [line]


def _cmd_verify(args):
    lo, hi = _parse_range(args.range)
    try:
        get_family(args.family)
    except UnknownFamilyError:
        raise UsageError(f"unknown family {args.family!r}")
    verdicts = verify_family(args.family, lo, hi, budget_nodes=args.budget)
    failures = sum(v.is_failure for v in verdicts)
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
        "failures": failures,
    }
    lines = []
    for v in verdicts:
        pred = _frac(v.predicted) if v.predicted is not None else "-"
        comp = _frac(v.computed) if v.computed is not None else f"[{v.computed_status}]"
        wit = {True: "witness ok", False: "WITNESS BAD", None: "no witness"}[v.witness_ok]
        params = ",".join(f"{k}={v2}" for k, v2 in sorted(v.params.items()))
        lines.append(f"{v.family} {params} set={v.distances} predicted={pred} computed={comp} {v.agreement} ({wit})")
    lines.append(f"{len(verdicts)} points, {failures} failures")
    return (EXIT_MISMATCH if failures else EXIT_OK), result, lines


_TABLE_FIELDS = (
    "k", "i", "set", "status", "value_num", "value_den",
    "lower_num", "lower_den", "upper_num", "upper_den", "witness_blocks",
)


def _cmd_table(args):
    k_lo, k_hi = _parse_range(args.k)
    i_lo, i_hi = _parse_range(args.i)
    if min(k_lo, i_lo) < 1:  # k or i of 0 makes {1, 1+k, 1+k+i} a set of fewer than three
        raise UsageError(f"--k and --i must start at 1 or more, got {args.k} and {args.i}")
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
    return EXIT_OK, None, [f"wrote {len(rows)} rows to {args.out} ({exact} exact)"]


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
            elif any(report.counters.get(name, 0) for name in ("circulant_rounds", "circulant_cut", "circulant_jumps")):
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


def _cmd_families(args):
    entries = [fam.catalog_entry() for fam in list_families()]
    lines = [
        f"{e['id']:22s} {e['kind']:12s} ({','.join(e['parameters'])}) {e['description']}"
        for e in entries
    ]
    return EXIT_OK, {"families": entries}, lines


def _density_answer(distances, what: str, extra: dict, density: Fraction, witness):
    """Result and lines of a least density with its periodic witness."""
    result = {
        "set": list(distances.distances),
        **extra,
        "density": _frac_fields(density),
        "witness_blocks": witness.period_set.notation(),
        "period": witness.period,
    }
    lines = [
        f"minimum {what} density = {_frac(density)}",
        f"witness: {result['witness_blocks']}  (period {witness.period})",
    ]
    return EXIT_OK, result, lines


def _cmd_domination(args):
    distances = DistanceSet.parse(args.set)
    return _density_answer(distances, "dominating", {}, *min_dominating_density(distances))


def _cmd_idcode(args):
    distances = DistanceSet.parse(args.set)
    answer = min_identifying_density(distances, args.r)
    return _density_answer(distances, f"{args.r}-identifying", {"radius": args.r}, *answer)


def _cmd_coloring(args):
    distances = DistanceSet.parse(args.set)
    witness = periodic_coloring(distances, args.k)
    result = {
        "set": list(distances.distances),
        "colors": args.k,
        "exists": witness is not None,
        "coloring": list(witness.colors) if witness else None,
        "period": witness.period if witness else None,
    }
    if witness is None:
        line = f"no periodic proper {args.k}-coloring exists"
    else:
        seq = " ".join(str(c + 1) for c in witness.colors)
        line = f"periodic proper {args.k}-coloring with period {witness.period}: {seq}"
    return EXIT_OK, result, [line]


def _cmd_chi_f(args):
    distances = DistanceSet.parse(args.set)
    result = {"set": list(distances.distances)}
    try:
        value = fractional_chromatic(distances, budget=_budget(args))
    except InexactResultError as exc:
        lower, upper = 1 / exc.report.upper, 1 / exc.report.lower
        result.update(chi_f=_frac_fields(None), chi_f_lower=_frac_fields(lower), chi_f_upper=_frac_fields(upper))
        return EXIT_BUDGET, result, [f"fractional chromatic number in [{_frac(lower)}, {_frac(upper)}] (budget exhausted)"]
    result["chi_f"] = _frac_fields(value)
    return EXIT_OK, result, [_frac(value)]


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built on first use and then kept for the process:
    building it costs about 30 times as much as a parse, and a parse keeps
    nothing on the parser."""
    # --help shows the docstring up to its last paragraph, which is for readers of the code
    parser = _Parser(prog="dgratio", description=(__doc__ or "").rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_set(p):
        p.add_argument("--set", required=True, help="comma-separated distances, e.g. 1,4,7")

    def add_budget(p):
        p.add_argument("--budget", type=_positive("budget"), default=None,
                       help=f"search node budget (default: DGRATIO_BUDGET, else {FALLBACK_NODE_BUDGET:,})")

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = command("compute", _cmd_compute, "independence ratio of G(S)")
    add_set(p)
    add_budget(p)

    p = command("blocks", _cmd_blocks, "check a block structure against a set")
    add_set(p)
    p.add_argument("--blocks", required=True, help="block notation, e.g. \"2^2 5\"")
    p.add_argument("--expansion-cap", type=_positive("expansion cap"), default=DEFAULT_EXPANSION_CAP,
                   help="maximum number of blocks an expansion may produce")

    p = command("verify", _cmd_verify, "check a closed-form family against the engines")
    p.add_argument("--family", required=True)
    p.add_argument("--range", required=True, help="parameter range A..B")
    add_budget(p)

    p = command("table", _cmd_table, "grid of ratios for sets {1,1+k,1+k+i}")
    p.add_argument("--k", required=True, help="row range A..B")
    p.add_argument("--i", required=True, help="column range C..D")
    add_budget(p)
    p.add_argument("--out", required=True, help="output CSV path")

    command("families", _cmd_families, "list the closed-form catalog")

    p = command("domination", _cmd_domination, "minimum dominating density")
    add_set(p)

    p = command("idcode", _cmd_idcode, "minimum r-identifying code density")
    add_set(p)
    p.add_argument("--r", type=int, default=1)

    p = command("coloring", _cmd_coloring, "periodic proper coloring with k colors")
    add_set(p)
    p.add_argument("--k", type=int, required=True)

    p = command("chi-f", _cmd_chi_f, "fractional chromatic number")
    add_set(p)
    add_budget(p)

    for name, p in sub.choices.items():
        if name != "table":  # table writes CSV to --out instead
            p.add_argument("--json", action="store_true", help="emit a JSON record")
    return parser


def run(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        started = time.monotonic()
        code, result, lines = args.func(args)
    except SystemExit as exc:  # --help prints its text and exits from inside argparse
        return exc.code
    except (UsageError, BlockSyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (StateSpaceError, ExpansionLimitError) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    if getattr(args, "json", False):
        record = {
            "schema_version": SCHEMA_VERSION,
            "command": argv,
            "result": result,
            "timing_seconds": round(time.monotonic() - started, 6),
        }
        print(json.dumps(record, indent=2))
    else:
        print("\n".join(lines))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
