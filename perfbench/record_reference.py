"""Record the reference answers the benchmark checks against.

    python3 perfbench/record_reference.py

Writes perfbench/reference/: the `table --k 1..10 --i 1..12` CSV, a copy of
the bundled grid values, and the answers for every member of the gap-large,
search and windows pools.  Run it only to extend the pools: the references
pin the answers of the commit they were recorded at.  Colorings the program
refuses are recorded from a brute-force periodic coloring instead.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from dgratio import DistanceSet, independence_ratio  # noqa: E402
from dgratio.appendix import TABLE  # noqa: E402
from dgratio.cli import run  # noqa: E402
from dgratio.stategraph import (  # noqa: E402
    StateSpaceError,
    min_dominating_density,
    min_identifying_density,
    periodic_coloring,
)

from perfbench import check, corpus  # noqa: E402

OUT = Path(__file__).resolve().parent / "reference"


def brute_force_coloring(distances, k, max_period=16):
    """A proper k-coloring of Z_p for the smallest p <= max_period, by backtracking."""
    for period in range(max(distances) + 1, max_period + 1):
        colors = []

        def extend():
            u = len(colors)
            if u == period:
                return all(colors[v] != colors[(v + d) % period] for v in range(period) for d in distances)
            for c in range(min(k, max(colors, default=-1) + 2)):
                if all(u - d < 0 or colors[u - d] != c for d in distances):
                    colors.append(c)
                    if extend():
                        return True
                    colors.pop()
            return False

        if extend():
            return list(colors)
    raise ValueError(f"no periodic {k}-coloring of {distances} with period <= {max_period}")


def main() -> None:
    OUT.mkdir(exist_ok=True)
    csv_path = OUT / "table_k1-10_i1-12.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        code = run(list(corpus.TABLE_ARGV) + ["--out", str(csv_path)])
    if code != 0:
        raise SystemExit(f"table exited {code}")
    grid = {f"{k},{i}": f"{num}/{den}" for (k, i), (num, den, exact) in sorted(TABLE.items())
            if exact and k <= 10 and i <= 12}
    (OUT / "appendix_table.json").write_text(json.dumps(grid, indent=1) + "\n")

    independence = {}
    sets = [s for _, alts in corpus.GAP_LARGE_STRATA for s in alts] + corpus.SEARCH_FIXED + corpus.SEARCH_LIGHT
    for s in sets:
        r = independence_ratio(DistanceSet(s))
        independence[check.set_key(s)] = {
            "status": r.status, "lower": str(r.lower), "upper": str(r.upper),
            "method": r.method, "nodes": r.counters.get("nodes"),
        }
        print(s, r.status, r.lower, r.upper, r.counters.get("nodes"), flush=True)

    domination = {check.set_key(s): str(min_dominating_density(DistanceSet(s))[0])
                  for _, alts in corpus.DOMINATION_STRATA for s in alts}
    identifying = {f"{check.set_key(s)}/{r}": str(min_identifying_density(DistanceSet(s), r)[0])
                   for s, r in corpus.IDENTIFYING_FIXED}
    coloring = {}
    for s, k in [member for _, alts in corpus.COLORING_STRATA for member in alts] + [corpus.WINDOWS_MEDIAN]:
        try:
            w = periodic_coloring(DistanceSet(s), k)
            entry = {"exists": w is not None, "witness": list(w.colors) if w else None, "source": "program"}
        except StateSpaceError:
            entry = {"exists": True, "witness": brute_force_coloring(s, k), "source": "brute force"}
        if entry["exists"] and not check.proper_coloring(entry["witness"], s, k):
            raise AssertionError(f"bad reference coloring for {s} k={k}")
        coloring[f"{check.set_key(s)}/{k}"] = entry

    answers = {"independence": independence, "domination": domination,
               "identifying": identifying, "coloring": coloring}
    (OUT / "answers.json").write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
