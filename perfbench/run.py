"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

One process, one thread, a closed loop: each question is one call to a
public entry point of dgratio, asked only after the previous one returned.
Every answer is checked after its sweep, outside the timed region.  Times
are process CPU time scaled to a reference machine speed (see
at_reference_speed below).  --trace 0 prints the
end-to-end metrics; --trace 1 runs half the sweeps untraced and half with
spans around the package's functions, and prints the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  Exit status 0 means
every answer passed its check; 1 means a mismatch, which includes a question
that raised (other than a cap refusal recorded with the references); 2 means
the benchmark could not run (no package source, or DGRATIO_BUDGET set).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# One sweep's time at the baseline, per workload.  A run makes
# ceil(--seconds / this) sweeps, so parent and change do the same work and
# the tail percentile is taken over the same number of samples.  On catalog,
# 20 sweeps of 13 questions give 260 samples, so the tail (p95, 13 samples
# beyond) is the 7th of the 20 table commands, not one of the fastest.
NOMINAL_SWEEP_S = {"catalog": 1.0, "gap-large": 7.0, "search": 24.0, "windows": 3.5}
SETUP_REPEATS = 21
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 80, 75, 50)
SETUP_CODE = "import time; t = time.process_time(); import numpy, dgratio; print(time.process_time() - t)"

# The shared host's speed drifts by up to 2x, over seconds and over minutes:
# per-second medians of one 40 ms question ranged 30-56 ms, in CPU time as in
# wall time, and whole runs of the same sweep differ by 25%.  So between
# questions, and before the first and after the last, the benchmark runs a
# fixed kernel that uses no dgratio code; see calibrate and at_reference_speed
# for how often, and how its times scale the questions'.
CALIBRATION_REF_S = 0.008
CALIBRATION_WINDOW_S = 0.1
CALIBRATION_SHARE = 0.1
CALIBRATION_MAX_RUNS = 8

if __name__ == "__main__":
    for var in THREAD_VARS:  # pins numpy to one thread; corpus below imports it
        os.environ[var] = "1"
    _here = ROOT / "perfbench"
    sys.path[:] = [str(SRC), str(ROOT)] + [p for p in sys.path if Path(p or ".").resolve() != _here]

import numpy as np  # noqa: E402

from perfbench import check, corpus, spans  # noqa: E402

_CAL_INDEX = np.random.default_rng(0).integers(0, 1 << 16, size=1 << 16)


def calibration_s() -> float:
    """CPU time of the calibration kernel: interpreted integer and dict work,
    numpy gathers over 512 KB and numpy calls on tiny arrays.  Of the kernels
    tried, this mix followed the speed of catalog, gap-engine and search
    questions best; tuple and frozenset churn followed it worse."""
    start = time.process_time()
    seen, x = {}, 1
    for _ in range(12000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        seen[x & 1023] = seen.get(x & 1023, 0) + 1
    a = np.zeros(len(_CAL_INDEX), dtype=np.int64)
    for _ in range(25):
        a = a[_CAL_INDEX] + 1
    b = np.arange(64)
    for _ in range(300):
        b = np.minimum(b + 1, 63)[::-1].copy()
    return time.process_time() - start


def calibrate(longest: float) -> list[tuple[float, float]]:
    """Run the kernel between two calls, the longer of which takes `longest`
    CPU seconds: about CALIBRATION_SHARE of that, at least once and at most
    CALIBRATION_MAX_RUNS times.  One run at either end of a long call gives
    its speed with a noise of ~15%; more runs average that down.  Returns
    (perf_counter time at which a run ended, its CPU time) per run."""
    runs = min(CALIBRATION_MAX_RUNS, 1 + int(longest * CALIBRATION_SHARE / CALIBRATION_REF_S))
    out = []
    for _ in range(runs):
        cpu = calibration_s()
        out.append((time.perf_counter(), cpu))
    return out


def at_reference_speed(calls: list[tuple[float, float, float]],
                       calibrations: list[tuple[float, float]]) -> list[float]:
    """Scale the CPU times of timed calls to the reference speed, the speed at
    which the calibration kernel takes CALIBRATION_REF_S (its median on a
    2.1 GHz Xeon vCPU).

    calls holds (start, end, CPU seconds) per call, on the perf_counter clock;
    calibrations holds calibrate() results, from runs just before the first
    call and just after each.  A call's CPU time is scaled by
    CALIBRATION_REF_S over the median of the kernel times that ended from
    CALIBRATION_WINDOW_S before its start to CALIBRATION_WINDOW_S after its
    end: the runs just before and after it, and on a run of short calls a few
    more.
    """
    scaled = []
    for start, end, cpu in calls:
        near = [c for t, c in calibrations if start - CALIBRATION_WINDOW_S <= t <= end + CALIBRATION_WINDOW_S]
        scaled.append(cpu * CALIBRATION_REF_S / median(near))
    return scaled


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of a sorted, nonempty list."""
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


def tail(samples: list[float]):
    """(percentile, value): the highest listed percentile with at least ten
    samples above its nearest-rank position, or None with fewer than 20."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100 * n) >= 10:
            return p, percentile(ordered, p)
    return None


def measure_setup() -> float:
    """Median CPU time, at the reference speed, to import numpy and dgratio
    in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    calls, calibrations = [], calibrate(0.0)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        calls.append((start, time.perf_counter(), float(done.stdout.split()[-1])))
        calibrations += calibrate(0.0)
    return median(at_reference_speed(calls, calibrations))


def environment(dg) -> dict:
    import numpy

    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "dgratio").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_lines": lines,
        "engine_caps": dataclasses.asdict(dg.EngineCaps()) if hasattr(dg, "EngineCaps") else "absent",
        "fallback_node_budget": getattr(dg.search, "FALLBACK_NODE_BUDGET", "absent"),
    }


class Runner:
    """Asks the questions of one corpus and checks each answer."""

    def __init__(self, dg, refs):
        self.dg, self.refs = dg, refs
        self.table_path = OUT / "table.csv"
        self.attempted = self.failed = self.mismatches = 0
        self.raw_s = 0.0
        self.calibrations: list[float] = []
        self.expected: dict = {}  # question -> its CPU time in the last sweep
        self.indep_asked = self.indep_exact = 0
        self.problems: list[str] = []

    def ask(self, q):
        dg = self.dg
        if q.kind == "cli":
            argv = list(q.args)
            if argv[0] == "table":
                argv += ["--out", str(self.table_path)]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = dg.cli.run(argv)
            return code, buf.getvalue()
        distances = dg.DistanceSet(q.args[0])
        if q.kind == "independence":
            return dg.independence_ratio(distances)
        if q.kind == "domination":
            return dg.min_dominating_density(distances)
        if q.kind == "identifying":
            return dg.min_identifying_density(distances, q.args[1])
        return dg.periodic_coloring(distances, q.args[1])

    def judge(self, q, answer) -> None:
        if q.kind == "cli":
            code, text = answer
            if code != 0:
                raise check.Mismatch(f"{q.label}: exit {code}")
            if q.args[0] == "table":
                data = self.table_path.read_bytes()
                check.check_table_csv(self.refs, data)
                statuses = [row["status"] for row in csv.DictReader(io.StringIO(data.decode()))]
                self.indep_asked += len(statuses)
                self.indep_exact += statuses.count("exact")
            else:
                lo, hi = map(int, q.args[4].split(".."))
                expected = f"{len(corpus.verify_points(q.args[2], lo, hi))} points, 0 failures"
                if text.strip().splitlines()[-1] != expected:
                    raise check.Mismatch(f"{q.label}: {text.strip().splitlines()[-1]!r}, expected {expected!r}")
            return
        distances = q.args[0]
        if q.kind == "independence":
            r = answer
            self.indep_asked += 1
            self.indep_exact += r.status == "exact"
            check.check_independence(self.refs, distances, corpus.reduce_set(distances)[0], r.status,
                                     r.value, r.lower, r.upper, r.lower_witness.sizes)
        elif q.kind == "coloring":
            check.check_window(self.refs, "coloring", distances, q.args[1], None if answer is None else answer.colors)
        else:
            value, witness = answer
            if witness.period_set is None:
                raise check.Mismatch(f"{q.label}: witness has no periodic set")
            extra = q.args[1] if q.kind == "identifying" else None
            check.check_window(self.refs, q.kind, distances, extra, (value, witness.period_set.sizes))

    def sweep(self, questions, on_question=None) -> list[float]:
        """Ask every question once, then check the answers; return the time
        of each question at the reference speed.  on_question gets each
        question and its raw CPU time."""
        times, calls, answers = [], [], []
        calibrations = calibrate(self.expected.get(questions[0], 0.0))
        for i, q in enumerate(questions):
            self.attempted += 1
            wall, start = time.perf_counter(), time.process_time()
            try:
                answers.append(self.ask(q))
            except Exception as exc:
                answers.append(exc)
            elapsed = time.process_time() - start
            calls.append((wall, time.perf_counter(), elapsed))
            self.expected[q] = elapsed
            following = self.expected.get(questions[i + 1], 0.0) if i + 1 < len(questions) else 0.0
            calibrations += calibrate(max(elapsed, following))
            times.append(elapsed)
            if on_question is not None:
                on_question(q, elapsed)
        for q, answer in zip(questions, answers):
            self.grade(q, answer)
        self.raw_s += sum(times)
        self.calibrations += [c for _, c in calibrations]
        return at_reference_speed(calls, calibrations)

    def grade(self, q, answer) -> None:
        if isinstance(answer, Exception):
            # only a refusal the references recorded is an expected failure;
            # anything else that raises is a wrong answer
            self.failed += 1
            if isinstance(answer, getattr(self.dg, "StateSpaceError", ())) and check.refusal_recorded(self.refs, q):
                self.problems.append(f"refused by a cap: {q.label}: {answer}")
            else:
                self.mismatches += 1
                self.problems.append(f"mismatch: {q.label} raised {type(answer).__name__}: {answer}")
            return
        try:
            self.judge(q, answer)
        except Exception as exc:
            self.failed += 1
            self.mismatches += 1
            detail = str(exc) if isinstance(exc, check.Mismatch) else f"{q.label}: {type(exc).__name__}: {exc}"
            self.problems.append(f"mismatch: {detail}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["catalog", "gap-large", "search", "windows"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if "DGRATIO_BUDGET" in os.environ:
        print("error: DGRATIO_BUDGET is set; it changes the search node budget. Unset it.", file=sys.stderr)
        return 2
    if not (SRC / "dgratio" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'dgratio'}", file=sys.stderr)
        return 2
    setup_s = measure_setup()
    import dgratio as dg
    import dgratio.cli  # noqa: F401  (the CLI is an entry point of its own)

    if Path(dg.__file__).resolve().parent != (SRC / "dgratio").resolve():
        print(f"error: dgratio imported from {dg.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    questions = corpus.build_corpus(args.workload, args.seed)
    runner = Runner(dg, check.References())
    sweeps = max(1, math.ceil(args.seconds / NOMINAL_SWEEP_S[args.workload]))
    print(f"workload {args.workload}  seed {args.seed}  questions/sweep {len(questions)}  trace {args.trace}")

    if args.trace:
        half = max(1, math.ceil(sweeps / 2))
        untraced = [sum(runner.sweep(questions)) for _ in range(half)]
        traced, tracers, breakdown = [], [], []
        for i in range(half):
            tracer = spans.Tracer()
            hooks = spans.Hooks(tracer)
            hooks.install()
            try:
                traced.append(sum(runner.sweep(questions, question_rows(tracer, breakdown) if i == 0 else None)))
            finally:
                hooks.restore()
            tracers.append(tracer)
        metrics, absent = spans.layer_values(tracers, hooks.missing)
        name, unit = spans.OVERHEAD_METRIC
        metrics[name] = {"value": median(traced) - median(untraced), "unit": unit}
        print("per-question spans, first traced sweep:")
        for line in breakdown:
            print("  " + line)
        if absent:
            print(f"absent (hooked name missing from the package): {', '.join(absent)}")
        extra = {"untraced_sweep_s": median(untraced), "traced_sweep_s": median(traced),
                 "sweeps_each": half, "absent": absent}
    else:
        times, sweep_totals = [], []
        for _ in range(sweeps):
            t = runner.sweep(questions)
            times += t
            sweep_totals.append(sum(t))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        picked = tail(times)
        metrics = {
            "sweep_s": {"value": median(sweep_totals), "unit": "s"},
            "question_p50_s": {"value": percentile(sorted(times), 50), "unit": "s"},
            "question_tail_s": {"value": picked[1] if picked else max(times), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        exact_share = runner.indep_exact / runner.indep_asked if runner.indep_asked else None
        tail_text = f"p{picked[0]:g} of {len(times)} samples" if picked else f"maximum of {len(times)} samples (fewer than 20)"
        extra = {"sweeps": sweeps, "samples": len(times), "tail": tail_text,
                 "raw_cpu_s_per_sweep": runner.raw_s / sweeps,
                 "calibration_s_median": median(runner.calibrations),
                 "exact_share": exact_share, "independence_asked": runner.indep_asked,
                 "failed_share": runner.failed / runner.attempted}
        print(f"question_tail_s is the {tail_text}")
        share = "n/a (no independence questions)" if exact_share is None else f"{exact_share:.6g}"
        print(f"exact_share = {share} ratio  ({runner.indep_exact} of {runner.indep_asked} independence answers exact)")
        print(f"failed_share = {runner.failed / runner.attempted:.6g} ratio  ({runner.failed} of {runner.attempted})")

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for line in sorted(set(runner.problems)):
        print(line)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "corpus": [q.label for q in questions], "env": environment(dg), **extra}
    print(json.dumps({"record": record}))
    correct = runner.mismatches == 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


def question_rows(tracer, rows: list[str]):
    """A sweep callback that appends, per question, its time and what it added
    to the tracer's aborted-build time, search time and search nodes."""
    last = [0.0, 0.0, 0]

    def note(q, elapsed):
        now = [tracer.total["gap_build.aborted_s"], tracer.total["search"], tracer.counts["search.nodes"]]
        aborted, search, nodes = (a - b for a, b in zip(now, last))
        last[:] = now
        rows.append(f"{q.label:44s} {elapsed:8.3f} s  gap_build.aborted_s {aborted:.3f}"
                    f"  search.s {search:.3f}  search.nodes {nodes}")

    return note


if __name__ == "__main__":
    sys.exit(main())
