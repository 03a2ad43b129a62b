"""Command-line surface: subcommands, exit codes, schemas, determinism."""

import csv
import json
import os
import re
import subprocess
import sys
import time

import pytest

import dgratio
import dgratio.cli
from dgratio.cli import build_parser, run
from dgratio.search import default_node_budget


def _capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_human(capsys):
    code, out, _ = _capture(capsys, ["compute", "--set", "1,4,7"])
    assert code == 0
    assert "alpha-bar = 3/8 (exact)" in out
    assert "witness:" in out


def test_compute_json_schema(capsys):
    code, out, _ = _capture(capsys, ["compute", "--set", "1,4,7", "--json"])
    assert code == 0
    record = json.loads(out)
    assert record["schema_version"] == 1
    assert record["command"] == ["compute", "--set", "1,4,7", "--json"]
    result = record["result"]
    assert result["set"] == [1, 4, 7]
    assert result["status"] == "exact"
    assert result["value"] == {"num": 3, "den": 8}
    assert set(result) >= {
        "set", "status", "value", "lower", "upper", "method",
        "witness_blocks", "witness_period", "upper_witness_n", "note", "counters",
    }


def test_blocks_verdicts(capsys):
    code, out, _ = _capture(capsys, ["blocks", "--set", "1,3,6", "--blocks", "2^2 5"])
    assert code == 0
    assert "independent; density 1/3" in out

    code, out, _ = _capture(capsys, ["blocks", "--set", "1,2", "--blocks", "2"])
    assert code == 0
    assert "not independent" in out
    assert "distance 2" in out


def test_compute_notes_why_it_searched(capsys):
    code, out, _ = _capture(capsys, ["compute", "--set", "1,4,25"])
    assert code == 0
    assert "method: search" in out
    assert "note: gap-state engine refused: max(S) = 25 exceeds the independence cap 22\n" in out


def test_deeply_nested_blocks(capsys):
    text = "(" * 600 + "2" + ")^1" * 600
    code, out, err = _capture(capsys, ["blocks", "--set", "1,3", "--blocks", text])
    assert (code, out, err) == (0, "independent; density 1/2\n", "")


def test_chi_f(capsys):
    code, out, _ = _capture(capsys, ["chi-f", "--set", "1,2,3"])
    assert code == 0
    assert out.strip() == "4"
    code, out, _ = _capture(capsys, ["chi-f", "--set", "1,4"])
    assert out.strip() == "5/2"
    code, out, _ = _capture(capsys, ["chi-f", "--set", "3,5,7"])
    assert out.strip() == "2"


def test_domination_idcode_coloring(capsys):
    code, out, _ = _capture(capsys, ["domination", "--set", "1,2"])
    assert code == 0
    assert "1/5" in out

    code, out, _ = _capture(capsys, ["idcode", "--set", "1", "--r", "1"])
    assert code == 0
    assert "1/2" in out

    code, out, _ = _capture(capsys, ["coloring", "--set", "1", "--k", "2"])
    assert code == 0
    assert "period 2" in out

    code, out, _ = _capture(capsys, ["coloring", "--set", "1", "--k", "1"])
    assert code == 0
    assert "no periodic proper" in out


def test_families_listing(capsys):
    code, out, _ = _capture(capsys, ["families"])
    assert code == 0
    assert "1-4-k" in out and "conjecture" in out and "theorem" in out

    code, out, _ = _capture(capsys, ["families", "--json"])
    record = json.loads(out)
    ids = [f["id"] for f in record["result"]["families"]]
    assert "1-k-kp1" in ids


def test_verify_exit_codes(capsys):
    code, out, _ = _capture(capsys, ["verify", "--family", "1-3-2i", "--range", "2..5"])
    assert code == 0
    assert "0 failures" in out

    # conjecture mismatches are findings: exit 0
    code, out, _ = _capture(capsys, ["verify", "--family", "1-8-k", "--range", "11..11"])
    assert code == 0
    assert "mismatch" in out


def test_usage_errors_exit_2(capsys):
    assert run(["compute"]) == 2
    assert run(["compute", "--set", "0,3"]) == 2
    assert run(["compute", "--set", "1,4,7", "--method", "search"]) == 2
    assert run(["verify", "--family", "nope", "--range", "1..3"]) == 2
    assert run(["verify", "--family", "1-4-k", "--range", "9..5"]) == 2
    assert run(["blocks", "--set", "1,2", "--blocks", "(2 3"]) == 2
    assert run(["nonsense"]) == 2
    assert run(["coloring", "--set", "1,2", "--k", "0"]) == 2


def test_budget_exhaustion_exit_3(capsys):
    code, out, _ = _capture(
        capsys, ["compute", "--set", "2,9,25", "--budget", "30"]
    )
    assert code == 3
    assert "alpha-bar in [" in out


def test_resource_cap_exit_4(capsys):
    # the window automaton for {7} needs 2^14 states, over the cap of 4096
    code, _, err = _capture(capsys, ["domination", "--set", "7"])
    assert code == 4
    assert "cap" in err

    code, _, err = _capture(
        capsys, ["blocks", "--set", "1,2", "--blocks", "2^999999999"]
    )
    assert code == 4


def test_chi_f_budget_exhaustion_exit_3(capsys):
    code, out, _ = _capture(capsys, ["chi-f", "--set", "2,9,25", "--budget", "50"])
    assert code == 3
    assert "fractional chromatic number in [" in out


def test_chi_f_budget_exhaustion_json(capsys):
    code, out, _ = _capture(capsys, ["chi-f", "--set", "1,17,36", "--budget", "1000", "--json"])
    assert code == 3
    result = json.loads(out)["result"]
    assert result["set"] == [1, 17, 36]
    assert result["chi_f"] == {"num": None, "den": None}
    assert result["chi_f_lower"] == {"num": 41, "den": 18}
    assert result["chi_f_upper"] == {"num": 37, "den": 1}


def test_table_csv_schema_and_fixture_agreement(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, _, _ = _capture(capsys, ["table", "--k", "1..3", "--i", "1..6", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == (
        "k,i,set,status,value_num,value_den,lower_num,lower_den,"
        "upper_num,upper_den,witness_blocks"
    )
    import csv as _csv
    from fractions import Fraction
    from dgratio.appendix import table_value

    rows = list(_csv.DictReader(lines))
    assert len(rows) == 18
    mismatches = []
    for row in rows:
        cell = table_value(int(row["k"]), int(row["i"]))
        if cell is None or not cell[1]:
            continue
        if row["status"] != "exact" or Fraction(int(row["value_num"]), int(row["value_den"])) != cell[0]:
            mismatches.append(row)
    assert not mismatches


def test_table_marks_a_cell_whose_only_circulants_were_jumps(tmp_path, capsys):
    # {1,16,23} is past the element cap; under 1000 nodes the search runs
    # two jumps to Z_q to their end (both miss) and no regular circulant
    # round
    out_path = tmp_path / "cell.csv"
    code, _, _ = _capture(capsys, ["table", "--k", "15..15", "--i", "7..7", "--budget", "1000", "--out", str(out_path)])
    assert code == 0
    [row] = csv.DictReader(out_path.read_text().splitlines())
    assert row["set"] == "1,16,23" and row["status"] == "lower_bound"


def test_table_determinism(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["table", "--k", "1..4", "--i", "1..8", "--out", str(a)]) == 0
    capsys.readouterr()
    assert run(["table", "--k", "1..4", "--i", "1..8", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_env_budget_override(tmp_path):
    script = (
        "from dgratio.search import default_node_budget;"
        "print(default_node_budget())"
    )
    # A minimal environment keeps outside DGRATIO_* variables out; PYTHONPATH
    # points the child at the same dgratio copy this process imported, on a
    # source checkout and on an install alike.
    package_root = os.path.dirname(os.path.dirname(dgratio.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True,
        env={
            "PATH": "/usr/bin:/bin",
            "DGRATIO_BUDGET": "12345",
            "PYTHONPATH": package_root,
        },
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "12345"


def test_budget_below_one_is_a_usage_error(capsys):
    for bad in ("-5", "0", "abc"):
        for argv in (
            ["compute", "--set", "1,10,31", "--budget", bad],
            ["chi-f", "--set", "2,9,25", "--budget", bad],
        ):
            code, out, err = _capture(capsys, argv)
            assert code == 2, argv
            assert out == "" and "--budget" in err


def test_expansion_cap_below_one_is_a_usage_error(capsys):
    for bad in ("-5", "0", "abc"):
        argv = ["blocks", "--set", "1,3,6", "--blocks", "2^2 5", "--expansion-cap", bad]
        code, out, err = _capture(capsys, argv)
        assert code == 2, bad
        assert out == "" and "--expansion-cap" in err
    code, out, _ = _capture(capsys, ["blocks", "--set", "1,3,6", "--blocks", "2^2 5", "--expansion-cap", "3"])
    assert code == 0 and out.startswith("independent")
    code, _, err = _capture(capsys, ["blocks", "--set", "1,3,6", "--blocks", "2^2 5", "--expansion-cap", "2"])
    assert code == 4 and "expansion needs 3 blocks, cap is 2" in err


@pytest.mark.parametrize("raw", ["-7", "0", "abc", "1.5"])
def test_malformed_env_budget_is_refused(monkeypatch, capsys, raw):
    monkeypatch.setenv("DGRATIO_BUDGET", raw)
    with pytest.raises(ValueError, match="DGRATIO_BUDGET"):
        default_node_budget()
    code, out, err = _capture(capsys, ["compute", "--set", "1,10,31"])
    assert code == 2
    assert out == "" and "DGRATIO_BUDGET" in err and "Traceback" not in err
    # an explicit budget does not read the variable
    code, _, _ = _capture(capsys, ["compute", "--set", "1,10,31", "--budget", "50"])
    assert code == 3


def test_console_entry_point():
    # PYTHONPATH points the child at the dgratio copy this process imported
    package_root = os.path.dirname(os.path.dirname(dgratio.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "dgratio.cli", "compute", "--set", "1,4"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr
    assert "2/5" in proc.stdout


def test_a_closed_stdout_exits_141_without_a_traceback():
    # stdout is a pipe whose reader has already gone, as in `families |
    # head -1` once head has exited: the CLI exits as a SIGPIPE death does
    # (128 + 13, as cat does) and prints nothing to stderr
    package_root = os.path.dirname(os.path.dirname(dgratio.__file__))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dgratio.cli", "families"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": package_root},
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_help_returns_zero(capsys):
    # argparse prints the help and exits from inside the parse; run
    # returns that exit code like every other outcome
    for argv, usage, option in (
        (["--help"], "usage: dgratio", "compute"),
        (["coloring", "--help"], "usage: dgratio coloring", "--k K"),
    ):
        assert run(argv) == 0, argv
        out, _ = capsys.readouterr()
        assert out.startswith(usage) and option in out, argv


def test_parser_is_built_once_per_process(capsys):
    build_parser.cache_clear()
    for argv in (["families"], ["compute", "--set", "1,4"], ["nonsense"]):
        run(argv)
    capsys.readouterr()
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one run; JSON output without its timing."""
    code = run(argv)
    out, err = capsys.readouterr()
    if "--json" in argv:
        out = json.loads(out)
        out.pop("timing_seconds")
    return code, out, err


def test_a_kept_parser_answers_as_a_fresh_one(tmp_path, capsys):
    table = tmp_path / "grid.csv"
    sequence = [
        ["compute", "--set", "1,4,7", "--method", "search"],
        ["verify", "--family", "1-4-k"],
        ["compute", "--set", "1,4,7", "--json"],
        ["verify", "--family", "1-3-2i", "--range", "2..4"],
        ["table", "--k", "1..2", "--i", "1..3", "--out", str(table)],
        ["--help"],
    ]
    fresh = []
    for argv in sequence:
        build_parser.cache_clear()
        fresh.append((_outcome(capsys, argv), table.read_bytes() if table.exists() else None))
    table.unlink()
    build_parser.cache_clear()
    kept = [(_outcome(capsys, argv), table.read_bytes() if table.exists() else None) for argv in sequence]
    assert build_parser.cache_info().misses == 1
    assert kept == fresh
    assert [outcome[0] for outcome, _ in kept] == [2, 2, 0, 0, 0, 0]


def test_table_opens_its_output_before_the_first_cell(tmp_path, monkeypatch, capsys):
    def unexpected(*args, **kwargs):
        raise AssertionError("a cell was computed")

    monkeypatch.setattr(dgratio.cli, "independence_ratio", unexpected)
    missing = tmp_path / "no such directory" / "grid.csv"
    code, out, err = _capture(capsys, ["table", "--k", "1..10", "--i", "1..12", "--out", str(missing)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "No such file or directory" in err


def test_table_that_stops_partway_keeps_the_old_output(tmp_path, monkeypatch, capsys):
    kept = tmp_path / "kept.csv"
    kept.write_text("kept\n")
    argv = ["table", "--k", "1..2", "--i", "1..2", "--out", str(kept)]
    # a malformed budget is refused before any cell is solved
    monkeypatch.setenv("DGRATIO_BUDGET", "0")
    code, _, err = _capture(capsys, argv)
    assert code == 2 and "DGRATIO_BUDGET" in err
    assert kept.read_text() == "kept\n"
    monkeypatch.delenv("DGRATIO_BUDGET")

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(dgratio.cli, "independence_ratios", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(argv)
    assert kept.read_text() == "kept\n"
    monkeypatch.undo()
    code, out, _ = _capture(capsys, argv)
    assert code == 0 and out.startswith("wrote 4 rows")
    assert kept.read_text().startswith("k,i,set,") and len(kept.read_text().splitlines()) == 5


def test_table_refuses_a_range_below_one_before_opening_its_output(tmp_path, monkeypatch, capsys):
    # k = 0 or i = 0 would write rows for {1} and {1,2}, which are not cells
    # of the grid {1, 1+k, 1+k+i}
    kept = tmp_path / "kept.csv"
    kept.write_text("kept\n")
    monkeypatch.setattr(dgratio.cli, "open", lambda *a, **k: pytest.fail("the output was opened"), raising=False)
    for k, i in (("0..1", "0..1"), ("0..1", "1..2"), ("1..2", "0..0")):
        code, out, err = _capture(capsys, ["table", "--k", k, "--i", i, "--out", str(kept)])
        assert (code, out) == (2, ""), (k, i)
        assert err.startswith("error: --k and --i must start at 1"), err
    assert kept.read_text() == "kept\n"


def test_table_writes_to_an_output_that_is_not_a_regular_file(capsys):
    # a device or a pipe cannot seek or truncate, and is written to as it is
    code, out, err = _capture(capsys, ["table", "--k", "1..1", "--i", "1..1", "--out", os.devnull])
    assert (code, err) == (0, "") and out.startswith("wrote 1 rows")
    package_root = os.path.dirname(os.path.dirname(dgratio.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "dgratio.cli", "table", "--k", "1..1", "--i", "1..2", "--out", "/dev/stdout"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("k,i,set,") and len(proc.stdout.splitlines()) == 4


def test_grids_past_the_limit_are_refused_before_any_point(tmp_path, monkeypatch, capsys):
    # the points are counted from the ranges: a grid past GRID_LIMIT is
    # refused with exit 4 before a point is listed or --out is opened
    kept = tmp_path / "kept.csv"
    kept.write_text("kept\n")
    with monkeypatch.context() as m:
        m.setattr(dgratio.registry.Family, "sweep", lambda *a: pytest.fail("a point was listed"))
        m.setattr(dgratio.cli, "open", lambda *a, **k: pytest.fail("the output was opened"), raising=False)
        for argv, count in (
            (["verify", "--family", "1-4-k", "--range", "1..1000000000"], "1,000,000,000"),
            (["verify", "--family", "two-generators", "--range", "1..1001"], "1,002,001"),
            (["table", "--k", "1..100000", "--i", "1..100000", "--out", str(kept)], "10,000,000,000"),
        ):
            code, out, err = _capture(capsys, argv)
            assert (code, out) == (4, ""), argv
            assert err.startswith("resource cap: ") and f" {count} points" in err, err
    assert kept.read_text() == "kept\n"
    # the limit itself is allowed
    monkeypatch.setattr(dgratio.cli, "GRID_LIMIT", 6)
    assert run(["table", "--k", "1..2", "--i", "1..3", "--out", str(kept)]) == 0
    assert run(["table", "--k", "1..2", "--i", "1..4", "--out", str(kept)]) == 4
    assert run(["verify", "--family", "1-3-2i", "--range", "2..7"]) == 0
    assert run(["verify", "--family", "1-3-2i", "--range", "2..8"]) == 4
    capsys.readouterr()
    assert len(kept.read_text().splitlines()) == 7


def test_sizes_past_every_cap_are_refused_at_once():
    # each case used to hang, raise OverflowError from a mask or a scaled
    # witness, or take seconds and hundreds of MB; each is refused from
    # its counts before anything is built
    cases = [
        ["coloring", "--set", "100000000000000000000", "--k", "3"],
        ["coloring", "--set", "1,2,100000000000000000000", "--k", "3"],
        ["domination", "--set", "99999999999999999999"],
        ["idcode", "--set", "1", "--r", "1000000"],
        ["compute", "--set", "99999999999999999999"],
        ["chi-f", "--set", "99999999999999999999"],
        ["compute", "--set", "10000000"],
    ]
    script = (
        "import sys, time; from dgratio.cli import run\n"
        f"for argv in {cases!r}:\n"
        "    start = time.process_time(); code = run(argv)\n"
        "    print(code, time.process_time() - start)\n"
    )
    package_root = os.path.dirname(os.path.dirname(dgratio.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    assert proc.stderr.count("resource cap: ") == len(cases)
    for argv, line in zip(cases, proc.stdout.splitlines()):
        code, seconds = line.split()
        assert code == "4" and float(seconds) < 1.0, (argv, line)


def test_a_coloring_at_the_window_cap_answers_at_once(capsys):
    # {1,14} with 3 colors has exactly 4,096 canonical windows
    start = time.process_time()
    code = run(["coloring", "--set", "1,14", "--k", "3"])
    seconds = time.process_time() - start
    out, _ = capsys.readouterr()
    assert code == 0 and out.startswith("periodic proper 3-coloring") and seconds < 0.1, (out, seconds)


_RECORDED = os.path.join(os.path.dirname(__file__), "data", "cli_outputs.json")
_TIMING = re.compile(r'"timing_seconds": [-+0-9.e]+')


def test_every_command_prints_the_recorded_output(tmp_path, monkeypatch, capsys):
    # every subcommand, as text and --json, through exits 0, 2, 3 and 4 and
    # --help; the JSON timing is the one field allowed to change.  argparse
    # wraps --help at $COLUMNS, so it is pinned at the recorded width
    monkeypatch.chdir(tmp_path)  # table writes its --out here
    monkeypatch.setenv("COLUMNS", "80")
    with open(_RECORDED) as handle:
        recorded = json.load(handle)
    for case in recorded:
        code = run(list(case["argv"]))
        out, err = capsys.readouterr()
        got = {"argv": case["argv"], "exit": code, "stdout": _TIMING.sub('"timing_seconds": 0', out), "stderr": err}
        assert got == case
