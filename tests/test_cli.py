import argparse
import contextlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from skeinlab.algebra import EvalPoint
from skeinlab.cli import REPORT_HEADER, _build_parser, main
from skeinlab.diagrams import (
    attach_meridian,
    hopf_fixture,
    link_from_json,
    link_to_json,
    unknot_fixture,
)
from skeinlab.errors import DiagramTooLargeError
from skeinlab.wrt import wrt_invariant

GOLDEN_VERIFY_PAPER = Path(__file__).parent / "golden" / "verify-paper-window-1-2.json"
GOLDEN_REPORT = Path(__file__).parent / "golden" / "report-window-1-4.json"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def test_bracket_unknot():
    rc, out, _ = run_cli("bracket", "--fixture", "unknot")
    assert rc == 0
    assert out.strip() == "-A^2 - A^-2"


def test_bracket_hopf():
    rc, out, _ = run_cli("bracket", "--fixture", "hopf")
    assert rc == 0
    assert out.strip() == "A^6 + A^2 + A^-2 + A^-6"


def test_bracket_empty_link_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"crossings": [], "free_loops": 0}))
    rc, out, _ = run_cli("bracket", str(path))
    assert rc == 0
    assert out.strip() == "1"


def test_bracket_json_roundtrip(tmp_path):
    path = tmp_path / "hopf.json"
    path.write_text(link_to_json(hopf_fixture()))
    rc, out, _ = run_cli("bracket", str(path))
    assert rc == 0
    assert out.strip() == "A^6 + A^2 + A^-2 + A^-6"


def test_colored_bracket_file_colors(tmp_path):
    path = tmp_path / "colored.json"
    path.write_text(link_to_json(hopf_fixture(), colors=(1, 1)))
    rc, out, _ = run_cli("colored-bracket", str(path))
    assert rc == 0
    assert out.strip() == "A^6 + A^2 + A^-2 + A^-6"


def test_colored_bracket_flag_overrides_nothing_stored():
    rc, out, _ = run_cli("colored-bracket", "--fixture", "hopf",
                         "--colors", "1,1", "--d", "2", "--sign", "+")
    assert rc == 0
    assert out.strip() == "-1"


def test_colored_bracket_sign_needs_d():
    rc, out, err = run_cli("colored-bracket", "--fixture", "hopf",
                           "--colors", "1,1", "--sign", "-")
    assert rc == 2 and out == ""
    assert "--sign needs --d" in err


def test_colored_bracket_needs_colors():
    rc, _, err = run_cli("colored-bracket", "--fixture", "hopf")
    assert rc == 2
    assert "colors" in err


def test_colored_bracket_arity_error_exits_2(tmp_path):
    path = tmp_path / "hopf.json"
    path.write_text(link_to_json(hopf_fixture()))
    rc, _, err = run_cli("colored-bracket", str(path), "--colors", "1")
    assert rc == 2
    assert "E_ARITY" in err


@pytest.mark.parametrize("argv", [("--colors", "-1,1"), ("--colors=-1,1",)])
def test_colored_bracket_negative_color_exits_2(argv):
    rc, out, err = run_cli("colored-bracket", "--fixture", "hopf", *argv)
    assert rc == 2 and out == ""
    assert err == "error: E_COLOR_RANGE: negative color in (-1, 1)\n"


def test_missing_file_exits_2(tmp_path):
    rc, _, err = run_cli("bracket", str(tmp_path / "nope.json"))
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("text", [
    b"{}",
    b'{"crossings": [[0, 1]]}',
    b"[]",
    b'{"crossings": [], "free_loops": -1}',
    b'{"crossings": [], "x": "\xff"}',
    b"[" * 100000,
])
def test_malformed_link_json_exits_2(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    rc, out, err = run_cli("bracket", str(path))
    assert rc == 2 and out == ""
    assert "E_SCHEMA" in err


def test_bracket_free_loop_cap_exits_2_at_once(tmp_path):
    # the reader refuses before it builds one component per loop
    assert link_from_json('{"crossings": [], "free_loops": 4000}')[0].n_components == 4000
    with pytest.raises(DiagramTooLargeError, match="4001 free loops exceeds the cap of 4000"):
        link_from_json('{"crossings": [], "free_loops": 4001}')
    path = tmp_path / "loops.json"
    path.write_text(json.dumps({"crossings": [], "free_loops": 10**9}))
    start = time.perf_counter()
    rc, out, err = run_cli("bracket", str(path))
    assert time.perf_counter() - start < 0.5
    assert rc == 2 and out == ""
    assert "E_TOO_LARGE: 1000000000 free loops exceeds the cap of 4000" in err


def test_wrt_projector_cap_exits_2_before_the_field():
    # building the level-d field is O(d^2): at d = 10^5 it would run for minutes
    start = time.perf_counter()
    rc, out, err = run_cli("wrt", "--fixture", "hopf", "--d", "100000", "--mode", "float")
    assert time.perf_counter() - start < 1.0
    assert rc == 2 and out == ""
    assert "E_TOO_LARGE: color 99999 exceeds the projector cap 8" in err


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20,
)
_labels = st.integers(-1, 7) | st.sampled_from(["a", "b", "1"]) | st.booleans() | st.none()
_junk_rows = st.lists(st.lists(_labels, min_size=3, max_size=6), max_size=6)


@st.composite
def _paired_rows(draw):
    """Up to 6 crossings in which every arc label occurs twice."""
    n = draw(st.integers(0, 6))
    ends = draw(st.permutations([i // 2 for i in range(4 * n)]))
    label = str if draw(st.booleans()) else int
    return [[label(a) for a in ends[4 * i:4 * i + 4]] + [draw(st.sampled_from([0, 1]))]
            for i in range(n)]


_link_objects = st.fixed_dictionaries(
    {"crossings": _junk_rows | _paired_rows()},
    optional={
        "free_loops": st.integers(-1, 2) | _json_values,
        "colors": st.dictionaries(st.sampled_from(["0", "1", "2", "x"]), st.integers(-1, 2)) | _json_values,
    },
)


def _bracket_exit_code(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "link.json"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    rc, _, _ = run_cli("bracket", str(path))
    return rc


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=40) | _json_values.map(json.dumps))
def test_bracket_fuzz_any_json_text(tmp_path_factory, text):
    assert _bracket_exit_code(tmp_path_factory, text) in (0, 2)


@settings(max_examples=300, deadline=None)
@given(_link_objects.map(json.dumps))
def test_bracket_fuzz_crossing_lists(tmp_path_factory, text):
    assert _bracket_exit_code(tmp_path_factory, text) in (0, 2)


def test_wrt_torus_value():
    rc, out, _ = run_cli("wrt", "--fixture", "borromean", "--color", "1",
                         "--d", "3")
    assert rc == 0
    assert out.strip() == "1"


def test_wrt_s1xs2():
    rc, out, _ = run_cli("wrt", "--fixture", "unknot", "--d", "4")
    assert rc == 0
    assert out.strip() == "1"
    rc, out, _ = run_cli("wrt", "--fixture", "unknot", "--d", "4",
                         "--mode", "float")
    assert rc == 0
    re, im = (float(tok) for tok in out.split())
    assert abs(complex(re, im) - 1) < 1e-9


@pytest.mark.parametrize("color, want", [(0, "1"), (1, "0"), (2, "0")])
def test_wrt_unknot_color_attaches_meridian(color, want):
    rc, out, _ = run_cli("wrt", "--fixture", "unknot", "--color", str(color),
                         "--d", "3")
    assert rc == 0
    pres = attach_meridian(unknot_fixture(0), 0, color)
    assert out.strip() == str(wrt_invariant(pres, EvalPoint(3, 1))) == want


def test_wrt_color_with_path_exits_2(tmp_path):
    path = tmp_path / "hopf.json"
    path.write_text(link_to_json(hopf_fixture()))
    rc, out, err = run_cli("wrt", str(path), "--color", "2", "--d", "3")
    assert rc == 2 and out == ""
    assert "--color" in err


@pytest.mark.parametrize("argv", [
    ("bracket",),
    ("colored-bracket", "--colors", "1,1"),
    ("wrt", "--d", "3"),
])
def test_fixture_with_path_exits_2(argv):
    # the path names no file: the contradiction is reported before any read
    rc, out, err = run_cli(*argv, "--fixture", "hopf", "nonexistent.json")
    assert rc == 2 and out == ""
    assert "not both" in err


def test_wrt_needs_d():
    rc, _, err = run_cli("wrt", "--fixture", "hopf")
    assert rc == 2
    assert "--d" in err


@pytest.mark.parametrize("argv", [
    ("wrt", "--fixture", "hopf", "--d", "0"),
    ("colored-bracket", "--fixture", "hopf", "--colors", "1,1", "--d", "-1"),
])
def test_level_below_one_exits_2(argv):
    rc, out, err = run_cli(*argv)
    assert rc == 2 and out == ""
    assert err == "error: level d must be >= 1\n"


def test_wrt_needs_input():
    rc, _, err = run_cli("wrt", "--d", "2")
    assert rc == 2
    assert "--fixture" in err


def test_report_header_exact():
    rc, out, _ = run_cli("report", "--window", "1..3")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == REPORT_HEADER
    assert lines[0] == "quantity,d,sign,value_re,value_im,prediction,mode,status"
    # five quantities x three levels x two signs
    assert len(lines) == 1 + 5 * 3 * 2
    assert all(line.endswith(",PASS") for line in lines[1:])


def test_report_md_format():
    rc, out, _ = run_cli("report", "--window", "2..3", "--format", "md")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("| quantity |")
    assert lines[1].startswith("| ---")
    assert all(line.endswith("| PASS |") for line in lines[2:])


def test_report_json_format():
    rc, out, _ = run_cli("report", "--window", "1..4", "--format", "json")
    assert rc == 0
    assert out.encode() == GOLDEN_REPORT.read_bytes()
    rows = json.loads(out)
    assert len(rows) == 5 * 4 * 2
    assert {row["status"] for row in rows} == {"PASS"}
    ratio4 = [r for r in rows if r["quantity"] == "ratio" and r["d"] == 4]
    assert all(r["prediction"] == "3/4" for r in ratio4)


def test_verify_paper_window_passes():
    rc, out, _ = run_cli("verify-paper", "--window", "1..2")
    assert rc == 0
    report = json.loads(out)
    assert report["summary"]["fail"] == 0
    assert report["summary"]["total"] == len(report["checks"])


def test_verify_paper_byte_stable():
    cmd = [sys.executable, "-m", "skeinlab.cli", "verify-paper",
           "--window", "1..2"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == GOLDEN_VERIFY_PAPER.read_bytes()
    assert first.stdout == second.stdout


def test_recoupling_hopf_table():
    rc, out, _ = run_cli("recoupling", "--table", "hopf", "--max-color", "1")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,a,value"
    assert lines[1] == '0,0,"1"'
    assert lines[-1] == '1,1,"A^6 + A^2 + A^-2 + A^-6"'


def test_recoupling_negative_max_color_exits_2():
    rc, out, err = run_cli("recoupling", "--table", "hopf", "--max-color", "-1")
    assert rc == 2
    assert out == ""
    assert "E_COLOR_RANGE" in err


def test_recoupling_negative_series_color_names_itself():
    rc, out, err = run_cli("recoupling", "--table", "series", "--color", "-1")
    assert rc == 2
    assert out == ""
    assert err == "error: E_COLOR_RANGE: meridian color must be nonnegative, got -1\n"


def test_recoupling_series_table():
    rc, out, _ = run_cli("recoupling", "--table", "series", "--color", "0",
                         "--window", "1..5")
    assert rc == 0
    lines = out.strip().splitlines()
    values = [line.split(",")[2] for line in lines[1:]]
    assert values == ['"1"', '"1"', '"2"', '"2"', '"3"', '"3"', '"4"', '"4"',
                      '"5"', '"5"']


@pytest.mark.parametrize("argv, flags", [
    (("--table", "hopf", "--color", "5"), "--color"),
    (("--table", "hopf", "--window", "1..3"), "--window"),
    (("--max-color", "1", "--window", "1..3", "--color", "5"), "--color"),
    (("--table", "series", "--max-color", "7"), "--max-color"),
])
def test_recoupling_foreign_option_exits_2(argv, flags):
    rc, out, err = run_cli("recoupling", *argv)
    assert rc == 2 and out == ""
    assert flags in err


@pytest.mark.parametrize("argv, same", [
    ((), ("--table", "hopf", "--max-color", "3")),
    (("--table", "series"), ("--table", "series", "--color", "1", "--window", "1..10")),
])
def test_recoupling_defaults_are_the_table_defaults(argv, same):
    got = run_cli("recoupling", *argv)
    assert got[0] == 0 and got == run_cli("recoupling", *same)


def test_bad_precision_exits_2():
    rc, _, err = run_cli("wrt", "--fixture", "unknot", "--d", "2",
                         "--mode", "float", "--precision", "3")
    assert rc == 2
    assert "precision" in err


def test_report_bad_precision_exits_2():
    rc, out, err = run_cli("report", "--window", "1..2", "--precision", "3")
    assert rc == 2 and out == ""
    assert "precision" in err


# every settable value of each subcommand; each is read by its handler
OPTION_TABLE = {
    "bracket": {"path", "--fixture"},
    "colored-bracket": {"path", "--fixture", "--d", "--sign", "--colors"},
    "wrt": {"path", "--fixture", "--d", "--sign", "--mode", "--precision",
            "--color"},
    "recoupling": {"--window", "--table", "--max-color", "--color"},
    "report": {"--window", "--precision", "--format"},
    "verify-paper": {"--window", "--mode"},
}


def test_option_table():
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {(a.option_strings or [a.dest])[0] for a in p._actions
               if not isinstance(a, argparse._HelpAction)}
        for name, p in sub.choices.items()
    }
    assert got == OPTION_TABLE
    assert sum(len(v) for v in OPTION_TABLE.values()) == 23


@pytest.mark.parametrize("argv", [
    ("bracket", "--fixture", "hopf", "--mode", "exact"),
    ("bracket", "--fixture", "hopf", "--precision", "40"),
    ("bracket", "--fixture", "hopf", "--format", "json"),
    ("colored-bracket", "--fixture", "hopf", "--colors", "1,1", "--mode", "exact"),
    ("colored-bracket", "--fixture", "hopf", "--colors", "1,1", "--precision", "40"),
    ("colored-bracket", "--fixture", "hopf", "--colors", "1,1", "--format", "md"),
    ("recoupling", "--mode", "float"),
    ("recoupling", "--precision", "40"),
    ("recoupling", "--format", "json"),
    ("wrt", "--fixture", "unknot", "--d", "2", "--format", "json"),
    ("report", "--window", "1..2", "--mode", "exact"),
    ("verify-paper", "--window", "1..2", "--precision", "40"),
    ("verify-paper", "--window", "1..2", "--format", "json"),
])
def test_removed_option_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
