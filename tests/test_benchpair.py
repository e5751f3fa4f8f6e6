import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "benchpair.py"
spec = importlib.util.spec_from_file_location("benchpair", TOOL)
benchpair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(benchpair)

METRICS = [
    {"name": "wall_s", "better": "lower", "bound": 0.2},
    {"name": "rate", "better": "higher", "bound": 0.1},
]


def _pair(parent, change):
    return {"parent": {"failed": 0, "exit": 0, **parent},
            "change": {"failed": 0, "exit": 0, **change}}


def test_summarize_counts_wins_in_the_better_direction():
    pairs = [_pair({"wall_s": 1.0 + i / 10, "rate": 10.0 + i},
                   {"wall_s": 0.9 + i / 10, "rate": 9.0 + i}) for i in range(4)]
    pairs.append(_pair({"wall_s": 1.0, "rate": 10.0}, {"wall_s": 1.1, "rate": 12.0}))
    out = benchpair.summarize(pairs, METRICS)
    assert out["wall_s"]["change_better_in"] == 4
    assert out["rate"]["change_better_in"] == 1
    assert out["wall_s"]["parent_median"] == out["wall_s"]["change_median"] == 1.1
    assert out["wall_s"]["within_bound"] and out["rate"]["within_bound"]
    assert out["failed"] == {"parent": 0, "change": 0}


def test_summarize_reports_a_missing_metric():
    pairs = [_pair({"wall_s": 1.0, "rate": 1.0}, {"rate": 1.0}) for _ in range(3)]
    assert benchpair.summarize(pairs, METRICS)["wall_s"] == {"missing": True}


def test_a_crashed_run_counts_as_failed(tmp_path):
    for body, code in (("raise SystemExit(3)", 3),
                       ("print('{\"attempted\": 5, \"failed\": 0, \"metrics\": {}}')\n"
                        "raise SystemExit(2)", 2)):
        (tmp_path / "perfbench").mkdir(exist_ok=True)
        (tmp_path / "perfbench" / "run.py").write_text(body + "\n")
        run = benchpair._run(tmp_path, "torus", 1, 1, 0)
        assert run["exit"] == code and run["failed"] == 1
    crashed = {"attempted": 0, "failed": 1, "exit": 3}
    pairs = [{"parent": {"failed": 0, "exit": 0}, "change": crashed} for _ in range(3)]
    assert benchpair.summarize(pairs, [])["failed"] == {"parent": 0, "change": 3}


def test_fastest_pass_of_each_run(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "print('# oracle: 3 timed passes of 260 items, wall_s 0.300 0.250 0.410')\n"
        "print('# oracle: 15 set-up samples, setup_s 0.1000 0.1100')\n"
        "print('{\"attempted\": 780, \"failed\": 0, \"metrics\": "
        "{\"wall_s\": {\"value\": 0.3, \"unit\": \"s\"}}}')\n")
    run = benchpair._run(tmp_path, "oracle", 1, 1, 0)
    assert run["wall_s"] == 0.3 and run["wall_s_passes"] == [0.3, 0.25, 0.41]

    # medians say nothing here; the fastest passes favour the change in 2 of 3
    pairs = [_pair({"wall_s": 1.0, "rate": 1.0, "wall_s_passes": [1.0, p]},
                   {"wall_s": 1.0, "rate": 1.0, "wall_s_passes": [1.0, c]})
             for p, c in ((0.8, 0.7), (0.9, 0.6), (0.5, 0.55))]
    out = benchpair.summarize(pairs, METRICS)["wall_s"]
    assert out["parent_fastest_median"] == 0.8 and out["change_fastest_median"] == 0.6
    assert out["change_fastest_better_in"] == 2
    # a run with no passes leaves the fastest-pass figures out
    pairs[0]["change"].pop("wall_s_passes")
    assert "change_fastest_median" not in benchpair.summarize(pairs, METRICS)["wall_s"]


def test_calls_differ_names_the_counters_that_moved():
    parent = {"a.calls": 3, "b.calls": 5, "b.total_s": 0.1, "c.calls": 1, "failed": 0}
    change = {"a.calls": 3, "b.calls": 6, "b.total_s": 0.2, "d.calls": 1, "failed": 1}
    assert benchpair.calls_differ(parent, change) == ["b.calls", "c.calls", "d.calls"]
    assert benchpair.calls_differ(parent, dict(parent, **{"b.total_s": 9})) == []


def test_gain_resolved_needs_nine_wins_in_ten_and_a_gap_past_the_iqr():
    def summary(parent, change):
        pairs = [_pair({"wall_s": p, "rate": 1.0}, {"wall_s": c, "rate": 1.0})
                 for p, c in zip(parent, change)]
        return benchpair.summarize(pairs, METRICS)

    parent = [1.0 + i / 100 for i in range(10)]  # IQR 0.045
    clear = summary(parent, [0.7 + i / 100 for i in range(10)])["wall_s"]
    assert clear["change_better_in"] == 10 and clear["gain_resolved"]
    # nine wins in ten are enough, eight are not
    nine = summary(parent, [0.7] * 9 + [2.0])["wall_s"]
    assert nine["change_better_in"] == 9 and nine["gain_resolved"]
    eight = summary(parent, [0.7] * 8 + [2.0] * 2)["wall_s"]
    assert eight["change_better_in"] == 8 and not eight["gain_resolved"]
    # ten wins, but the medians differ by less than the parent's IQR
    close = summary(parent, [p - 0.01 for p in parent])["wall_s"]
    assert close["change_better_in"] == 10 and not close["gap_exceeds_parent_iqr"]
    assert not close["gain_resolved"]
    # a clear gap the wrong way is no gain; "higher" metrics gain upwards
    worse = summary(parent, [1.5 + i / 100 for i in range(10)])["wall_s"]
    assert worse["gap_exceeds_parent_iqr"] and not worse["gain_resolved"]
    pairs = [_pair({"wall_s": 1.0, "rate": 10.0 + i}, {"wall_s": 1.0, "rate": 30.0 + i})
             for i in range(10)]
    assert benchpair.summarize(pairs, METRICS)["rate"]["gain_resolved"]


def test_unresolved_when_the_parent_spreads_past_the_bound():
    def summary(parent, change):
        pairs = [_pair({"wall_s": p, "rate": 1.0}, {"wall_s": c, "rate": 1.0})
                 for p, c in zip(parent, change)]
        return benchpair.summarize(pairs, METRICS)["wall_s"]

    narrow = [1.0 + i / 100 for i in range(10)]  # IQR 0.045 < 0.2 * median
    wide = [0.6 + i / 10 for i in range(10)]  # IQR 0.45 > 0.2 * median
    assert not summary(narrow, narrow)["unresolved"]
    assert not summary(narrow, [5.0] * 10)["unresolved"]
    assert summary(wide, wide)["unresolved"]
    # unless every change run reads better than every parent run
    assert not summary(wide, [0.5] * 10)["unresolved"]
    assert summary(wide, [0.5] * 9 + [0.6])["unresolved"]
    pairs = [_pair({"wall_s": 1.0, "rate": 1.0 + i}, {"wall_s": 1.0, "rate": 11.0 + i})
             for i in range(10)]
    assert not benchpair.summarize(pairs, METRICS)["rate"]["unresolved"]


def test_src_lines_counts_the_package_modules(tmp_path):
    pkg = tmp_path / "src" / "skeinlab"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n\n")
    (pkg / "b.py").write_text("z = 3")  # no final newline, as wc -l counts
    (pkg / "notes.txt").write_text("not\ncode\n")
    assert benchpair.src_lines(tmp_path) == 3
    assert benchpair.src_lines(benchpair.ROOT) > 0


def test_src_code_lines_skips_docstrings_comments_and_blanks(tmp_path):
    pkg = tmp_path / "src" / "skeinlab"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(
        '"""Module\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "class C:\n"
        '    """One line."""\n'
        "\n"
        "    def f(self):\n"
        '        """Two\n        lines."""\n'
        "        s = \"\"\"a string\n        that is not a docstring\"\"\"\n"
        "        return s  # a trailing comment\n")
    (pkg / "notes.txt").write_text("not\ncode\n")
    # class C, def f, both lines of s and the return
    assert benchpair.src_code_lines(tmp_path) == 5
    assert 0 < benchpair.src_code_lines(benchpair.ROOT) < benchpair.src_lines(benchpair.ROOT)


def test_cli_differ_names_the_commands_whose_output_or_status_moved(tmp_path):
    echo = "import sys\nargs = sys.argv[1:]\nprint(*args)\n"
    # the change prints one more line for "report" and exits 1 on "bracket"
    changed = echo + 'if args == ["report"]:\n    print()\nsys.exit(args[0] == "bracket")\n'
    for side, body in (("parent", echo), ("change", changed)):
        pkg = tmp_path / side / "src" / "skeinlab"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "cli.py").write_text(body)
    parent, change = tmp_path / "parent", tmp_path / "change"
    assert benchpair.cli_differ(parent, change) == ["report", "bracket --fixture borromean"]
    assert benchpair.cli_differ(parent, parent) == []
