"""Alternating parent/change pairs of the benchmark, written to one JSON file.

    python3 tools/benchpair.py --tag TAG --seed N [--parent REV]

Run from anywhere inside the repository.  Each side is a clean copy of the
tree in a temporary directory (``TMPDIR`` chooses where): the parent is
``git archive`` of REV (default ``HEAD``), and the change is the working
tree's tracked and untracked files that git does not ignore.  An archive
copy leaves no entry in the repository's git metadata, so an interrupted
run needs no clean-up there.  To measure a commit against its parent,
run from a clean checkout of it with ``--parent HEAD~1``.

For every workload of ``BENCHMARK.json``, pair i runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` on both
sides with seed S = N + 100*w + i, where w is the workload's place in
``BENCHMARK.json`` and T its ``run_seconds``.  The side that runs first
alternates, parent first in even pairs.  Then one ``--trace 1`` run per
side gives the per-layer counters, at seed N + 100*w + 99, and
``calls_differ`` lists the ``.calls`` counters whose two values differ.

``BENCH_<TAG>.json`` at the repository root gets every run's end-to-end
metrics, and per workload and metric the medians, the inclusive quartiles
(``statistics.quantiles(n=4, method="inclusive")``, first and third), the
number of pairs in which the change reads better in the metric's
``better`` direction, the relative change of the median, whether the
change's median is within the metric's bound of ``BENCHMARK.json``,
whether the medians differ by more than the parent's interquartile range,
and whether a gain is resolved: the change reads better in at least 9 of
10 pairs and its median is better by more than that range, and whether the
metric is unresolved: the parent's interquartile range is wider than the
bound times the parent's median, and not every change run reads better
than every parent run; per side, the failed items, where a run that
crashed counts at least one.  A run's fastest pass is less moved by a slow
phase of a shared host than its median, so ``wall_s`` also gets each
side's median over runs of the run's fastest pass, and the number of pairs
in which the change's fastest pass is the faster.
``src_lines`` gives each side's line count of ``src/skeinlab/*.py``,
``src_code_lines`` its lines of code there (not blank, not comment-only
and not inside a module, class or function docstring), and
``cli_differ`` the commands of ``CLI_COMMANDS`` whose standard output bytes
or exit status differ between the two sides; each runs as
``python -m skeinlab.cli`` with ``PYTHONPATH=<side>/src``.
Claims and notes are for the reader to add.  Progress goes to standard
error.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# command lines whose output must not move unless a change means it to
CLI_COMMANDS = (
    "verify-paper",
    "verify-paper --mode exact",
    "verify-paper --window 1..2",
    "report",
    "report --window 1..6",
    "report --format json --window 3..7 --precision 40",
    "report --format md --window 2..3",
    "wrt --fixture borromean --color 1 --d 3",
    "wrt --fixture borromean --color 2 --d 4 --sign -",
    "wrt --fixture unknot --d 4 --mode float",
    "wrt --fixture hopf --d 4000",
    "colored-bracket --fixture hopf --colors 2,3",
    "colored-bracket --fixture borromean --colors 2,1,3 --d 4 --sign -",
    "bracket --fixture borromean",
    "recoupling --table series --color 2 --window 1..10",
    "recoupling --table hopf",
)


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE).stdout


def _checkout(rev: str | None, dest: Path) -> str:
    """Copy ``rev`` (None: the working tree) into ``dest``; return its name."""
    dest.mkdir()
    if rev is None:
        listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for name in filter(None, listed.decode().split("\0")):
            src = ROOT / name
            if src.is_file():  # a tracked file deleted in the working tree is skipped
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, dest / name)
        return "working tree of " + _git("rev-parse", "--short", "HEAD").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", rev))) as tar:
        tar.extractall(dest, filter="data")
    return _git("rev-parse", "--short", rev).decode().strip()


def src_lines(tree: Path) -> int:
    """The lines of ``src/skeinlab/*.py`` in ``tree``, as ``wc -l`` counts them."""
    return sum(f.read_bytes().count(b"\n") for f in (tree / "src" / "skeinlab").glob("*.py"))


def src_code_lines(tree: Path) -> int:
    """The lines of ``src/skeinlab/*.py`` in ``tree`` that are not blank,
    not comment-only and not inside a module, class or function docstring."""
    total = 0
    for f in (tree / "src" / "skeinlab").glob("*.py"):
        text = f.read_text()
        docs: set = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and ast.get_docstring(node, clean=False) is not None:
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        total += sum(1 for i, line in enumerate(text.splitlines(), 1)
                     if i not in docs and line.strip() and not line.lstrip().startswith("#"))
    return total


def _cli(tree: Path, command: str) -> tuple:
    """(exit status, standard output bytes) of one ``skeinlab.cli`` command in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "-m", "skeinlab.cli", *command.split()], cwd=tree,
        env={**os.environ, "PYTHONPATH": str(tree / "src")}, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    return proc.returncode, proc.stdout


def cli_differ(parent: Path, change: Path) -> list:
    """The commands of ``CLI_COMMANDS`` whose output or exit status differ."""
    return [c for c in CLI_COMMANDS if _cli(parent, c) != _cli(change, c)]


def _run(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run: its metric values, counts and exit status.

    ``wall_s_passes`` lists the wall time of each timed pass, read from
    the run's ``# W: N timed passes ... wall_s ...`` note.  A run that
    prints no result line, or exits non-zero, counts at least one failed
    item.
    """
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"attempted": 0, "failed": 1, "exit": proc.returncode}
    out = {name: m["value"] for name, m in result["metrics"].items()}
    out.update(attempted=result["attempted"], exit=proc.returncode,
               failed=max(result["failed"], int(proc.returncode != 0)))
    for line in lines:
        if line.startswith(f"# {workload}: ") and " timed passes " in line:
            out["wall_s_passes"] = [float(w) for w in line.split(" wall_s ")[1].split()]
    return out


def _quartiles(values: list) -> list:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q[0], 4), round(q[2], 4)]


def summarize(pairs: list, end_to_end: list) -> dict:
    """Medians, quartiles and pair wins of each end-to-end metric."""
    out = {}
    for metric in end_to_end:
        name = metric["name"]
        parent = [p["parent"].get(name) for p in pairs]
        change = [p["change"].get(name) for p in pairs]
        if None in parent or None in change:
            out[name] = {"missing": True}
            continue
        pm, cm = statistics.median(parent), statistics.median(change)
        pq = _quartiles(parent)
        sign = 1 if metric["better"] == "lower" else -1
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        gap = abs(cm - pm) > pq[1] - pq[0]
        out[name] = {
            "parent_median": round(pm, 4),
            "parent_quartiles": pq,
            "change_median": round(cm, 4),
            "change_quartiles": _quartiles(change),
            "change_better_in": wins,
            "relative": round(cm / pm - 1, 4),
            "within_bound": sign * (cm - pm) <= metric["bound"] * pm,
            "gap_exceeds_parent_iqr": gap,
            "gain_resolved": 10 * wins >= 9 * len(pairs) and sign * (pm - cm) > 0 and gap,
            "unresolved": pq[1] - pq[0] > metric["bound"] * pm
            and not all(sign * (p - c) > 0 for p in parent for c in change),
        }
        passes = [[p[side].get(name + "_passes") for p in pairs] for side in ("parent", "change")]
        if all(map(all, passes)):
            fastest = [[min(run) for run in side] for side in passes]
            out[name].update(
                parent_fastest_median=round(statistics.median(fastest[0]), 4),
                change_fastest_median=round(statistics.median(fastest[1]), 4),
                change_fastest_better_in=sum(c < p for p, c in zip(*fastest)),
            )
    out["failed"] = {side: sum(p[side]["failed"] for p in pairs)
                     for side in ("parent", "change")}
    return out


def calls_differ(parent: dict, change: dict) -> list:
    """The sorted ``.calls`` metrics whose parent and change values differ;
    one that only one side reports differs too."""
    names = {k for k in (*parent, *change) if k.endswith(".calls")}
    return sorted(k for k in names if parent.get(k) != change.get(k))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tag", required=True, help="writes BENCH_<TAG>.json")
    ap.add_argument("--seed", type=int, required=True, help="first seed; use fresh ones")
    ap.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds, pairs_per_workload = bench["run_seconds"], 10

    report: dict = {"tag": args.tag}
    with tempfile.TemporaryDirectory(prefix="benchpair-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        report["parent"] = _checkout(args.parent, trees["parent"])
        report["change"] = _checkout(None, trees["change"])
        report["src_lines"] = {side: src_lines(tree) for side, tree in trees.items()}
        report["src_code_lines"] = {side: src_code_lines(tree) for side, tree in trees.items()}
        report["cli_differ"] = cli_differ(trees["parent"], trees["change"])
        report["command"] = (f"python3 perfbench/run.py --workload W --seed N "
                             f"--seconds {seconds} --trace 0")
        seeds = {w: args.seed + 100 * i for i, w in enumerate(names)}
        report["method"] = (
            f"{pairs_per_workload} pairs per workload, seeds "
            + ", ".join(f"{s}-{s + pairs_per_workload - 1} ({w})" for w, s in seeds.items())
            + "; the two sides alternate which runs first, parent first in even pairs; "
            "each side runs from its own copy of the tree; quartiles by "
            "statistics.quantiles(n=4, method='inclusive'); one --trace 1 run per side "
            "per workload at seed +99")
        report["host"] = (f"{os.cpu_count()} cores, Python {platform.python_version()}, "
                          f"{platform.system()}")
        report["workloads"], report["summary"] = {}, {}
        for w in names:
            runs = []
            for i in range(pairs_per_workload):
                seed = seeds[w] + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = _run(trees[side], w, seed, seconds, 0)
                    print(f"# {w} seed {seed} {side}: wall_s {pair[side].get('wall_s')}",
                          file=sys.stderr, flush=True)
                runs.append(pair)
            report["workloads"][w] = runs
            report["summary"][w] = summarize(runs, bench["end_to_end"])
            trace_seed = seeds[w] + 99
            traced = {side: _run(trees[side], w, trace_seed, seconds, 1) for side in trees}
            report["trace_" + w.replace("-", "_")] = {
                "command": (f"python3 perfbench/run.py --workload {w} --seed {trace_seed} "
                            f"--seconds {seconds} --trace 1"),
                **traced,
                "calls_differ": calls_differ(traced["parent"], traced["change"]),
            }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
