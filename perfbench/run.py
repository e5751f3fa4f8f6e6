"""skeinlab benchmark: cold, single-threaded runs checked exactly.

    python3 perfbench/run.py --workload torus|oracle|closed-forms \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass of a workload is a fresh
process with ``SKEINLAB_THREADS`` unset, so each ``lru_cache`` and the
sweep memo start empty, as in one CLI invocation; ``workloads.py`` checks
that before it starts the clock.  Items run one after another (closed
loop, one client).

``--trace 0`` repeats untraced passes until S seconds have gone (at least
one) and reports the medians of ``setup_s``, ``wall_s`` and
``peak_rss_mb``; extra set-up-only processes bring the set-up samples to
SETUP_SAMPLES.  ``--trace 1`` runs one untraced and one traced pass and
reports the per-layer metrics of ``spans.py`` plus ``trace.overhead_s``.

Every item is compared with its exact reference.  A pass that outlives
the run's time cap is killed and its unfinished items count as failed
(timeout).  The last line of standard output is the JSON result; the exit
status is 1 if any item failed and 2 if the benchmark could not run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("torus", "oracle", "closed-forms")
SETUP_SAMPLES = 15
# Every pass of one run must end inside this many seconds, so that the
# run exits well within three minutes even when a pass hangs.
RUN_CAP_S = 165.0


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one pass in a fresh process; kill it at ``deadline`` (monotonic)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SKEINLAB_THREADS", None)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "workloads.py"),
         workload, str(seed), mode, repr(spawned)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
    )
    status = "ok"
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        status = "timeout"
    lines = []
    for line in out.splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:  # a line cut short by the kill
            pass
    if status == "ok" and (proc.returncode != 0 or not lines):
        status = f"exit {proc.returncode}"
    wrong = [x["item"] for x in lines if x.get("ok") is False]
    if status == "ok":
        return dict(lines[-1], status=status, wrong=wrong)
    items = next((x["items"] for x in lines if "items" in x), 1)
    passed = sum(1 for x in lines if x.get("ok") is True)
    return {"status": status, "attempted": items, "failed": items - passed,
            "wrong": wrong}


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, int, int, list]:
    """Passes of one run; returns (metrics, attempted, failed, notes)."""
    start = time.monotonic()
    deadline = start + RUN_CAP_S
    notes = []

    def one(mode):
        res = spawn(workload, seed, mode, deadline)
        if res["status"] != "ok" or res.get("failed"):
            notes.append(f"{mode} pass: {res['status']}, "
                         f"{res['failed']} of {res['attempted']} items failed, "
                         f"wrong: {res['wrong'][:5]}")
        return res

    passes = [one("plain")]
    if trace:
        if not passes[0]["failed"]:
            passes.append(one("traced"))
    else:
        while time.monotonic() - start < seconds and not passes[-1]["failed"]:
            passes.append(one("plain"))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if failed:
        return {}, attempted, failed, notes

    if trace:
        plain, traced = passes
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        notes.append(f"untraced wall {plain['wall_s']:.3f} s, traced wall "
                     f"{traced['wall_s']:.3f} s")
        return metrics, attempted, failed, notes

    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        res = one("setup")
        if res["status"] != "ok":
            return {}, attempted + 1, failed + 1, notes
        setups.append(res["setup_s"])
    walls = [p["wall_s"] for p in passes]
    rss = [p["peak_rss_mb"] for p in passes]
    notes.append(f"{len(walls)} timed passes of {passes[0]['attempted']} items, "
                 f"wall_s " + " ".join(f"{w:.3f}" for w in walls))
    notes.append(f"{len(setups)} set-up samples, setup_s "
                 + " ".join(f"{s:.4f}" for s in setups))
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
    }, attempted, failed, notes


UNITS = {"_s": "s", "_mb": "MB", ".calls": "count", "_crossings": "count",
         "_states": "count", "_ratio": "ratio"}


def unit_of(name: str) -> str:
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "skeinlab" / "__init__.py").is_file():
        print(f"error: no skeinlab sources under {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("error: compiling the skeinlab sources failed", file=sys.stderr)
        return 2

    metrics, attempted, failed, notes = run(
        args.workload, args.seed, args.seconds, bool(args.trace))
    for note in notes:
        print(f"# {args.workload}: {note}")
    print(f"# {args.workload}: failed_frac {failed / attempted:.4f} "
          f"({failed} of {attempted} items)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
