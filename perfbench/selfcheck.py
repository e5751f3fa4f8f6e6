"""Self-check of the benchmark's traced counts.

    python3 perfbench/selfcheck.py [--seed N]

For every workload, two traced passes with the same seed must give
identical counts, and a pass with another seed must give the same counts
on ``torus`` and ``closed-forms`` (their inputs do not depend on the
seed) and different counts on ``oracle``.  Exits 1 if any of that fails.
Takes about two minutes, most of it the three traced ``torus`` passes.
"""

from __future__ import annotations

import argparse
import sys
import time

from run import RUN_CAP_S, WORKLOADS, spawn

SEEDED = {"oracle"}


def counts(workload: str, seed: int) -> dict:
    res = spawn(workload, seed, "traced", time.monotonic() + RUN_CAP_S)
    if res["status"] != "ok" or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: traced pass failed ({res})")
    return {k: v for k, v in res["layers"].items() if not k.endswith("_s")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args(argv).seed
    problems = []
    for workload in WORKLOADS:
        first, again, other = (counts(workload, s) for s in (seed, seed, seed + 1))
        if first != again:
            diff = sorted(k for k in first if first[k] != again[k])
            problems.append(f"{workload}: same seed, different counts {diff}")
        moved = sorted(k for k in first if first[k] != other[k])
        if workload in SEEDED and not moved:
            problems.append(f"{workload}: the seed does not reach the inputs")
        if workload not in SEEDED and moved:
            problems.append(f"{workload}: the seed moves counts {moved}")
        print(f"{workload}: repeat identical: {first == again}; "
              f"counts moved by the seed: {moved or 'none'}", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
