"""One cold pass of a benchmark workload, run in a fresh process.

    python3 perfbench/workloads.py WORKLOAD SEED MODE SPAWN_TIME

MODE is ``setup`` (build the inputs, report the set-up time, stop),
``plain`` (set up, then run every item untraced) or ``traced`` (the same
with spans around the layer functions, see ``spans.py``).  SPAWN_TIME is
``time.monotonic()`` read by the parent just before it started this
process, so the reported set-up time covers interpreter start, the
``skeinlab`` import and building the inputs.

Standard output is JSON lines: ``{"items": n}`` once the inputs exist,
``{"item": label, "ok": bool}`` after each item, and a final summary.
Every item is checked exactly against its reference; an exception
counts as a failed item.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

# Levels of the closed-forms window, and diagrams per crossing count in
# the oracle workload (see oracle_items).
CLOSED_FORMS_LEVELS = 50
ORACLE_PER_COUNT = 20
ORACLE_FIXED_COUNTS = range(8, 13)
ORACLE_SMALL = ORACLE_PER_COUNT * 8

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"


def _mod(name: str):
    # The package re-exports the function ``bracket``, which shadows the
    # submodule of that name, so submodules come from sys.modules.
    return sys.modules[f"skeinlab.{name}"]


def torus_items(seed: int) -> list:
    """The flagship surgery pipeline against its closed form.

    Fixed order: d = 2 and 3 for a = 0, 1, 2 and both signs, then a = 0 at
    d = 4.  The sign - reuses the sign + sweeps from the memo, and some
    d = 4 sweeps reuse d = 3 ones.  d = 4 with a = 1 or 2 takes minutes
    and is left out.  The inputs do not depend on the seed.
    """
    EvalPoint = _mod("algebra").EvalPoint
    cases = [(a, EvalPoint(d, s)) for d in (2, 3) for a in (0, 1, 2) for s in (1, -1)]
    cases += [(0, EvalPoint(4, s)) for s in (1, -1)]

    def check(a, p):
        got = _mod("wrt").torus_invariant(a, p, mode="exact")
        return got == _mod("recoupling").meridian_series(a, p)

    return [(f"a={a} d={p.d} sign={p.sign:+d}", check, (a, p)) for a, p in cases]


def oracle_items(seed: int) -> list:
    """Seeded random braid closures: tangle sweep against the state sum.

    Diagrams come from ``verify.random_braid_closure``, whose crossing
    count is uniform on 0..12.  Exactly ORACLE_PER_COUNT diagrams are kept
    for each count in 8..12, which carry about 97% of the 2^n state-sum
    cost, and the first ORACLE_SMALL smaller ones as drawn; left free,
    the count of 12-crossing diagrams would move the run time by about
    10% from seed to seed.
    """
    rng = random.Random(seed)
    want = {n: ORACLE_PER_COUNT for n in ORACLE_FIXED_COUNTS}
    small = ORACLE_SMALL
    diagrams = []
    while small or any(want.values()):
        diag = _mod("verify").random_braid_closure(rng).diagram
        n = len(diag.crossings)
        if n in want:
            if want[n]:
                want[n] -= 1
                diagrams.append(diag)
        elif small:
            small -= 1
            diagrams.append(diag)

    def check(diag):
        bracket = _mod("bracket")
        return bracket.bracket_tangle_sweep(diag) == bracket.bracket_state_sum(diag)

    return [(f"diagram {k} ({len(g.crossings)} crossings)", check, (g,))
            for k, g in enumerate(diagrams)]


def _eta_sq_closed_form(d: int) -> tuple:
    """Coefficients of (2 - zeta^4 - zeta^-4) / (2d+1), with no CycloNum arithmetic."""
    CycloNum = _mod("algebra").CycloNum
    up = CycloNum.root_power(d, 4).coeffs
    down = CycloNum.root_power(d, -4).coeffs
    return tuple(
        (Fraction(2 if j == 0 else 0) - up[j] - down[j]) / (2 * d + 1)
        for j in range(len(up))
    )


def closed_forms_items(seed: int) -> list:
    """Meridian series, surgery weights and projector laws, no diagrams.

    For d = 1..CLOSED_FORMS_LEVELS: meridian_series(a) is d, 1 and d-1 for
    a = 0, 1, 2 at both signs, and omega_data(d).eta_sq is
    (2 - zeta^4 - zeta^-4) / (2d+1), i.e. 4 sin^2(2 pi/(2d+1)) / (2d+1).
    Then the Jones-Wenzl laws for n <= 6, checked by the verify-paper check.
    The inputs do not depend on the seed.
    """
    EvalPoint = _mod("algebra").EvalPoint

    def series(a, p, want):
        return _mod("recoupling").meridian_series(a, p).as_rational() == want

    def omega(d):
        return _mod("recoupling").omega_data(d).eta_sq.coeffs == _eta_sq_closed_form(d)

    def projectors():
        return _mod("verify").check_jw_projectors(None, n_max=6)["status"] == "PASS"

    items = []
    for d in range(1, CLOSED_FORMS_LEVELS + 1):
        for a, want in ((0, d), (1, 1), (2, d - 1)):
            for s in (1, -1):
                items.append((f"series a={a} d={d} sign={s:+d}", series,
                              (a, EvalPoint(d, s), want)))
        items.append((f"omega d={d}", omega, (d,)))
    items.append(("jones-wenzl laws n<=6", projectors, ()))
    return items


WORKLOADS = {
    "torus": torus_items,
    "oracle": oracle_items,
    "closed-forms": closed_forms_items,
}


def _caches_in_use() -> list:
    """Names of skeinlab caches that already hold entries."""
    full = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name.startswith("skeinlab."):
            for key, value in vars(mod).items():
                info = getattr(value, "cache_info", None)
                if callable(info) and info().currsize:
                    full.append(f"{mod_name}.{key}")
    if _mod("bracket")._sweep_memo:
        full.append("skeinlab.bracket._sweep_memo")
    return full


def _emit(obj):
    print(json.dumps(obj), flush=True)


def main(argv) -> int:
    workload, seed, mode, spawned = argv[0], int(argv[1]), argv[2], float(argv[3])
    if mode not in ("setup", "plain", "traced"):
        raise SystemExit(f"unknown mode {mode!r}")
    if "SKEINLAB_THREADS" in os.environ:
        raise SystemExit("SKEINLAB_THREADS must be unset for a single-threaded run")
    import skeinlab.verify  # noqa: F401  (loads every layer and verify)

    items = WORKLOADS[workload](seed)
    setup_s = time.monotonic() - spawned
    if mode == "setup":
        _emit({"setup_s": setup_s})
        return 0
    warm = _caches_in_use()
    if warm:
        raise SystemExit(f"caches not empty before the timed phase: {warm}")
    _emit({"items": len(items)})

    tracer = None
    if mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    failed = 0
    start = time.perf_counter()
    for k, (label, check, args) in enumerate(items):
        if tracer:
            tracer.run_id = k
        try:
            ok = bool(check(*args))
        except Exception:  # an item that raises is a failed item, not a crash
            traceback.print_exc()
            ok = False
        failed += not ok
        _emit({"item": label, "ok": ok})
    wall_s = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    summary = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_kb / 1024,
        "attempted": len(items),
        "failed": failed,
    }
    if tracer:
        summary["layers"] = tracer.metrics()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.json")
    _emit(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
