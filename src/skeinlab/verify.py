"""Self-contained verification checks behind the ``verify-paper`` command.

Every closed form the engine's results rest on is re-derived here by an
independent route and compared exactly: series identities against their
stated values, the surgery pipeline against the series, the sweep
evaluator against the naive state sum on random diagrams, projector
laws, and the Mobius-function values of the independence argument.
Each check is declared with ``@_check(id, anchor)`` and returns
``(expected, got)``; the decorator turns that into its record (id,
anchor, expected, got, status), so each id and anchor is written once
and the report is diffable byte for byte.

A window narrows the level range of the checks that run over levels.
A check whose range meets the window in no level (in fewer than two for
independence, which compares pairs) is SKIPPED, and its expected field
names its range and the window.  The checks that do not run over levels,
oracle-sweep, jw-projectors, colored-closed-forms and hopf-meridian-poly,
ignore the window and run in full under every window.
"""

from __future__ import annotations

import cmath
import functools
import random

from .algebra import (
    CycloNum,
    EvalPoint,
    LaurentPoly,
    RatFunc,
    cyclo_to_complex,
    delta_color,
    quantum_integer,
)
from .bracket import bracket_state_sum, bracket_tangle_sweep, colored_bracket
from .diagrams import (
    FramedLink,
    PlanarDiagram,
    SurgeryPresentation,
    attach_meridian,
    braid_closure,
    hopf_fixture,
    unknot_fixture,
)
from .recoupling import hopf_eval, meridian_series, omega_data
from .tl import TLElement, identity, jones_wenzl
from .wrt import (
    f_mobius,
    independence_certificate,
    recolor_check,
    torus_invariant,
    wrt_invariant,
)

# the oracle-sweep check: this many random braid closures, each with at
# most BRAID_MAX_CROSSINGS crossings, drawn from this seed
BRAID_MAX_CROSSINGS = 12
ORACLE_SAMPLES = 500
ORACLE_SEED = 20250807


def _tolerance(digits: int):
    """10^-digits as an mpmath float, for the float-mode checks only, so
    an exact run never imports mpmath."""
    import mpmath

    return mpmath.mpf(10) ** -digits


def _matches(got, want: CycloNum) -> bool:
    """An exact result equals ``want``; a float one is within 10^-9 of it."""
    if isinstance(got, CycloNum):
        return got == want
    return abs(got - cyclo_to_complex(want)) < _tolerance(9)


class _OutsideWindow(Exception):
    """A check's levels meet the window in too few levels to test."""


def _window_range(window, lo: int, hi: int, least: int = 1) -> range:
    """Levels lo..hi in the window; raises ``_OutsideWindow`` below ``least``."""
    if window is None:
        return range(lo, hi + 1)
    a, b = window
    ds = range(max(lo, a), min(hi, b) + 1)
    if len(ds) < least:
        raise _OutsideWindow(f"skipped: levels {lo}..{hi} meet the window {a}..{b} "
                             f"in {len(ds)} level(s)")
    return ds


def _check(check_id: str, anchor: str):
    """Register a check's id and anchor once.

    The decorated function returns ``(expected, got)``, or
    ``(expected, got, "SKIPPED")`` when it cannot run in this mode, and
    is SKIPPED too when its levels miss the window; the wrapper returns
    its record (id, anchor, expected, got, status), with status PASS iff
    ``expected == got``.
    """
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs) -> dict:
            try:
                expected, got, *skipped = fn(*args, **kwargs)
            except _OutsideWindow as exc:
                expected, got, skipped = str(exc), "outside the window", ["SKIPPED"]
            status = skipped[0] if skipped else "PASS" if expected == got else "FAIL"
            return {
                "id": check_id,
                "anchor": anchor,
                "expected": expected,
                "got": got,
                "status": status,
            }
        return run
    return wrap


def random_braid_closure(rng: random.Random) -> FramedLink:
    """A random braid-closure diagram with at most BRAID_MAX_CROSSINGS crossings."""
    strands = rng.randint(2, 5)
    length = rng.randint(0, BRAID_MAX_CROSSINGS)
    word = [
        rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)
    ]
    return FramedLink(braid_closure(word, strands))


@_check("series-one", "color-1 meridian series is the constant 1")
def check_series_one(window):
    ds = _window_range(window, 1, 50)
    expected = f"1 at every level {ds.start}..{ds.stop - 1}, both signs"
    for d in ds:
        for sign in (1, -1):
            if not meridian_series(1, EvalPoint(d, sign)).is_one():
                return expected, f"mismatch at d={d} sign={sign:+d}"
    return expected, expected


@_check("series-dims", "color-0 and color-2 meridian series")
def check_series_dims(window):
    ds = _window_range(window, 1, 50)
    expected = f"d and d-1 at every level {ds.start}..{ds.stop - 1}, both signs"
    for d in ds:
        for sign in (1, -1):
            p = EvalPoint(d, sign)
            if meridian_series(0, p).as_rational() != d:
                return expected, f"series(0) wrong at d={d} sign={sign:+d}"
            if meridian_series(2, p).as_rational() != d - 1:
                return expected, f"series(2) wrong at d={d} sign={sign:+d}"
    return expected, expected


@_check("hopf-meridian-poly", "meridian eigenvalue closed form")
def check_hopf_meridian_poly(window):
    expected = "hopf_eval(i,1) = delta(i) * (-A^(2i+2)-A^(-2i-2)) for i = 0..30"
    for i in range(31):
        rhs = delta_color(i) * (
            -(LaurentPoly.monomial(2 * i + 2) + LaurentPoly.monomial(-2 * i - 2))
        )
        if hopf_eval(i, 1) != rhs:
            return expected, f"mismatch at i={i}"
    return expected, expected


@_check("torus-pipeline", "full surgery pipeline vs series")
def check_torus_pipeline(window, mode: str):
    ds = list(_window_range(window, 2, 3))
    expected = (
        f"surgery value = meridian series for a in 0..2, d in {ds}, both signs"
    )
    for a in (0, 1, 2):
        for d in ds:
            for sign in (1, -1):
                p = EvalPoint(d, sign)
                if not _matches(torus_invariant(a, p, mode=mode), meridian_series(a, p)):
                    return expected, f"mismatch at a={a} d={d} sign={sign:+d}"
    return expected, expected


@_check("s1xs2", "0-framed unknot surgery normalizes to 1")
def check_s1xs2(window, mode: str):
    ds = _window_range(window, 2, 5)
    expected = f"1 at every level {ds.start}..{ds.stop - 1}"
    pres = SurgeryPresentation(unknot_fixture(0), {})
    for d in ds:
        p = EvalPoint(d, 1)
        if not _matches(wrt_invariant(pres, p, mode=mode), CycloNum.one(d)):
            return expected, f"mismatch at d={d}"
    return expected, expected


@_check("eta-normalization", "empty surgery evaluates to eta")
def check_eta_normalization(window, mode: str):
    if mode == "exact":
        return "skipped: eta^1 has no exact form", "E_ETA_ODD_POWER", "SKIPPED"
    ds = _window_range(window, 2, 5)
    empty = SurgeryPresentation(FramedLink(PlanarDiagram((), 0)), {})
    expected = f"eta at every level {ds.start}..{ds.stop - 1}"
    for d in ds:
        v = wrt_invariant(empty, EvalPoint(d, 1), mode="float")
        # eta(30), not eta(): the cache key wrt_invariant's default filled
        if abs(v - omega_data(d).eta(30)) > _tolerance(25):
            return expected, f"mismatch at d={d}"
    return expected, expected


@_check("recoloring", "top-color recoloring invariance")
def check_recoloring(window):
    ds = _window_range(window, 2, 25)
    expected = f"series(1) = series(2d-2) = 1 for d = {ds.start}..{ds.stop - 1}"
    for d in ds:
        for sign in (1, -1):
            if not recolor_check(EvalPoint(d, sign)):
                return expected, f"mismatch at d={d} sign={sign:+d}"
    return expected, expected


@_check("mobius-values", "Mobius function values on the parameter circle")
def check_mobius_values(window):
    ds = _window_range(window, 1, 1000)
    expected = (
        f"f(1)=1; f at unit arguments matches (d-1)/d and (d+2)/(d+1), "
        f"d = {ds.start}..{ds.stop - 1}"
    )
    if f_mobius(1) != 1:
        return expected, "f(1) != 1"
    for d in ds:
        zp = cmath.exp(1j * cmath.pi / (2 * d + 1))
        zm = cmath.exp(-1j * cmath.pi / (2 * d + 1))
        if abs(f_mobius(zp) - (d - 1) / d) > 1e-12:
            return expected, f"sign + mismatch at d={d}"
        if abs(f_mobius(zm) - (d + 2) / (d + 1)) > 1e-12:
            return expected, f"sign - mismatch at d={d}"
    return expected, expected


@_check("independence", "2x2 independence certificates")
def check_independence(window):
    ds = list(_window_range(window, 1, 20, least=2))
    expected = f"det = d2-d1 != 0 for all pairs in {ds[0]}..{ds[-1]}"
    for i, d1 in enumerate(ds):
        for d2 in ds[i + 1:]:
            det, independent = independence_certificate(d1, d2)
            if det != d2 - d1 or not independent:
                return expected, f"mismatch at ({d1},{d2})"
    return expected, expected


@_check("oracle-sweep", "two bracket evaluators agree")
def check_oracle_sweep(window):
    rng = random.Random(ORACLE_SEED)
    expected = f"sweep = state sum on {ORACLE_SAMPLES} random diagrams (seed {ORACLE_SEED})"
    for k in range(ORACLE_SAMPLES):
        link = random_braid_closure(rng)
        if bracket_tangle_sweep(link.diagram) != bracket_state_sum(link.diagram):
            return expected, f"mismatch at sample {k}"
    return expected, expected


@_check("jw-projectors", "projector laws")
def check_jw_projectors(window, n_max: int = 6):
    expected = f"idempotent, hook-killed, closure (-1)^n [n+1], n <= {n_max}"
    for n in range(n_max + 1):
        e = jones_wenzl(n)
        if not (e * e == e):
            return expected, f"e_{n} not idempotent"
        zero = TLElement(n, {}, LaurentPoly.one())
        for i in range(1, n):
            hook = TLElement.hook_element(n, i)
            if not (hook * e == zero and e * hook == zero):
                return expected, f"hook {i} does not kill e_{n}"
        sign = 1 if n % 2 == 0 else -1
        if e.closure() != RatFunc(quantum_integer(n + 1) * sign):
            return expected, f"closure of e_{n} wrong"
        if n and e.coefficient(identity(n)) != RatFunc(LaurentPoly.one()):
            return expected, f"identity coefficient of e_{n} wrong"
    return expected, expected


@_check("colored-closed-forms", "colored fixtures vs closed forms")
def check_colored_closed_forms(window):
    expected = "unknot n<=5; Hopf and encirclement match closed forms for colors <= 2"
    unknot = unknot_fixture(0)
    for n in range(6):
        if colored_bracket(unknot, (n,)) != RatFunc(delta_color(n)):
            return expected, f"unknot color {n}"
    hopf = hopf_fixture()
    for i in range(3):
        for a in range(3):
            if colored_bracket(hopf, (i, a)) != RatFunc(hopf_eval(i, a)):
                return expected, f"hopf colors ({i},{a})"
            pres = attach_meridian(unknot_fixture(0), 0, a)
            colors = [pres.extra_colors.get(k, i) for k in range(2)]
            if colored_bracket(pres.link, colors) != RatFunc(hopf_eval(i, a)):
                return expected, f"encirclement colors ({i},{a})"
    return expected, expected


def run_checks(window=None, mode: str = "auto") -> list:
    """Run the registry in order; one record per check."""
    return [
        check_series_one(window),
        check_series_dims(window),
        check_hopf_meridian_poly(window),
        check_torus_pipeline(window, mode),
        check_s1xs2(window, mode),
        check_eta_normalization(window, mode),
        check_recoloring(window),
        check_mobius_values(window),
        check_independence(window),
        check_oracle_sweep(window),
        check_jw_projectors(window),
        check_colored_closed_forms(window),
    ]


def build_report(records: list) -> dict:
    counts = {"total": len(records), "pass": 0, "fail": 0, "skipped": 0}
    for r in records:
        counts[r["status"].lower()] += 1
    return {"checks": records, "summary": counts}
