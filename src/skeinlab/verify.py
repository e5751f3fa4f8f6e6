"""Self-contained verification checks behind the ``verify-paper`` command.

Every closed form the engine's results rest on is re-derived here by an
independent route and compared exactly: series identities against their
stated values, the surgery pipeline against the series, the sweep
evaluator against the naive state sum on random diagrams, projector
laws, and the Mobius-function values of the independence argument.
Each check yields one record (id, anchor, expected, got, status) so the
report is diffable byte for byte.

A window narrows the level range of the checks that run over levels.
The checks that do not, oracle-sweep, jw-projectors, colored-closed-forms
and hopf-meridian-poly, ignore it and run in full under every window.
"""

from __future__ import annotations

import cmath
import random

import mpmath

from .algebra import (
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
    _s1xs2_presentation,
    f_mobius,
    independence_certificate,
    recolor_check,
    torus_invariant,
    wrt_invariant,
)


def _window_range(window, lo: int, hi: int) -> range:
    if window is None:
        return range(lo, hi + 1)
    a, b = window
    return range(max(lo, a), min(hi, b) + 1)


def _record(check_id: str, anchor: str, expected: str, got: str) -> dict:
    return {
        "id": check_id,
        "anchor": anchor,
        "expected": expected,
        "got": got,
        "status": "PASS" if expected == got else "FAIL",
    }


def random_braid_closure(rng: random.Random, size: int = 12) -> FramedLink:
    """A random braid-closure diagram with at most ``size`` crossings."""
    strands = rng.randint(2, 5)
    length = rng.randint(0, size)
    word = [
        rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)
    ]
    return FramedLink(braid_closure(word, strands))


def check_series_one(window) -> dict:
    ds = _window_range(window, 1, 50)
    expected = f"1 at every level {ds.start}..{ds.stop - 1}, both signs"
    for d in ds:
        for sign in (1, -1):
            if not meridian_series(1, EvalPoint(d, sign)).is_one():
                return _record(
                    "series-one",
                    "color-1 meridian series is the constant 1",
                    expected,
                    f"mismatch at d={d} sign={sign:+d}",
                )
    return _record(
        "series-one", "color-1 meridian series is the constant 1",
        expected, expected,
    )


def check_series_dims(window) -> dict:
    ds = _window_range(window, 1, 50)
    expected = f"d and d-1 at every level {ds.start}..{ds.stop - 1}, both signs"
    for d in ds:
        for sign in (1, -1):
            p = EvalPoint(d, sign)
            if meridian_series(0, p).as_rational() != d:
                return _record(
                    "series-dims", "color-0 and color-2 meridian series",
                    expected, f"series(0) wrong at d={d} sign={sign:+d}",
                )
            if meridian_series(2, p).as_rational() != d - 1:
                return _record(
                    "series-dims", "color-0 and color-2 meridian series",
                    expected, f"series(2) wrong at d={d} sign={sign:+d}",
                )
    return _record(
        "series-dims", "color-0 and color-2 meridian series",
        expected, expected,
    )


def check_hopf_meridian_poly(window) -> dict:
    expected = "hopf_eval(i,1) = delta(i) * (-A^(2i+2)-A^(-2i-2)) for i = 0..30"
    for i in range(31):
        rhs = delta_color(i) * (
            -(LaurentPoly.monomial(2 * i + 2) + LaurentPoly.monomial(-2 * i - 2))
        )
        if hopf_eval(i, 1) != rhs:
            return _record(
                "hopf-meridian-poly", "meridian eigenvalue closed form",
                expected, f"mismatch at i={i}",
            )
    return _record(
        "hopf-meridian-poly", "meridian eigenvalue closed form",
        expected, expected,
    )


def check_torus_pipeline(window, mode: str) -> dict:
    ds = [d for d in _window_range(window, 2, 3)]
    expected = (
        f"surgery value = meridian series for a in 0..2, d in {ds}, both signs"
    )
    run_mode = "float" if mode == "float" else "exact"
    for a in (0, 1, 2):
        for d in ds:
            for sign in (1, -1):
                p = EvalPoint(d, sign)
                got = torus_invariant(a, p, mode=run_mode)
                want = meridian_series(a, p)
                if run_mode == "exact":
                    ok = got == want
                else:
                    ok = abs(got - cyclo_to_complex(want)) < mpmath.mpf(10) ** -9
                if not ok:
                    return _record(
                        "torus-pipeline", "full surgery pipeline vs series",
                        expected, f"mismatch at a={a} d={d} sign={sign:+d}",
                    )
    return _record(
        "torus-pipeline", "full surgery pipeline vs series",
        expected, expected,
    )


def check_s1xs2(window, mode: str) -> dict:
    ds = _window_range(window, 2, 5)
    expected = f"1 at every level {ds.start}..{ds.stop - 1}"
    for d in ds:
        p = EvalPoint(d, 1)
        if mode == "exact":
            ok = wrt_invariant(_s1xs2_presentation(), p, mode="exact").is_one()
        else:
            v = wrt_invariant(_s1xs2_presentation(), p, mode="float")
            ok = abs(v - 1) < mpmath.mpf(10) ** -9
        if not ok:
            return _record(
                "s1xs2", "0-framed unknot surgery normalizes to 1",
                expected, f"mismatch at d={d}",
            )
    return _record(
        "s1xs2", "0-framed unknot surgery normalizes to 1",
        expected, expected,
    )


def check_eta_normalization(window, mode: str) -> dict:
    anchor = "empty surgery evaluates to eta"
    ds = _window_range(window, 2, 5)
    empty = SurgeryPresentation(
        FramedLink(PlanarDiagram((), 0)), (), {}, name="empty"
    )
    if mode == "exact":
        record = _record("eta-normalization", anchor, "", "E_ETA_ODD_POWER")
        record["expected"] = "skipped: eta^1 has no exact form"
        record["status"] = "SKIPPED"
        return record
    expected = f"eta at every level {ds.start}..{ds.stop - 1}"
    for d in ds:
        v = wrt_invariant(empty, EvalPoint(d, 1), mode="float")
        if abs(v - omega_data(d).eta) > mpmath.mpf(10) ** -25:
            return _record("eta-normalization", anchor, expected,
                           f"mismatch at d={d}")
    return _record("eta-normalization", anchor, expected, expected)


def check_recoloring(window) -> dict:
    ds = _window_range(window, 2, 25)
    expected = f"series(1) = series(2d-2) = 1 for d = {ds.start}..{ds.stop - 1}"
    for d in ds:
        for sign in (1, -1):
            if not recolor_check(EvalPoint(d, sign)):
                return _record(
                    "recoloring", "top-color recoloring invariance",
                    expected, f"mismatch at d={d} sign={sign:+d}",
                )
    return _record(
        "recoloring", "top-color recoloring invariance",
        expected, expected,
    )


def check_mobius_values(window) -> dict:
    ds = _window_range(window, 1, 1000)
    expected = (
        f"f(1)=1; f at unit arguments matches (d-1)/d and (d+2)/(d+1), "
        f"d = {ds.start}..{ds.stop - 1}"
    )
    anchor = "Mobius function values on the parameter circle"
    if f_mobius(1) != 1:
        return _record("mobius-values", anchor, expected, "f(1) != 1")
    for d in ds:
        zp = cmath.exp(1j * cmath.pi / (2 * d + 1))
        zm = cmath.exp(-1j * cmath.pi / (2 * d + 1))
        if abs(f_mobius(zp) - (d - 1) / d) > 1e-12:
            return _record("mobius-values", anchor, expected,
                           f"sign + mismatch at d={d}")
        if abs(f_mobius(zm) - (d + 2) / (d + 1)) > 1e-12:
            return _record("mobius-values", anchor, expected,
                           f"sign - mismatch at d={d}")
    return _record("mobius-values", anchor, expected, expected)


def check_independence(window) -> dict:
    ds = list(_window_range(window, 1, 20))
    expected = f"det = d2-d1 != 0 for all pairs in {ds[0]}..{ds[-1]}" if ds else "no pairs"
    anchor = "2x2 independence certificates"
    for i, d1 in enumerate(ds):
        for d2 in ds[i + 1:]:
            det, independent = independence_certificate(d1, d2)
            if det != d2 - d1 or not independent:
                return _record("independence", anchor, expected,
                               f"mismatch at ({d1},{d2})")
    return _record("independence", anchor, expected, expected)


def check_oracle_sweep(window, n_samples: int = 500, seed: int = 20250807) -> dict:
    rng = random.Random(seed)
    expected = f"sweep = state sum on {n_samples} random diagrams (seed {seed})"
    anchor = "two bracket evaluators agree"
    for k in range(n_samples):
        link = random_braid_closure(rng)
        if bracket_tangle_sweep(link.diagram) != bracket_state_sum(link.diagram):
            return _record("oracle-sweep", anchor, expected,
                           f"mismatch at sample {k}")
    return _record("oracle-sweep", anchor, expected, expected)


def check_jw_projectors(window, n_max: int = 6) -> dict:
    expected = f"idempotent, hook-killed, closure (-1)^n [n+1], n <= {n_max}"
    anchor = "projector laws"
    for n in range(n_max + 1):
        e = jones_wenzl(n)
        if not (e * e == e):
            return _record("jw-projectors", anchor, expected,
                           f"e_{n} not idempotent")
        zero = TLElement(n, {}, LaurentPoly.one())
        for i in range(1, n):
            hook = TLElement.hook_element(n, i)
            if not (hook * e == zero and e * hook == zero):
                return _record("jw-projectors", anchor, expected,
                               f"hook {i} does not kill e_{n}")
        sign = 1 if n % 2 == 0 else -1
        if e.closure() != RatFunc(quantum_integer(n + 1).scale(sign)):
            return _record("jw-projectors", anchor, expected,
                           f"closure of e_{n} wrong")
        if n and e.coefficient(identity(n)) != RatFunc(LaurentPoly.one()):
            return _record("jw-projectors", anchor, expected,
                           f"identity coefficient of e_{n} wrong")
    return _record("jw-projectors", anchor, expected, expected)


def check_colored_closed_forms(window) -> dict:
    expected = "unknot n<=5; Hopf and encirclement match closed forms for colors <= 2"
    anchor = "colored fixtures vs closed forms"
    unknot = unknot_fixture(0)
    for n in range(6):
        if colored_bracket(unknot, (n,)) != RatFunc(delta_color(n)):
            return _record("colored-closed-forms", anchor, expected,
                           f"unknot color {n}")
    hopf = hopf_fixture()
    for i in range(3):
        for a in range(3):
            if colored_bracket(hopf, (i, a)) != RatFunc(hopf_eval(i, a)):
                return _record("colored-closed-forms", anchor, expected,
                               f"hopf colors ({i},{a})")
            pres = attach_meridian(unknot_fixture(0), 0, a)
            colors = [0, 0]
            colors[pres.surgery_components[0]] = i
            for j, c in pres.extra_colors.items():
                colors[j] = c
            if colored_bracket(pres.link, colors) != RatFunc(hopf_eval(i, a)):
                return _record("colored-closed-forms", anchor, expected,
                               f"encirclement colors ({i},{a})")
    return _record("colored-closed-forms", anchor, expected, expected)


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
