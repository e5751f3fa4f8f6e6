"""Surgery invariants at the odd roots of unity, and the checks built on them.

``wrt_invariant`` evaluates a surgery presentation by coloring every
surgery component with each color 0 .. d-1, weighting by the loop
values, summing the colored brackets, and scaling by eta^(1+n).  The
widest coloring, every surgery component at d-1, meets the projector cap
before any work in the level's field, and the sum starts there, so its
first colored bracket is the check against the sweep-cost cap: a run
that cannot finish fails before any other sweep.  When 1+n is even the
eta power is an exact field element and the whole computation stays in
CycloNum; odd powers force the 30-digit float path, the only one that
imports mpmath.

The rest of the module packages the cross-checks that ``verify`` and
the ``report`` table lean on: the torus pipeline (compared with its
closed form), the recoloring identity, the Mobius function of the
dimension argument, and the 2x2 independence certificate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import cmath

from .algebra import (
    CycloNum,
    EvalPoint,
    cyclo_to_complex,
    evaluate_at,
)
from .bracket import _check_colors, colored_bracket
from .diagrams import (
    SurgeryPresentation,
    _signature,
    attach_meridian,
    borromean_fixture,
    linking_matrix,
)
from .errors import (
    BranchCutError,
    ColorRangeError,
    FramingError,
    NonzeroSignatureError,
    OddEtaPowerError,
    SameParameterError,
    SkeinError,
)
from .recoupling import meridian_series, omega_data


# -- the invariant -----------------------------------------------------------


def wrt_invariant(pres: SurgeryPresentation, p: EvalPoint, mode: str = "auto",
                  precision: int = 30):
    """Invariant of the surgered manifold with its residual colored link.

    The surgery components are those ``pres.extra_colors`` leaves
    uncolored.  Returns an exact CycloNum when the eta power 1+n is even
    (n = number of surgery components) and ``mode`` is "auto" or
    "exact"; otherwise a 30-digit mpmath complex.  Presentations must
    have zero-signature surgery linking (an empty link's matrix is empty,
    of signature 0) and zero self-writhe on every surgery component
    (apply twist corrections first if not), and the residual colors must
    fit the level.  The widest coloring, every surgery component at d-1,
    meets the projector cap before the level's field is built, and the
    d^n colorings are summed from it down, so its colored bracket meets
    the sweep-cost cap before any narrower sweep runs.
    """
    if mode not in ("auto", "exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    link = pres.link
    surgery = pres.surgery_components
    n = len(surgery)
    mat = linking_matrix(link)
    sigma = _signature([[mat[i][j] for j in surgery] for i in surgery])
    if sigma != 0:
        raise NonzeroSignatureError(f"surgery linking matrix has signature {sigma}")
    for j in surgery:
        if mat[j][j] != 0:
            raise FramingError(f"surgery component {j} has self-writhe {mat[j][j]}")
    for j, c in sorted(pres.extra_colors.items()):
        if not 0 <= c <= 2 * p.d - 2:
            raise ColorRangeError(f"color {c} on component {j} outside 0..{2 * p.d - 2}")
    even_power = (1 + n) % 2 == 0
    if mode == "exact" and not even_power:
        raise OddEtaPowerError(
            f"eta^{1 + n} is not exact; use float mode"
        )
    use_exact = even_power and mode != "float"

    # the widest coloring meets the projector cap before any field work
    colors = [pres.extra_colors.get(j, p.d - 1) for j in range(link.n_components)]
    _check_colors(link, tuple(colors))
    om = omega_data(p.d)
    loop_values = [evaluate_at(w, p) for w in om.weights]
    total = CycloNum.zero(p.d)
    for combo in product(range(p.d - 1, -1, -1), repeat=n):
        weight = CycloNum.one(p.d)
        for j, c in zip(surgery, combo):
            colors[j] = c
            weight = weight * loop_values[c]
        total = total + weight * colored_bracket(link, colors, point=p)

    if use_exact:
        out = total
        for _ in range((1 + n) // 2):
            out = out * om.eta_sq
        return out
    import mpmath

    digits = max(precision, 15)
    with mpmath.workdps(digits):
        return mpmath.mpf(om.eta(precision)) ** (1 + n) * cyclo_to_complex(total, digits)


def _torus_presentation(a: int) -> SurgeryPresentation:
    """0-framed Borromean rings with an a-colored meridian on component 1."""
    return attach_meridian(borromean_fixture(), 1, a)


def torus_invariant(a: int, p: EvalPoint, mode: str = "auto"):
    """Invariant of the 3-torus with an a-colored core circle.

    Runs the full surgery pipeline; the closed form it must reproduce is
    meridian_series(a, p).
    """
    return wrt_invariant(_torus_presentation(a), p, mode)


def recolor_check(p: EvalPoint) -> bool:
    """Do the 1- and (2d-2)-colored meridian series agree and equal 1?"""
    if p.d < 2:
        raise ValueError("recoloring needs d >= 2 so that 2d-2 >= 2")
    s1 = meridian_series(1, p)
    s2 = meridian_series(2 * p.d - 2, p)
    return s1 == s2 and s1.is_one()


def f_mobius(z) -> complex:
    """(pi*i - 3 log z)/(pi*i - log z), principal branch.

    Undefined on the closed negative real axis; f(1) = 1, and on the
    unit circle z = e^(i*t) with |t| < pi it is the real number
    (pi - 3t)/(pi - t).
    """
    z = complex(z)
    if z.imag == 0 and z.real <= 0:
        raise BranchCutError(f"z = {z} lies on the closed negative real axis")
    log_z = cmath.log(z)
    ipi = complex(0, cmath.pi)
    return (ipi - 3 * log_z) / (ipi - log_z)


def independence_certificate(d1: int, d2: int) -> tuple[int, bool]:
    """2x2 determinant witnessing that ⟨empty⟩ and ⟨K2⟩ are not proportional.

    Rows are the exact (meridian_series(0), meridian_series(2)) values
    at levels d1 and d2; the determinant is d2 - d1, so any distinct
    pair of levels certifies independence.
    """
    if d1 == d2:
        raise SameParameterError(f"need two distinct levels, got {d1} twice")
    rows = []
    for d in (d1, d2):
        pt = EvalPoint(d, 1)
        empty = meridian_series(0, pt).as_rational()
        k2 = meridian_series(2, pt).as_rational()
        if empty is None or k2 is None:
            raise SkeinError(f"series values at d={d} are not rational")
        rows.append((empty, k2))
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    det = Fraction(det)
    if det.denominator != 1:
        raise SkeinError(f"certificate determinant {det} is not an integer")
    return int(det), det != 0
