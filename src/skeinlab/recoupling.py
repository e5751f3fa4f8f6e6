"""Closed-form colored-unknot data at the bracket roots of unity.

Everything here is a consequence of three computations the bracket
engine can do directly (and the test suite checks it against them): the
value of the 0-framed Hopf link with colors i and a, the loop value of
the color-i unknot, and the framing twist.  The quotient
``hopf_eval / delta`` is the scalar by which an a-colored meridian acts
on a color-i strand, and summing it against the standard weights gives
the encircling operator that the surgery invariant is built from.

``omega_data`` is exact: the weights, their sum of squares and its
inverse eta^2.  Only the float value of eta, a lazy attribute, reaches
for mpmath.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .algebra import (
    CycloNum,
    EvalPoint,
    LaurentPoly,
    RatFunc,
    cyclo_to_complex,
    delta_color,
    evaluate_at,
    quantum_integer,
)
from .errors import ColorRangeError, SkeinError


def hopf_eval(i: int, a: int) -> LaurentPoly:
    """Bracket of the 0-framed Hopf link colored (i, a).

    Equals (-1)^(i+a) [(i+1)(a+1)]; the colored-bracket pipeline
    reproduces it crossing by crossing, this is the closed form.
    """
    if i < 0 or a < 0:
        raise ColorRangeError(f"colors must be nonnegative, got ({i}, {a})")
    value = quantum_integer((i + 1) * (a + 1))
    return value if (i + a) % 2 == 0 else -value


@lru_cache(maxsize=None)
def meridian_eigenvalue(i: int, a: int) -> RatFunc:
    """Scalar action of an a-colored meridian on a color-i strand.

    hopf_eval(i, a) / delta_color(i), in lowest terms.  For a = 1 it is
    the Laurent polynomial -A^(2i+2) - A^(-2i-2).
    """
    return RatFunc(hopf_eval(i, a), delta_color(i))


@lru_cache(maxsize=None)
def meridian_series(a: int, p: EvalPoint) -> CycloNum:
    """Sum of the meridian eigenvalues over colors 0 .. d-1 at ``p``.

    None of the d terms has a pole: delta_color(i) at level d vanishes
    only when i + 1 is a multiple of 2d + 1.  The evaluated terms are
    summed coefficient by coefficient, in one pass.
    """
    terms = (evaluate_at(meridian_eigenvalue(i, a), p).coeffs for i in range(p.d))
    return CycloNum(p.d, tuple(map(sum, zip(*terms))))


@dataclass(frozen=True)
class OmegaData:
    """Surgery weights and normalization at one level.

    ``weights[i]`` is the symbolic loop value of the color-i unknot and
    ``eta_sq`` the exact field element 1 / sum(weights[i](p)^2).  Every
    weight is palindromic, so its value is real and the sum is a
    positive real fixed by conjugation: one OmegaData serves both signs
    of the evaluation point.  ``eta``, the positive real square root of
    ``eta_sq`` to at least ``precision`` digits, is computed with mpmath
    on first access and then cached.
    """

    d: int
    weights: tuple[LaurentPoly, ...]
    eta_sq: CycloNum
    precision: int = 30

    @cached_property
    def eta(self):
        """eta as an ``mpmath.mpf``, checked to be a positive real."""
        import mpmath

        digits = max(self.precision, 30) + 10
        with mpmath.workdps(digits):
            approx = cyclo_to_complex(self.eta_sq, digits)
            if abs(approx.imag) >= mpmath.mpf(10) ** (-self.precision) or approx.real <= 0:
                raise SkeinError(f"eta^2 at d={self.d} is not a positive real number")
            return mpmath.sqrt(approx.real)


@lru_cache(maxsize=None)
def omega_data(d: int, precision: int = 30) -> OmegaData:
    """Weights and eta^2 for level ``d``; eta to >= ``precision`` digits.

    A weight that is not palindromic, the same polynomial under
    A -> A^-1, could make eta^2 complex, so it raises ``SkeinError``
    here, in exact arithmetic.
    """
    if d < 1:
        raise ValueError("level d must be >= 1")
    weights = tuple(delta_color(i) for i in range(d))
    p = EvalPoint(d, 1)
    total = CycloNum.zero(d)
    for w in weights:
        if any(w.coefficient(-e) != c for e, c in w.items()):
            raise SkeinError(f"eta^2 at d={d} is not a positive real number")
        v = evaluate_at(w, p)
        total = total + v * v
    return OmegaData(d=d, weights=weights, eta_sq=total.inverse(), precision=precision)


def twist_coefficient(i: int) -> LaurentPoly:
    """Scalar for one positive framing twist on a color-i strand.

    (-1)^i A^(i^2 + 2i); a negative twist contributes the inverse.
    """
    if i < 0:
        raise ColorRangeError(f"color must be nonnegative, got {i}")
    coeff = 1 if i % 2 == 0 else -1
    return LaurentPoly.monomial(i * (i + 2), coeff)


def dim_v_torus(color: int, d: int) -> int:
    """Dimension of the level-d skein module summand tied to a color.

    Colors run over 0 .. 2d-2; even color 2c contributes d - c and odd
    colors contribute nothing.
    """
    if not 0 <= color <= 2 * d - 2:
        raise ColorRangeError(
            f"color {color} outside the level-{d} range 0..{2 * d - 2}"
        )
    if color % 2:
        return 0
    return d - color // 2
