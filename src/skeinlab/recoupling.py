"""Closed-form colored-unknot data at the bracket roots of unity.

Everything here is a consequence of three computations the bracket
engine can do directly (and the test suite checks it against them): the
value of the 0-framed Hopf link with colors i and a, the loop value of
the color-i unknot, and the framing twist.  The quotient
``hopf_eval / delta`` is the scalar by which an a-colored meridian acts
on a color-i strand, and summing it against the standard weights gives
the encircling operator that the surgery invariant is built from.

Each sum is formed in Z[A, A^-1] and then evaluated once: ``evaluate_at``
is a ring homomorphism, so the meridian series is the value of the summed
eigenvalues, and eta^-2 the value of the summed squared weights.

``omega_data`` is exact and cached per level: the weights, their sum of
squares and its inverse eta^2.  Only the float value of eta, the method
``OmegaData.eta``, reaches for mpmath.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import (
    CycloNum,
    EvalPoint,
    LaurentPoly,
    _dense,
    _exact_div,
    _kron_digits,
    _kron_pack,
    _poly,
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
def meridian_eigenvalue(i: int, a: int) -> LaurentPoly:
    """Scalar action of an a-colored meridian on a color-i strand.

    hopf_eval(i, a) / delta_color(i), a Laurent polynomial: [(i+1)(a+1)]
    is divisible by [i+1] (Kauffman-Lins 1994).  Both are A^lo times a
    polynomial in A^4, so ``_exact_div`` divides their stride-4 lists; it
    raises ``SkeinError`` if a division is not exact.  For a = 1 it is
    -A^(2i+2) - A^(-2i-2).
    """
    num, den = hopf_eval(i, a), delta_color(i)
    q = _exact_div(_dense(num, 4), _dense(den, 4))
    lo = num.min_exponent() - den.min_exponent()
    return _poly({lo + 4 * j: c for j, c in enumerate(q) if c})


def meridian_series(a: int, p: EvalPoint) -> CycloNum:
    """Sum of the meridian eigenvalues over colors 0 .. d-1 at ``p``.

    The d eigenvalues are Laurent polynomials, so they have no pole; their
    sum is formed in Z[A, A^-1] and evaluated once.  Each eigenvalue
    [(i+1)(a+1)]/[i+1] is palindromic in A, so the sum is real, and its
    values at the two signs, complex conjugates, are equal: both signs
    share one value, computed at sign +.  A negative ``a`` raises
    ``ColorRangeError`` before any of that.
    """
    if a < 0:
        raise ColorRangeError(f"meridian color must be nonnegative, got {a}")
    return _series(a, p.d)


@lru_cache(maxsize=None)
def _series(a: int, d: int) -> CycloNum:
    total: dict[int, int] = {}
    for i in range(d):
        for e, c in meridian_eigenvalue(i, a).items():
            total[e] = total.get(e, 0) + c
    return evaluate_at(_poly({e: c for e, c in total.items() if c}), EvalPoint(d))


@dataclass(frozen=True, eq=False)
class OmegaData:
    """Surgery weights and normalization at one level.

    ``weights[i]`` is the symbolic loop value of the color-i unknot and
    ``eta_sq`` the exact field element 1 / sum(weights[i](p)^2).  Every
    weight is palindromic, so its value is real and the sum is a
    positive real fixed by conjugation: one OmegaData serves both signs
    of the evaluation point.  ``eta(precision)``, the positive real
    square root of ``eta_sq``, is computed with mpmath once per precision,
    cached on the record itself: ``omega_data`` makes one per level.
    """

    d: int
    weights: tuple[LaurentPoly, ...]
    eta_sq: CycloNum

    @lru_cache(maxsize=None)
    def eta(self, precision: int = 30):
        """eta to at least ``precision`` digits as an ``mpmath.mpf``,
        checked to be a positive real."""
        import mpmath

        digits = max(precision, 30) + 10
        with mpmath.workdps(digits):
            approx = cyclo_to_complex(self.eta_sq, digits)
            if abs(approx.imag) >= mpmath.mpf(10) ** (-precision) or approx.real <= 0:
                raise SkeinError(f"eta^2 at d={self.d} is not a positive real number")
            return mpmath.sqrt(approx.real)


@lru_cache(maxsize=None)
def omega_data(d: int) -> OmegaData:
    """The exact ``OmegaData`` of level ``d``: weights and eta^2.

    A weight that is not palindromic, the same polynomial under
    A -> A^-1, could make eta^2 complex, so it raises ``SkeinError``
    here, in exact arithmetic.  The weights, times A^-lo for their lowest
    exponent lo, are Kronecker-packed one digit per power of A and
    squared, so their sum of squares times A^(-2 lo) is one int; the sum
    of their squared l1 norms bounds its coefficients and sets the digit
    width.  It is decoded, evaluated and inverted once.
    """
    point = EvalPoint(d)
    weights = tuple(delta_color(i) for i in range(d))
    for w in weights:
        if any(w.coefficient(-e) != c for e, c in w.items()):
            raise SkeinError(f"eta^2 at d={d} is not a positive real number")
    lo = min(w.min_exponent() for w in weights)
    k = sum(sum(abs(c) for _, c in w.items()) ** 2 for w in weights).bit_length() + 1
    packed = sum(_kron_pack(((e - lo, c) for e, c in w.items()), k) ** 2 for w in weights)
    squares = _poly({2 * lo + j: c for j, c in enumerate(_kron_digits(packed, k)) if c})
    return OmegaData(d=d, weights=weights, eta_sq=evaluate_at(squares, point).inverse())


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
