"""Exact arithmetic for the Kauffman bracket variable A.

Three layers, all with exact (never floating) coefficients.  Every
polynomial kernel runs on ints: the field Q(A) of the skein module is
held as ``RatFunc`` quotients, and a rational p/q enters as p / q.  Only
``CycloNum`` has ``Fraction`` coefficients, where a denominator appears;
an integral one is an ``int``, and every true division goes through
``Fraction``, never ``/`` on two ints.

* ``LaurentPoly`` -- sparse Laurent polynomials in Z[A, A^-1], stored as
  a map ``exponent -> int``.
* ``RatFunc`` -- quotients of Laurent polynomials kept in a canonical
  reduced form, so equality is plain field-by-field comparison.  The form
  comes from ``_reduce``, which also puts the numerators of a
  Temperley-Lieb element (``tl.TLElement``) over their shared
  denominator: RatFunc and TL elements share one canonical quotient, with
  no common factor, not even an int one, and a denominator with positive
  leading coefficient and nonzero constant term.
* ``CycloNum`` -- residues modulo the 2(2d+1)-th cyclotomic polynomial,
  i.e. exact elements of Q(zeta) for zeta = exp(i*pi/(2d+1)).  The two
  evaluation points of level d differ by zeta -> 1/zeta and therefore
  share a single field.

The three share one set of operators: ``_Ring`` defines +, - and *, with
their reflected forms, from each class's ``_coerce``, ``_add``, ``_mul``
and ``__neg__``, ``_Field`` adds / from ``_div``, and ``_operator`` is
the one coercing preamble of them all and of ``==``.

One Kronecker kernel serves the packed products of the package:
``_kron_pack`` substitutes A -> 2^k into an integer coefficient list, and
``_kron_digits`` reads an int back as balanced base-2^k digits.  The
products of ``tl.TLElement``, the frontier weights of ``bracket._sweep``
and the weight sums of ``recoupling`` go through it.  ``CycloNum``
multiplies with one int schoolbook loop: its many products are at small
field degree (at most 6 in the torus pipeline up to d = 4), where packing
would cost more than it saves.  One integer remainder-sequence kernel,
``_prs``, runs Euclid on int coefficient lists with pseudo-division:
``poly_gcd`` takes its last remainder and ``CycloNum.inverse`` the
cofactor, so neither divides ``Fraction``s step by step, and ``_reduce``
and ``_cyclotomic_poly`` divide with one exact kernel, ``_exact_div``.

``evaluate_at`` is the ring homomorphism A -> zeta^{sign}; it is the only
bridge from symbolic objects to cyclotomic ones, and ``cyclo_to_complex``
is the only bridge onward to floating point (via mpmath, at a requested
number of digits).  It imports mpmath when it runs, so exact work never
loads it.

Conventions: the quantum integer is ``[n] = (A^{2n}-A^{-2n})/(A^2-A^{-2})``
and the loop weight of color n is ``delta_color(n) = (-1)^n [n+1]``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PoleError, SkeinError, ZeroDenominatorError


def _as_rational(x) -> int | Fraction:
    """x as an exact rational: an int when integral, else a Fraction."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _div(a, b) -> int | Fraction:
    """The exact quotient a / b of two rationals, an int when integral."""
    if b == 1:
        return a
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _cleared(coeffs) -> tuple:
    """(ints, den) with coeffs[j] = ints[j] / den, den the lcm of the
    denominators: one lcm instead of a gcd per ``Fraction`` operation."""
    if type(sum(coeffs)) is int:  # no Fraction among them
        return coeffs, 1
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _kron_pack(terms, k: int) -> int:
    """sum c 2^(k*j) over the (j, c) pairs of terms, int c and j >= 0.

    This is Kronecker substitution A -> 2^k (Harvey, J. Symb. Comp.
    2009) of the polynomial sum c A^j.  It is a ring homomorphism
    Z[A] -> Z, so sums and products of packed polynomials are the packed
    sums and products, however their digits carry on the way.  Only the
    final coefficients must lie in [-2^(k-1), 2^(k-1)) for
    ``_kron_digits`` to read them back.

    >>> v = _kron_pack(enumerate([-1, 0, 7, -2]), 4)
    >>> v
    -6401
    >>> _kron_digits(v, 4)
    [-1, 0, 7, -2]
    """
    return sum(c << k * j for j, c in terms)


def _kron_digits(value: int, k: int) -> list:
    """The balanced base-2^k digits of value (k >= 2), lowest first, each
    in [-2^(k-1), 2^(k-1)), up to the last nonzero one."""
    half, mask = 1 << (k - 1), (1 << k) - 1
    out = []
    while value:
        c = (value + half & mask) - half
        out.append(c)
        value = (value - c) >> k
    return out


def _exact_div(n: list, g: list) -> list:
    """The quotient n / g in Z[A] of int coefficient lists, lowest first.

    Long division from the top, g with a nonzero last entry: each
    quotient digit must be an exact int division by that entry, and the
    remainder must be zero; otherwise it raises SkeinError.

    >>> _exact_div([-1, 0, 0, 1], [-1, 1])
    [1, 1, 1]
    """
    r, top, lc = list(n), len(g) - 1, g[-1]
    low = [(i, c) for i, c in enumerate(g[:top]) if c]
    q = [0] * (len(r) - top)
    for j in reversed(range(len(q))):
        t, rest = divmod(r[j + top], lc)
        if rest:
            raise SkeinError(f"{n} / {g} has a digit that is not an integer")
        if t:
            q[j] = t
            for i, c in low:
                r[i + j] -= t * c
    if any(r[:top]):
        raise SkeinError(f"{n} / {g} leaves a remainder")
    return q


def _prs(r0: list, r1: list, s1: list = ()) -> tuple:
    """Euclid in ints: (r, s), r the last nonzero remainder of r0 and r1.

    r0 and r1 are int coefficient lists, lowest first, each with a
    nonzero last entry.  This is the primitive polynomial remainder
    sequence (Collins, J. ACM 1967; Knuth, TAOCP vol. 2, 4.6.1): each
    step pseudo-divides, lc(r1)^k r0 = q r1 + r, so no coefficient is
    ever a Fraction.  It stops when the next remainder is zero; r is then
    the gcd of r0 and r1 up to an int factor.

    Every step applies the same combination to a cofactor that starts at
    0 for r0 and at s1 for r1, and divides the new remainder and its
    cofactor by the gcd of all their coefficients, so they stay small and
    s r1 = r s1 modulo r0.  With s1 = [1], s/r is the inverse of r1
    modulo r0 when r is a constant; with s1 = () there is no cofactor.

    >>> _prs([-1, 0, 1], [1, 1])
    ([1, 1], [])
    >>> _prs([1, -1, 1], [0, 1], [1])
    ([1], [1, -1])
    """
    s0, s1 = [], list(s1)
    while True:
        lc, top = r1[-1], len(r1) - 1
        r, s = r0, s0
        while len(r) > top:
            t, shift = r[-1], len(r) - 1 - top
            r = [lc * c for c in r[:shift]] + [
                lc * c - t * b for c, b in zip(r[shift:], r1)
            ]
            while r and not r[-1]:
                r.pop()
            s = [lc * c for c in s]
            if s1:
                s += [0] * (shift + len(s1) - len(s))
                for j, c in enumerate(s1, shift):
                    s[j] -= t * c
        if not r:
            return r1, s1
        g = math.gcd(*r, *s)
        if g > 1:
            r, s = [c // g for c in r], [c // g for c in s]
        r0, s0, r1, s1 = r1, s1, r, s


def _operator(fn, reflected: bool = False):
    """fn(self, other), or fn(other, self) when reflected, on ``other``
    coerced by the class's ``_coerce``: NotImplemented for an operand it
    does not take, so Python tries the other operand, then TypeError."""

    def op(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return fn(other, self) if reflected else fn(self, other)

    return op


class _Ring:
    """+, - and * and their reflected forms from ``_coerce``, ``_add``,
    ``_mul`` and ``__neg__``; a sum or product is its own reflection."""

    __slots__ = ()
    __add__ = __radd__ = _operator(lambda a, b: a._add(b))
    __sub__ = _operator(lambda a, b: a._add(-b))
    __rsub__ = _operator(lambda a, b: a._add(-b), reflected=True)
    __mul__ = __rmul__ = _operator(lambda a, b: a._mul(b))


class _Field(_Ring):
    """A ring with / and its reflected form from a subclass's ``_div``."""

    __slots__ = ()
    __truediv__ = _operator(lambda a, b: a._div(b))
    __rtruediv__ = _operator(lambda a, b: a._div(b), reflected=True)


class LaurentPoly(_Ring):
    """A sparse Laurent polynomial in one variable A over Z.

    Coefficients are ints: an integral Fraction becomes its int, and any
    other value is a TypeError.  A rational p/q is ``RatFunc(p, q)``.

    >>> A = LaurentPoly.gen()
    >>> print(A**2 + 2 - A**-2)
    A^2 + 2 - A^-2
    >>> print(quantum_integer(2) * quantum_integer(2))
    A^4 + 2 + A^-4
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        clean: dict[int, int] = {}
        if terms:
            for e, c in terms.items():
                c = _as_rational(c)
                if type(c) is not int:
                    raise TypeError(f"Laurent polynomial coefficients are integers, got {c!r}")
                if c:
                    clean[int(e)] = c
        self._terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: 1})

    @staticmethod
    def gen() -> "LaurentPoly":
        """The variable A itself."""
        return LaurentPoly({1: 1})

    @staticmethod
    def monomial(exponent: int, coeff=1) -> "LaurentPoly":
        return LaurentPoly({exponent: coeff})

    @staticmethod
    def const(c) -> "LaurentPoly":
        return LaurentPoly({0: c})

    # -- inspection --------------------------------------------------------

    def items(self):
        return self._terms.items()

    def coefficient(self, exponent: int) -> int:
        return self._terms.get(exponent, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {0: 1}

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def min_exponent(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self._terms)

    def max_exponent(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self._terms)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, LaurentPoly):
            return x
        if isinstance(x, int):
            return LaurentPoly.const(x)
        return NotImplemented

    def _add(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return _poly(out)

    def __neg__(self) -> "LaurentPoly":
        return _poly({e: -c for e, c in self._terms.items()})

    def _mul(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return _poly(out)

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if not self.is_monomial() or abs(self.coefficient(self.min_exponent())) != 1:
                raise ValueError("negative powers only defined for the units ±A^k")
            ((e, c),) = self._terms.items()
            return LaurentPoly({e * n: c ** -n})
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison / hashing ----------------------------------------------

    __eq__ = _operator(lambda a, b: a._terms == b._terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- presentation --------------------------------------------------

    def __str__(self) -> str:
        return _format_terms(self._terms, "A")

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


def _format_terms(terms: dict, var: str) -> str:
    """``c*var^e`` terms by falling exponent, as in ``A^2 + 2 - A^-2``."""
    parts = []
    for e in sorted(terms, reverse=True):
        c = terms[e]
        if not c:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            power = var if e == 1 else f"{var}^{e}"
            body = power if mag == 1 else f"{mag}*{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts) or "0"


def _poly(terms: dict) -> LaurentPoly:
    """A LaurentPoly on terms as they are: int exponents and nonzero int
    coefficients, so the checks of the constructor are skipped."""
    res = LaurentPoly.__new__(LaurentPoly)
    res._terms = terms
    res._hash = None
    return res


def _dense(f: LaurentPoly, step: int = 1) -> list:
    """The coefficients of A^min(f), A^(min(f) + step), ... up to
    A^max(f) (f nonzero)."""
    lo, hi = f.min_exponent(), f.max_exponent()
    return [f.coefficient(e) for e in range(lo, hi + 1, step)]


def _step(polys) -> int:
    """The gcd k of every exponent offset e - min(p) of the nonzero polys
    (1 if there is none): each of them is A^min(p) P(A^k)."""
    k = 0
    for p in polys:
        if not p.is_zero():
            lo = p.min_exponent()
            k = math.gcd(k, *(e - lo for e, _ in p.items()))
    return k or 1


def poly_gcd(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Primitive gcd in Z[A] of the ordinary-polynomial parts of f and g.

    Monomial unit factors are irrelevant: the result has coprime int
    coefficients, a positive leading coefficient and a nonzero constant
    term.  By Gauss's lemma it divides f and g exactly in Z[A, A^-1].  It
    is the last remainder of the integer remainder sequence ``_prs``,
    made primitive.  When every exponent of f / A^min(f) and
    g / A^min(g) is a multiple of k, as in polynomials of A^4,
    f = F(A^k) and g = G(A^k) give gcd(F, G)(A^k): Euclid runs on lists
    k times shorter.
    """
    polys = [p for p in (f, g) if not p.is_zero()]
    if not polys:
        return LaurentPoly.zero()
    k = _step(polys)
    r = _dense(polys[0], k)
    if len(polys) == 2:
        r, _ = _prs(r, _dense(polys[1], k))
    c = math.gcd(*r) if r[-1] > 0 else -math.gcd(*r)
    return _poly({k * e: r[e] // c for e in reversed(range(len(r))) if r[e]})


def _reduce(nums: list, den: LaurentPoly) -> tuple:
    """The canonical form (nums, den) of numerators over one denominator.

    Divides ``den`` and every numerator with ``_exact_div``, on lists of
    A^k as in ``poly_gcd``, by u g A^s: g their joint primitive gcd, u
    the gcd of all their coefficients with the sign of den's leading one,
    and s the lowest exponent of den.  As g is primitive, u is also the
    content of every quotient by g (Gauss's lemma), so each digit is an
    exact int division.  Equal quotients thus have identical fields.
    This is the one reduction behind both ``RatFunc`` and ``tl.TLElement``.
    """
    if all(c.is_zero() for c in nums):
        return [LaurentPoly.zero() for _ in nums], LaurentPoly.one()
    g = den
    for c in nums:
        if g.is_one():
            break
        g = poly_gcd(g, c)
    k = _step(nums + [den])
    unit = math.gcd(*(c for p in nums + [den] for _, c in p.items()))
    if den.coefficient(den.max_exponent()) < 0:
        unit = -unit
    divisor, shift = [unit * c for c in _dense(g, k)], den.min_exponent()

    def divided(p):
        if p.is_zero():
            return p
        q = _exact_div(_dense(p, k), divisor)
        return _poly({p.min_exponent() - shift + k * j: c for j, c in enumerate(q) if c})

    return [divided(c) for c in nums], divided(den)


@functools.lru_cache(maxsize=None)
def quantum_integer(n: int) -> LaurentPoly:
    """[n] = (A^{2n} - A^{-2n}) / (A^2 - A^{-2}), as a Laurent polynomial.

    >>> print(quantum_integer(2))
    A^2 + A^-2
    >>> print(quantum_integer(0))
    0
    """
    if n < 0:
        raise ValueError("quantum integers are indexed by n >= 0")
    return _poly({2 * n - 2 - 4 * k: 1 for k in range(n)})


@functools.lru_cache(maxsize=None)
def delta_color(n: int) -> LaurentPoly:
    """Loop weight of an n-colored unknot: (-1)^n [n+1]."""
    q = quantum_integer(n + 1)
    return q if n % 2 == 0 else -q


@functools.lru_cache(maxsize=None)
def loop_weight(b: int) -> LaurentPoly:
    """delta^b = (-1)^b sum_j C(b, j) A^(2b-4j), the weight of b plain
    closed loops, each weighing delta = -A^2 - A^{-2}.

    >>> print(loop_weight(1))
    -A^2 - A^-2
    >>> print(loop_weight(2))
    A^4 + 2 + A^-4
    """
    if b < 0:
        raise ValueError("a loop count is >= 0")
    sign = -1 if b % 2 else 1
    return _poly({2 * b - 4 * j: sign * math.comb(b, j) for j in range(b + 1)})


class RatFunc(_Field):
    """A quotient of Laurent polynomials in the canonical form of
    ``_reduce``, so two equal rational functions have identical fields.
    A ``Fraction`` p/q, as numerator or denominator, enters as p / q.

    >>> print(RatFunc(quantum_integer(4), quantum_integer(2)))
    A^4 + A^-4
    >>> print(RatFunc(Fraction(-3, 6)))
    (-1) / (2)
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if isinstance(num, Fraction):
            num, den = num.numerator, den * num.denominator
        if isinstance(den, Fraction):
            num, den = num * den.denominator, den.numerator
        num, den = LaurentPoly._coerce(num), LaurentPoly._coerce(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("a rational function is a quotient of Laurent polynomials")
        if den.is_zero():
            raise ZeroDenominatorError("rational function with denominator 0")
        (num,), den = _reduce([num], den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("RatFunc is immutable")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (LaurentPoly, int, Fraction)):
            return RatFunc(x)
        return NotImplemented

    def _add(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def _mul(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    def _div(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den, self.den * other.num)

    __eq__ = _operator(lambda a, b: a.num == b.num and a.den == b.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc{self}"


@dataclass(frozen=True)
class EvalPoint:
    """An evaluation point A = exp(sign * i*pi/(2d+1)) of the bracket variable.

    d >= 1 indexes the level; sign is +1 or -1.  The two signs of one
    level share the cyclotomic field and are swapped by conjugation.
    """

    d: int
    sign: int = 1

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("level d must be >= 1")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def __str__(self) -> str:
        return f"(d={self.d}, sign={'+' if self.sign > 0 else '-'})"


# -- the cyclotomic field of level d ----------------------------------------


def _mobius(k: int) -> int:
    """0 if a square > 1 divides k, else (-1)^(number of primes of k)."""
    mu, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if k > 1 else mu


@functools.lru_cache(maxsize=None)
def _cyclotomic_poly(n: int) -> LaurentPoly:
    """The n-th cyclotomic polynomial, the product of (x^e - 1)^mu(n/e)
    over the divisors e of n.

    On an int coefficient list it multiplies by each binomial with
    mu(n/e) = 1, then divides by each one with mu(n/e) = -1 with
    ``_exact_div``.

    >>> print(_cyclotomic_poly(6))
    A^2 - A + 1
    >>> print(_cyclotomic_poly(10))
    A^4 - A^3 + A^2 - A + 1
    """
    mu = {e: _mobius(n // e) for e in range(1, n + 1) if n % e == 0}
    p = [1]
    for e in (e for e, m in mu.items() if m == 1):
        p = [b - a for a, b in zip(p + [0] * e, [0] * e + p)]
    for e in (e for e, m in mu.items() if m == -1):
        p = _exact_div(p, [-1] + [0] * (e - 1) + [1])
    return _poly({j: p[j] for j in reversed(range(len(p))) if p[j]})


@functools.lru_cache(maxsize=None)
def _field_data(d: int):
    """Modulus and power-reduction rows for the level-d field.

    Returns (degree m, rows) where rows[k] is x^k reduced modulo the
    2(2d+1)-th cyclotomic polynomial, for 0 <= k < 2(2d+1), as the
    (j, coefficient) pairs of its nonzero coefficients.  Because
    zeta^{2(2d+1)} = 1 every power of zeta is covered by reducing the
    exponent first.  Only rows m..2d are reduced, each as x times the
    row before; a row k < m is the unit vector x^k, and a row k > 2d is
    the negated row k - (2d+1), since zeta^(2d+1) = -1.
    """
    half = 2 * d + 1
    mod = _cyclotomic_poly(2 * half)
    m = mod.max_exponent()
    mod = [mod.coefficient(j) for j in range(m)]
    rows = [((k, 1),) for k in range(m)]
    cur = [0] * (m - 1) + [1]
    for _ in range(m, half):
        # multiply by x, reduce the overflow with x^m = -(mod below x^m)
        top, cur = cur[-1], [0] + cur[:-1]
        if top:
            cur = [c - top * r for c, r in zip(cur, mod)]
        rows.append(tuple((j, c) for j, c in enumerate(cur) if c))
    rows += [tuple((j, -c) for j, c in row) for row in rows]
    return m, tuple(rows)


@dataclass(frozen=True)
class CycloNum(_Field):
    """An exact element of Q(zeta), zeta = exp(i*pi/(2d+1)).

    Stored as the coefficient tuple of the canonical residue modulo the
    2(2d+1)-th cyclotomic polynomial, so equality of values is equality
    of tuples.  Each coefficient is an int, or a Fraction where a
    denominator appears.
    """

    d: int
    coeffs: tuple[int | Fraction, ...]

    @staticmethod
    def from_rational(d: int, value) -> "CycloNum":
        m = _field_data(d)[0]
        vec = [0] * m
        vec[0] = _as_rational(value)
        return CycloNum(d, tuple(vec))

    @staticmethod
    def zero(d: int) -> "CycloNum":
        return CycloNum.from_rational(d, 0)

    @staticmethod
    def one(d: int) -> "CycloNum":
        return CycloNum.from_rational(d, 1)

    @staticmethod
    def root_power(d: int, k: int) -> "CycloNum":
        """zeta^k as a field element (k may be negative)."""
        m, rows = _field_data(d)
        vec = [0] * m
        for j, c in rows[k % (2 * (2 * d + 1))]:
            vec[j] = c
        return CycloNum(d, tuple(vec))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def as_rational(self):
        """The value as an int or Fraction if it is rational, else None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def _coerce(self, x):
        if isinstance(x, CycloNum):
            if x.d != self.d:
                raise ValueError("cannot mix cyclotomic numbers of different levels")
            return x
        if isinstance(x, (int, Fraction)):
            return CycloNum.from_rational(self.d, x)
        return NotImplemented

    def _add(self, other: "CycloNum") -> "CycloNum":
        return CycloNum(self.d, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return CycloNum(self.d, tuple(-a for a in self.coeffs))

    def _mul(self, other: "CycloNum") -> "CycloNum":
        """The schoolbook product, reduced with the rows of ``_field_data``.

        Each operand with a Fraction is cleared with one lcm of its
        denominators, so the product and the reduction run on ints and
        the result is divided once.
        """
        m, rows = _field_data(self.d)
        (a, den_a), (b, den_b) = _cleared(self.coeffs), _cleared(other.coeffs)
        den = den_a * den_b
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        out = prod[:m]
        for i in range(m, 2 * m - 1):
            c = prod[i]
            if c:
                for j, r in rows[i]:
                    out[j] += c * r
        return CycloNum(self.d, tuple(out) if den == 1 else tuple(_div(c, den) for c in out))

    # not _Ring's shared object: the span that perfbench/spans.py puts on
    # CycloNum.__mul__ then counts the cyclotomic products only
    __mul__ = __rmul__ = _operator(_mul)

    def inverse(self) -> "CycloNum":
        """The inverse, from the int remainder sequence (``_prs``) of the
        modulus and the element's numerators over their lcm, den.

        The modulus is irreducible, so the last remainder of a nonzero
        element is a constant c, and its cofactor s, of degree below the
        modulus, has s x = c modulo the modulus: the inverse is den s / c.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in cyclotomic field")
        ints, den = _cleared(list(self.coeffs))
        while not ints[-1]:
            ints.pop()
        mod = _dense(_cyclotomic_poly(2 * (2 * self.d + 1)))
        r, s = _prs(mod, ints, [1])
        if len(r) > 1:
            raise SkeinError(f"{self} is not invertible: it shares a factor with the modulus")
        c = r[0]
        return CycloNum(self.d, tuple(_div(den * x, c) for x in s) + (0,) * (len(mod) - 1 - len(s)))

    def _div(self, other: "CycloNum") -> "CycloNum":
        r = other.as_rational()
        if r:  # a nonzero rational p/q: each numerator times q / (den p)
            ints, den = _cleared(self.coeffs)
            q, p = r.denominator, den * r.numerator
            return CycloNum(self.d, tuple(_div(x * q, p) for x in ints))
        return self * other.inverse()

    def __str__(self) -> str:
        r = self.as_rational()
        if r is not None:
            return str(r)
        body = _format_terms(dict(enumerate(self.coeffs)), "z")
        return f"{body} [z = exp(i*pi/{2 * self.d + 1})]"

    def __repr__(self) -> str:
        return f"CycloNum(d={self.d}, {self})"


# -- evaluation --------------------------------------------------------------


def evaluate_at(value, point: EvalPoint) -> CycloNum:
    """Apply the homomorphism A -> zeta^{sign} exactly.

    Accepts a LaurentPoly, whose int coefficients are summed into the
    rows of ``_field_data`` as they are, or a RatFunc, raising PoleError
    when its denominator vanishes at the point.
    """
    if isinstance(value, RatFunc):
        den = evaluate_at(value.den, point)
        if den.is_zero():
            raise PoleError(f"denominator {value.den} vanishes at {point}")
        return evaluate_at(value.num, point) / den
    if not isinstance(value, LaurentPoly):
        raise TypeError(f"cannot evaluate {type(value).__name__}")
    d = point.d
    n = 2 * (2 * d + 1)
    m, rows = _field_data(d)
    acc = [0] * m
    for e, c in value._terms.items():
        for j, r in rows[(point.sign * e) % n]:
            acc[j] += c * r
    return CycloNum(d, tuple(acc))


def cyclo_to_complex(x: CycloNum, precision: int = 30):
    """Embed a cyclotomic number into C with zeta = exp(i*pi/(2d+1)).

    ``precision`` is the working number of significant digits (>= 15);
    the result is an ``mpmath.mpc``.
    """
    if precision < 15:
        raise ValueError("precision below 15 digits is not supported")
    import mpmath

    with mpmath.workdps(precision):
        n = 2 * x.d + 1
        acc = mpmath.mpc(0)
        for j, c in enumerate(x.coeffs):
            if c:
                acc += (mpmath.mpf(c.numerator) / c.denominator) * mpmath.expjpi(
                    mpmath.mpf(j) / n
                )
        return acc
