"""Temperley-Lieb diagrams and linear combinations of them.

A diagram on n strands is a crossingless perfect matching of 2n marked
points on a rectangle: bottom points 0..n-1 left to right, then top
points n..2n-1 right to left (the labels walk the boundary
counterclockwise, so "noncrossing" is the usual chord condition).  The
identity pairs q with 2n-1-q.

``_walk`` joins chords of noncrossing matchings and counts the closed
loops.  It is the one strand walk of the package: ``compose`` and
``closure_count`` run it here, and the box sweep of ``bracket`` runs it
for every local state of a box.

``TLElement`` is a formal sum of diagrams with int Laurent-polynomial
coefficients over one shared polynomial denominator.  ``normalized`` is
``RatFunc``'s canonical quotient (``algebra._reduce``).  Multiplication
stacks the second factor on top of the first and weights b closed
bubbles by delta^b, delta = -A^2 - A^-2, from ``algebra.loop_weight``,
as ``closure`` weights its circles.  It packs each numerator into one
int by Kronecker substitution (``algebra._kron_pack``),
so a pair of diagrams costs one strand walk and two int products, and
each numerator of the product is decoded once, with no division.
``jones_wenzl`` sums its recursion over [n] den(e)^2, then reduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .algebra import (
    LaurentPoly,
    RatFunc,
    _kron_digits,
    _kron_pack,
    _poly,
    _reduce,
    loop_weight,
    quantum_integer,
)
from .errors import ArityError


@dataclass(frozen=True)
class TLDiagram:
    n: int
    pairs: tuple

    @staticmethod
    def make(n: int, pairs) -> "TLDiagram":
        norm = tuple(sorted(tuple(sorted(p)) for p in pairs))
        points = [x for p in norm for x in p]
        if sorted(points) != list(range(2 * n)):
            raise ValueError(f"not a perfect matching of {2 * n} points: {pairs}")
        for a, b in norm:
            for c, d in norm:
                if a < c < b < d:
                    raise ValueError(f"chords ({a},{b}) and ({c},{d}) cross")
        return TLDiagram(n, norm)

    def __str__(self):
        return "TL" + str(list(map(list, self.pairs)))


def identity(n: int) -> TLDiagram:
    return TLDiagram.make(n, [(q, 2 * n - 1 - q) for q in range(n)])


def hook(n: int, i: int) -> TLDiagram:
    """The generator joining bottom (and top) neighbours i-1, i."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"hook index {i} out of range for {n} strands")
    pairs = [(i - 1, i), (2 * n - 1 - i, 2 * n - i)]
    pairs += [(q, 2 * n - 1 - q) for q in range(n) if q not in (i - 1, i)]
    return TLDiagram.make(n, pairs)


def _walk(link, partner):
    """Join legs by one matching: (new arc pairs, closed loops).

    ``partner[k]`` is the leg the matching joins to leg k, and ``link[k]``
    says where leg k goes outside it: ``~j`` when it leads on to leg j, or
    a label >= 0 when it ends there.  Each path between two ends becomes
    the sorted pair of their labels, in the order of their first ends;
    a circuit that never ends is a loop.
    """
    seen = [False] * len(link)
    pairs = []
    for start, a in enumerate(link):
        if a < 0 or seen[start]:
            continue
        seen[start] = True
        cur = partner[start]
        while link[cur] < 0:
            nxt = ~link[cur]
            seen[cur] = seen[nxt] = True
            cur = partner[nxt]
        seen[cur] = True
        b = link[cur]
        pairs.append((a, b) if a < b else (b, a))
    loops = 0
    for start in range(len(link)):  # every leg left unseen lies on a loop
        if not seen[start]:
            loops += 1
            cur = start
            while not seen[cur]:
                p = partner[cur]
                seen[cur] = seen[p] = True
                cur = ~link[p]
    return pairs, loops


def _partner(d: TLDiagram) -> list:
    out = [0] * (2 * d.n)
    for a, b in d.pairs:
        out[a], out[b] = b, a
    return out


def _stacked(d: TLDiagram) -> tuple:
    """(link, top pairs) of d stacked on top of an n-strand diagram.

    ``link`` is for the walk over the points of the lower diagram:
    bottom point q ends at label q, and top point k meets bottom point
    2n-1-k of d, whose chord leads on to another top point of the lower
    diagram or ends at a top point of d.  The chords among d's top
    points pass through unchanged.
    """
    n = d.n
    up = _partner(d)
    link = list(range(n))
    for k in range(n, 2 * n):
        p = up[2 * n - 1 - k]
        link.append(~(2 * n - 1 - p) if p < n else p)
    return link, [(a, b) for a, b in d.pairs if a >= n]


def compose(d1: TLDiagram, d2: TLDiagram):
    """Stack d2 on top of d1; returns (diagram, closed bubble count)."""
    if d1.n != d2.n:
        raise ValueError(f"strand mismatch: {d1.n} vs {d2.n}")
    link, tops = _stacked(d2)
    pairs, bubbles = _walk(link, _partner(d1))
    # noncrossing by construction, so skip the check in TLDiagram.make
    return TLDiagram(d1.n, tuple(sorted(pairs + tops))), bubbles


def closure_count(d: TLDiagram) -> int:
    """Number of circles after joining each bottom point to the top
    point directly above it around the side of the rectangle."""
    m = 2 * d.n - 1
    return _walk([~(m - k) for k in range(m + 1)], _partner(d))[1]


def _offset_terms(elem: "TLElement") -> tuple:
    """(lowest exponent e0, per numerator its (exponent - e0, coefficient)
    pairs, sum of the l1 norms of the numerators)."""
    polys = list(elem.terms.values())
    lo = min((e for p in polys for e, _ in p.items()), default=0)
    nums = [[(e - lo, c) for e, c in p.items()] for p in polys]
    return lo, nums, sum(abs(c) for p in polys for _, c in p.items())


class TLElement:
    """A linear combination of TL diagrams over a common denominator."""

    __slots__ = ("n", "terms", "den")

    def __init__(self, n: int, terms: dict, den: LaurentPoly):
        self.n = n
        self.terms = {d: c for d, c in terms.items() if not c.is_zero()}
        self.den = den

    @staticmethod
    def from_diagram(d: TLDiagram) -> "TLElement":
        return TLElement(d.n, {d: LaurentPoly.one()}, LaurentPoly.one())

    @staticmethod
    def identity_element(n: int) -> "TLElement":
        return TLElement.from_diagram(identity(n))

    @staticmethod
    def hook_element(n: int, i: int) -> "TLElement":
        return TLElement.from_diagram(hook(n, i))

    def __mul__(self, other: "TLElement") -> "TLElement":
        """Stack other on top of self, over the product of the denominators.

        Each factor's int numerators are packed by Kronecker substitution
        A -> 2^k (``algebra._kron_pack``) from the factor's lowest
        exponent, one digit per step of g in the exponent: g = 2 when
        every exponent offset is even, as in every Jones-Wenzl projector,
        else 1.  The walk data of each diagram is worked out once per
        product, so a pair of diagrams costs one ``_walk`` and two int
        products: the numerators, then delta^b for its b closed bubbles,
        pre-packed for b = 0..n from the exponent -2n.  Each numerator of
        the product is decoded once.

        Digit width: with s and t the sums of the l1 norms of the
        numerators of the two factors, an output coefficient is a sum of
        coefficients of products c c' delta^b, so its absolute value is at
        most s t 2^n (||delta^b||_1 = 2^b and b <= n).  k is two bits more
        than the bit length of s t 2^n.  A -> 2^k is a ring homomorphism
        Z[A] -> Z, so each packed sum is the image of the true numerator
        however the digits of the partial sums carry: only the final
        coefficients need the bound.
        """
        if self.n != other.n:
            raise ArityError(f"cannot compose on {self.n} and {other.n} strands")
        n = self.n
        lo_a, nums_a, norm_a = _offset_terms(self)
        lo_b, nums_b, norm_b = _offset_terms(other)
        k = (norm_a * norm_b << n).bit_length() + 2
        g = gcd(2, *(j for c in nums_a + nums_b for j, _ in c))

        def pack(terms):
            return _kron_pack(((j // g, c) for j, c in terms), k)

        left = [(_partner(d), pack(c)) for d, c in zip(self.terms, nums_a)]
        right = [(*_stacked(d), pack(c)) for d, c in zip(other.terms, nums_b)]
        # delta^b with its exponents shifted up by 2n
        deltas = [pack((2 * n + e, c) for e, c in loop_weight(b).items()) for b in range(n + 1)]
        sums: dict = {}  # pairs of a product diagram -> its packed numerator
        for partner, u in left:
            for link, tops, v in right:
                pairs, bubbles = _walk(link, partner)
                key = tuple(sorted(pairs + tops))
                sums[key] = sums.get(key, 0) + u * v * deltas[bubbles]
        lo = lo_a + lo_b - 2 * n
        terms = {}
        for key, v in sums.items():
            digits = _kron_digits(v, k)
            terms[TLDiagram(n, key)] = _poly({lo + g * j: c for j, c in enumerate(digits) if c})
        return TLElement(n, terms, self.den * other.den)

    def closure(self) -> RatFunc:
        total = LaurentPoly.zero()
        for d, c in self.terms.items():
            total = total + c * loop_weight(closure_count(d))
        return RatFunc(total, self.den)

    def coefficient(self, d: TLDiagram) -> RatFunc:
        return RatFunc(self.terms.get(d, LaurentPoly.zero()), self.den)

    def normalized(self) -> "TLElement":
        nums, den = _reduce(list(self.terms.values()), self.den)
        return TLElement(self.n, dict(zip(self.terms, nums)), den)

    def __eq__(self, other):
        if not isinstance(other, TLElement) or self.n != other.n:
            return NotImplemented if not isinstance(other, TLElement) else False
        a, b = self.normalized(), other.normalized()
        return a.terms == b.terms and a.den == b.den

    def __hash__(self):
        raise TypeError("TLElement is not hashable")

    def __str__(self):
        body = " + ".join(f"({c})*{d}" for d, c in sorted(self.terms.items(), key=str))
        return f"[{body or '0'}] / ({self.den})"


def extend(elem: TLElement) -> TLElement:
    """Add one through strand on the right: n strands -> n+1."""
    n = elem.n
    terms = {}
    for d, c in elem.terms.items():
        pairs = [
            tuple(p if p < n else p + 2 for p in pair) for pair in d.pairs
        ]
        pairs.append((n, n + 1))
        terms[TLDiagram.make(n + 1, pairs)] = c
    return TLElement(n + 1, terms, elem.den)


@lru_cache(maxsize=None)
def jones_wenzl(n: int) -> TLElement:
    """The n-strand projector.

    Characterized by: coefficient 1 on the identity, and composing with
    any hook on either side gives zero.  Computed by the two-term
    recursion e_n = e + e u e [n-1]/[n], with e the extended e_{n-1} and
    u the last hook (Kauffman-Lins 1994).  Both terms are summed over the
    common denominator [n] den(e)^2, so each numerator takes one product,
    and the sum is reduced once.  The closure is the loop evaluation
    (-1)^n [n+1].
    """
    if n < 0:
        raise ValueError("negative strand count")
    if n == 0:
        empty = TLDiagram.make(0, ())
        return TLElement(0, {empty: LaurentPoly.one()}, LaurentPoly.one())
    if n == 1:
        return TLElement.identity_element(1)
    e = extend(jones_wenzl(n - 1))
    eue = e * TLElement.hook_element(n, n - 1) * e
    qn, mix = quantum_integer(n), quantum_integer(n - 1)
    lift = e.den * qn  # e's numerators over [n] den(e)^2 = [n] den(eue)
    terms = {d: c * lift for d, c in e.terms.items()}  # e's diagrams first
    for d, c in eue.terms.items():
        terms[d] = terms.get(d, LaurentPoly.zero()) + c * mix
    return TLElement(n, terms, eue.den * qn).normalized()
