"""Temperley-Lieb diagrams and linear combinations of them.

A diagram on n strands is a crossingless perfect matching of 2n marked
points on a rectangle: bottom points 0..n-1 left to right, then top
points n..2n-1 right to left (the labels walk the boundary
counterclockwise, so "noncrossing" is the usual chord condition).  The
identity pairs q with 2n-1-q.

``_walk`` joins chords of noncrossing matchings and counts the closed
loops.  It is the one strand walk of the package: ``_middle`` (for
``TLElement.__mul__``) and ``closure_count`` run it here, and the box
sweep of ``bracket`` runs it for every local state of a box.

``TLElement`` is a formal sum of diagrams with int Laurent-polynomial
coefficients over one shared polynomial denominator.  ``normalized`` is
``RatFunc``'s canonical quotient (``algebra._reduce``).  Multiplication
stacks the second factor on top of the first and weights b closed
bubbles by delta^b, delta = -A^2 - A^-2, from ``algebra.loop_weight``,
as ``closure`` weights its circles.  A product of two diagrams depends
on their inner halves (``TLDiagram.halves``) only through one middle
composition (the cellular structure of TL; Graham-Lehrer 1996), so a
product walks each pair of inner halves once, not each pair of diagrams.
Numerators are packed into ints by Kronecker substitution
(``algebra._kron_pack``).  A -> 2^k is a ring homomorphism, so partial
sums are exact however their digits carry, and only the final
numerators, which the digit width bounds, are decoded: each once, with
no division.
``jones_wenzl`` sums its recursion over [n] den(e)^2, then reduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
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

    @cached_property
    def halves(self) -> tuple:
        """(lower half, upper half).  A half has one entry per position
        0..n-1 on its side, left to right: ~p where a cap joins it to
        position p, else the rank of its through-strand end on that side."""
        n, m = self.n, 2 * self.n - 1
        low, up = [0] * n, [0] * n
        for a, b in self.pairs:
            if b < n:
                low[a], low[b] = ~b, ~a
            elif a >= n:
                up[m - a], up[m - b] = ~(m - b), ~(m - a)
        return _cap_off(tuple(low)), _cap_off(tuple(up))

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


@lru_cache(maxsize=None)
def _middle(up, low) -> tuple:
    """An upper half stacked under a lower half: (closed bubbles, rank
    pairs of the upper half's through ends that the middle caps off, the
    same for the lower half).

    One ``_walk`` over the 2n middle legs: leg q is the upper half's
    position q and meets leg n + q, the lower half's position q.
    """
    n = len(up)
    link = [*up, *(x + n if x >= 0 else x - n for x in low)]
    pairs, bubbles = _walk(link, [*range(n, 2 * n), *range(n)])
    return (bubbles, tuple(sorted(p for p in pairs if p[1] < n)),
            tuple(sorted((a - n, b - n) for a, b in pairs if a >= n)))


@lru_cache(maxsize=None)
def _cap_off(half, caps=()) -> tuple:
    """The half with the through ends (entries >= 0) of each rank pair in
    caps joined by a cap, and the others ranked 0, 1, ... left to right."""
    pos = [q for q, x in enumerate(half) if x >= 0]
    out = list(half)
    for r, s in caps:
        out[pos[r]], out[pos[s]] = ~pos[s], ~pos[r]
    rank = 0
    for q in pos:
        if out[q] >= 0:
            out[q], rank = rank, rank + 1
    return tuple(out)


def _glue(n: int, low, up) -> TLDiagram:
    """The diagram with these halves: their through ends of equal rank
    are joined."""
    m = 2 * n - 1
    pairs = [(q, ~x) for q, x in enumerate(low) if ~x > q]
    pairs += [(m - ~x, m - q) for q, x in enumerate(up) if ~x > q]
    pairs += zip((q for q, x in enumerate(low) if x >= 0), (m - q for q, x in enumerate(up) if x >= 0))
    return TLDiagram(n, tuple(sorted(pairs)))


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
        else 1.  delta^b is pre-packed for b = 0..n from the exponent -2n.

        The right terms are grouped by lower half, and each left upper
        half meets each of those once: ``_middle`` gives the b closed
        bubbles and the through-strand ends capped off on each side.  The
        left numerators times delta^b are summed per (right lower half,
        its cap pattern, new lower half); each sum times the numerators of
        the right terms with that lower half, their upper halves capped
        off by the pattern, gives the product.  Its nonzero terms come in
        the order of their first (left term, right term) pair, as in a
        loop over pairs.

        Digit width: with s and t the sums of the l1 norms of the
        numerators of the two factors, an output coefficient is a sum of
        coefficients of products c c' delta^b, so its absolute value is at
        most s t 2^n (||delta^b||_1 = 2^b and b <= n).  k is two bits more
        than the bit length of s t 2^n.  A -> 2^k is a ring homomorphism
        Z[A] -> Z, so each packed sum, partial or final, is the image of
        its true numerator however its digits carry.  Partial sums are
        never decoded, so only the final coefficients need the bound.
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

        right: dict = {}  # lower half -> (index, upper half, packed numerator) per term
        for j, (d, c) in enumerate(zip(other.terms, nums_b)):
            low, up = d.halves
            right.setdefault(low, []).append((j, up, pack(c)))
        # delta^b with its exponents shifted up by 2n
        deltas = [pack((2 * n + e, c) for e, c in loop_weight(b).items()) for b in range(n + 1)]
        by_up: dict = {}  # upper half -> (lower half, _middle of the two) per right lower half
        mid: dict = {}  # (right lower half, its caps, new lower half) -> [first i, packed sum]
        for i, (d, c) in enumerate(zip(self.terms, nums_a)):
            low_a, up = d.halves
            if up not in by_up:
                by_up[up] = [(low, *_middle(up, low)) for low in right]
            u = pack(c)
            for low, bubbles, caps_a, caps_b in by_up[up]:
                key = (low, caps_b, _cap_off(low_a, caps_a))
                mid.setdefault(key, [i, 0])[1] += u * deltas[bubbles]
        sums: dict = {}  # halves of a product diagram -> [first pair i * width + j, numerator]
        width = len(other.terms)
        for (low, caps_b, new_low), (i, s) in mid.items():
            for j, up_b, v in right[low]:
                first = i * width + j
                entry = sums.setdefault((new_low, _cap_off(up_b, caps_b)), [first, 0])
                entry[0] = min(entry[0], first)
                entry[1] += s * v
        lo = lo_a + lo_b - 2 * n
        terms = {}
        for _, v, key in sorted((first, v, key) for key, (first, v) in sums.items() if v):
            digits = _kron_digits(v, k)
            terms[_glue(n, *key)] = _poly({lo + g * j: c for j, c in enumerate(digits) if c})
        return TLElement(n, terms, self.den * other.den)

    def closure_numerator(self) -> LaurentPoly:
        """The closure's numerator over ``den``: the sum of each term's
        numerator times delta^(``closure_count`` of its diagram)."""
        return sum((c * loop_weight(closure_count(d)) for d, c in self.terms.items()),
                   LaurentPoly.zero())

    def closure(self) -> RatFunc:
        return RatFunc(self.closure_numerator(), self.den)

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
    if n <= 1:
        return TLElement.identity_element(n)
    e = extend(jones_wenzl(n - 1))
    eue = e * TLElement.hook_element(n, n - 1) * e
    qn, mix = quantum_integer(n), quantum_integer(n - 1)
    lift = e.den * qn  # e's numerators over [n] den(e)^2 = [n] den(eue)
    terms = {d: c * lift for d, c in e.terms.items()}  # e's diagrams first
    for d, c in eue.terms.items():
        terms[d] = terms.get(d, LaurentPoly.zero()) + c * mix
    return TLElement(n, terms, eue.den * qn).normalized()
