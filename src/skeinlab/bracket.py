"""Kauffman bracket evaluation.

The bracket of a diagram is the state sum over the two smoothings of
each crossing, with a crossing contributing A or A^-1 and every closed
circle a factor of -A^2 - A^-2; the empty diagram evaluates to 1.
``bracket_state_sum`` is the reference for plain diagrams: a
depth-first walk over the crossings labels each arc with its loop class,
one byte per arc, joins each prefix of smoothings once, counts the last
crossing's two states in place, tallies the 2^n states by loops and
A-smoothings, and adds one exponent row times delta^loops per loop
count.  A diagram within the cap of ``STATE_SUM_MAX_CROSSINGS`` = 20
crossings has 4n <= 80 corners, so at most 40 arcs of two ends each,
and every class label fits in one byte.

The one fast evaluator, ``bracket_tangle_sweep``, sweeps over boxes.  A
box has legs (arc ids) and local states, each a perfect matching of the
legs with a weight: a crossing is the 4-leg box A*(A-smoothing) +
A^-1*(B-smoothing), and a width-w Jones-Wenzl projector is the 2w-leg
box whose states are its terms, numerators over the projector's common
denominator.  ``diagrams._box_legs`` gives each projector site a box in
TL point order: leg p of an arc site ends at the corner ``slots[p]``,
and leg q of a loop site (w crossing-free circles) shares one arc with
leg 2w-1-q, so a projector's closure is one more box of the same sweep.
Taking the boxes in a greedy order, the sweep carries a weight for every
way the processed part can connect the open arcs, so its cost is
governed by the frontier width.  Each open arc holds a slot, which the
box closing it frees for the next arc to open, and a frontier key is one
int: a fixed-width bit field per slot holds the slot of the arc's
partner.  The update is local to the box: each leg leads on to another
leg (an arc with both ends there, or two open arcs the state joins) or
ends at an open arc, and the strand walk of ``tl`` over the leg pairs of
each local state gives the new pairs and the number of closed loops.
Keys that agree on the fields of the slots a box closes share that walk,
and a new key is the old one masked and or-ed with the new pairs, with
no sort and no tuple.  Free loops multiply the result by
``algebra.loop_weight``, the same delta^k that weights the closed loops.

A weight is packed by Kronecker substitution.  The A-exponents of all
contributions to one frontier key lie in one residue class mod 4: a
smoothing moves the exponent by +-1 and delta^l has exponents 2l mod 4,
so switching one smoothing without changing the key moves both by 2.
The sweep checks this on every addition.  So the weight
A^e0 * sum_j c_j A^(4j) is stored as the pair (e0, V) with
V = sum_j c_j 2^(k*j), one Python int.  Multiplying by a local state's
packed weight times delta^loops is then an exponent sum and one int
product, and adding two weights is an int sum after a shift that aligns
their offsets.  Packing is a ring homomorphism from Z[x] to Z, so a
partial weight's digits may carry into each other, and a key whose V is
0 adds 0 to everything after it: only the result's coefficients must
fit.  The digit width k is fixed per sweep from a bound on them: the
product over the boxes of the summed absolute state coefficients, times
2^L, where L bounds the loops of any state.  A loop that closes at box b
passes through b on two legs whose arcs close at b, and the legs whose
arcs close at their box number the arcs plus the arcs with both ends at
one box, so L is half of that, rounded up.  The result is decoded
once, as balanced base-2^k digits.  Packing and decoding are the
Kronecker kernel of ``algebra`` (``_kron_pack``, ``_kron_digits``) that
the Temperley-Lieb products use too; the stride-4 exponent map stays
here.  A contribution off its key's residue raises ``SkeinError``.

``bracket`` is ``bracket_tangle_sweep`` with no memo, kept under its
own name because the benchmark's ``bracket.bracket`` span binds it.
``colored_bracket`` evaluates a link whose components carry natural
number colors: color n means n parallel blackboard push-offs through
the n-strand projector.  It looks the numerator up in
``_sweep_memo`` under the key of ``FramedLink.orbit``, one key for every
coloring, of any link, whose sublink on the nonzero colors is the same
up to an orientation-preserving map of the sphere or a half turn of R^3
about a line in the plane, and only on a miss cables the link at the
least coloring ``orbit`` gives and sweeps it with
``bracket_tangle_sweep``.  Every memo that can skip a sweep lives
in ``_sweep_memo``, so emptying it makes the next call check the caps
again.  The memo is process-global and unbounded: it lives as long as
the process, as one CLI run or one benchmark pass does, and a caller
that sweeps many unrelated diagrams can clear it.  The numerator is
divided by the product of the projector denominators, one per nonzero
color, whose inverse at an evaluation point is computed once per
(sorted widths, point).

The caps are module constants, read at call time: crossings of the state
sum, the predicted cost of the sweep order, projector width, and the
free loops whose delta power the sweep and the state sum expand.  The
cost is on the order alone, so a sweep that cannot finish is refused
before any projector is built: the sum over the boxes of C(open arcs
entering the box // 2), the Catalan bound on the frontier keys there,
times the box's C(legs // 2) states.  Peak width alone does not predict
it: Hopf (7, 7) peaks at 22 open arcs, torus d = 4, a = 2 at 22 too,
but the first costs 2.9e7 and the second 2.0e6, and only the second
finishes in seconds.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .algebra import (
    EvalPoint,
    LaurentPoly,
    RatFunc,
    _kron_digits,
    _kron_pack,
    evaluate_at,
    loop_weight,
)
from .diagrams import (
    FREE_LOOP_CAP,
    NE,
    NW,
    OVER_SLASH,
    SE,
    SW,
    PlanarDiagram,
    _arc_numbers,
    _box_legs,
    cable,
)
from .errors import (
    ArityError,
    ColorRangeError,
    DiagramTooLargeError,
    PoleError,
    SkeinError,
    SliceWidthError,
)
from .tl import _walk, jones_wenzl

# A-smoothing and B-smoothing corner pairings for each over flag.  With
# the "/" strand on top the A-smoothing joins the corners vertically
# (nw-sw, ne-se); with the "\" strand on top it joins them horizontally.
_SMOOTHINGS = {
    OVER_SLASH: (((NW, SW), (NE, SE)), ((NW, NE), (SW, SE))),
    1 - OVER_SLASH: (((NW, NE), (SW, SE)), ((NW, SW), (NE, SE))),
}

STATE_SUM_MAX_CROSSINGS = 20
SWEEP_MAX_COST = 10**7
JW_CAP = 8


# the states of a crossing box with legs (nw, ne, sw, se)
_CROSSING_STATES = {
    over: [(s, ((shift, 1),)) for shift, s in zip((1, -1), pairs)]
    for over, pairs in _SMOOTHINGS.items()
}


def bracket_state_sum(diag: PlanarDiagram) -> LaurentPoly:
    """Reference bracket by brute-force state enumeration.

    A depth-first walk over the crossings on a stack.  A node holds one
    class label per arc, as ``bytes``; a join of two arcs with different
    labels relabels one class by one ``bytes.replace``, and a child that
    merges nothing shares its parent's labels.  Every arc has two ends,
    so loops are arcs minus merges.  A node above the last crossing
    counts that crossing's two states in place from its children's
    labels: after a merging first join, a label of the second join equal
    to the merged one reads as the one it merged into.  States are
    counted in a flat list at ``loops * (n + 1) + A-smoothings`` and
    each loop count adds its row times ``loop_weight`` of its loops.
    """
    n = len(diag.crossings)
    if n > STATE_SUM_MAX_CROSSINGS:
        raise DiagramTooLargeError(
            f"{n} crossings exceeds the state-sum cap of {STATE_SUM_MAX_CROSSINGS}"
        )
    if diag.free_loops > FREE_LOOP_CAP:
        raise DiagramTooLargeError(
            f"{diag.free_loops} free loops exceeds the cap of {FREE_LOOP_CAP}"
        )
    if not n:
        return loop_weight(diag.free_loops)
    names = _arc_numbers(diag)
    m, step = len(names), n + 1
    # joins[ci]: per smoothing (A-smoothings added, arc, arc, arc, arc)
    joins = [[(shift, *(names[c[k]] for pair in pairs for k in pair))
              for shift, pairs in zip((1, 0), _SMOOTHINGS[c.over])] for c in diag.crossings]
    final = joins[-1]
    if n == 1:  # one no-op smoothing above the last crossing
        joins.insert(0, [(0,) * 5])
    byte = [bytes((k,)) for k in range(m)]
    counts = [0] * ((m + 1) * step)
    last = len(joins) - 2  # the depth whose children are counted in place
    stack = [(0, bytes(range(m)), m * step)]
    while stack:
        i, labels, index = stack.pop()
        for shift, x1, y1, x2, y2 in joins[i]:
            child, at = labels, index + shift
            a, b = child[x1], child[y1]
            if a != b:
                child, at = child.replace(byte[a], byte[b]), at - step
            a, b = child[x2], child[y2]
            if a != b:
                child, at = child.replace(byte[a], byte[b]), at - step
            if i < last:
                stack.append((i + 1, child, at))
                continue
            for shift, u1, v1, u2, v2 in final:  # the last crossing, in place
                k = at + shift
                a, b, c, d = child[u1], child[v1], child[u2], child[v2]
                if a != b:
                    k -= step
                    c, d = b if c == a else c, b if d == a else d
                if c != d:
                    k -= step
                counts[k] += 1
    rows: dict = {}  # loops -> {A-exponent: states}
    for at, states in enumerate(counts):
        if states:
            loops, a_count = divmod(at, step)
            rows.setdefault(loops, {})[2 * a_count - n] = states
    return sum((LaurentPoly(row) * loop_weight(loops + diag.free_loops)
                for loops, row in rows.items()), LaurentPoly.zero())


def _sweep_order(arcs):
    """Greedy box order keeping the number of open arcs small.

    ``arcs`` lists the leg arc ids of each box; ties go to the lowest
    box index.  The order's predicted cost is the sum over its boxes of
    C(open arcs entering the box // 2), a bound on the frontier keys,
    times the box's state count C(legs // 2), with C the Catalan number:
    2 for a crossing, C(w) for a width-w projector.  A cost above
    ``SWEEP_MAX_COST`` raises ``SliceWidthError``.
    """
    ends = [{a for a in c if c.count(a) == 1} for c in arcs]
    remaining = list(range(len(arcs)))
    open_arcs: set = set()
    order = []
    cost = 0
    while remaining:
        ci = min(remaining, key=lambda i: len(ends[i]) - 2 * len(ends[i] & open_arcs))
        remaining.remove(ci)
        order.append(ci)
        cost += _catalan(len(open_arcs) // 2) * _catalan(len(arcs[ci]) // 2)
        open_arcs ^= ends[ci]
    if cost > SWEEP_MAX_COST:
        raise SliceWidthError(
            f"sweep order's predicted cost {cost:.3g} is above the cap of {SWEEP_MAX_COST:.3g}"
        )
    return order


def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _sweep(legs, states, order) -> dict:
    """Bracket numerator of a box diagram as {exponent: coefficient}.

    ``legs[b]`` lists the arc ids at the legs of box b, every arc
    occurring twice in all, ``states[b]`` its local states as (leg
    pairs, weight as (exponent, integer) terms), and ``order`` the box
    order.  A first pass over ``order`` gives each opening arc a slot,
    freed ones first, so the slots number the order's peak count of open
    arcs, and a key's field s, as wide as the largest slot, holds the
    slot paired with slot s (0 when s is free).  Keys that agree on the
    fields a box closes share one walk, cached as (keep, put, factor) so
    that the new key is ``key & keep | put``.  Weights and factors (a
    state weight times delta^loops) are packed as (e0, V), with
    V = sum_j c_j 2^(k*j) for A^e0 * sum_j c_j A^(4j); the digit width
    k is 2 bits above the module docstring's bound on the result's
    coefficients, so they satisfy |c_j| < 2^(k-1) and the balanced
    base-2^k digits of the final V are its coefficients.  Partial
    weights may exceed the bound: packing is a ring homomorphism, so
    their carries cancel by the end.  Equality with
    ``bracket_state_sum`` for every processing order is what the
    property suite pins down.
    """
    closing = sum(map(len, legs)) // 2 + sum(len(box) - len(set(box)) for box in legs)
    bound = 2 ** -(-closing // 2)
    for box_states in states:
        bound *= sum(abs(c) for _, w in box_states for _, c in w) or 1
    k = bound.bit_length() + 2
    slot_of: dict = {}  # open arc -> its slot
    free, plan = [], []
    for bi in order:
        box = legs[bi]
        link = [None] * len(box)  # per leg: ~j when it leads on to leg j
        ends: dict = {}  # slot -> leg, for the arcs the box closes
        for q, a in enumerate(box):
            j = box.index(a)
            if j != q:
                link[j], link[q] = ~q, ~j
            elif a in slot_of:
                ends[slot_of.pop(a)] = q
        free += ends
        for q, a in enumerate(box):  # the arcs it opens take slots, freed ones first
            if link[q] is None and q not in ends.values():
                link[q] = slot_of[a] = free.pop() if free else len(slot_of)
        plan.append((link, ends))
    n = len(slot_of) + len(free)  # every slot is open or free
    bits = max(n - 1, 1).bit_length()
    field, full = (1 << bits) - 1, (1 << bits * n) - 1
    factors: dict = {}  # (weight, loops) -> weight * delta^loops, packed
    moves_of = {i: [({**dict(s), **{y: x for x, y in s}}, w) for s, w in box_states]
                for i, box_states in {id(b): b for b in states}.items()}
    result: dict = {0: (0, 1)}
    for bi, (static, ends) in zip(order, plan):
        local = sum(field << bits * s for s in ends)
        moves = moves_of[id(states[bi])]
        walks: dict = {}  # keys that meet the box alike share a walk
        new_result: dict = {}
        for key, (e0, value) in result.items():
            found = walks.get(key & local)
            if found is None:
                found = walks[key & local] = []
                link, keep = static[:], full ^ local
                for s, q in ends.items():
                    p = key >> bits * s & field
                    if p in ends:
                        link[q] = ~ends[p]
                    else:
                        link[q], keep = p, keep ^ field << bits * p
                for partner, w in moves:
                    pairs, loops = _walk(link, partner)
                    factor = factors.get((w, loops))
                    if factor is None:
                        factor = factors[w, loops] = _pack(
                            (LaurentPoly(dict(w)) * loop_weight(loops)).items(), k)
                    put = 0
                    for x, y in pairs:
                        put |= y << bits * x | x << bits * y
                    found.append((keep, put, factor))
            for keep, put, (f0, packed) in found:
                nk = key & keep | put
                e = e0 + f0
                v = value if packed == 1 else value * packed
                acc = new_result.get(nk)
                if acc is not None:
                    a0, u = acc
                    shift = e - a0
                    if shift % 4:
                        raise SkeinError(f"key {nk} mixes exponents {a0} and {e} mod 4")
                    if shift >= 0:
                        e, v = a0, u + (v << k * shift // 4)
                    else:
                        v += u << k * -shift // 4
                new_result[nk] = e, v
        result = {nk: w for nk, w in new_result.items() if w[1]}

    if result.keys() - {0}:
        raise SkeinError("open arcs survived the sweep")
    return _unpack(*result.get(0, (0, 0)), k)


def _pack(terms, slot: int) -> tuple:
    """(exponent, int) terms of one residue mod 4 as (e0, V)."""
    e0 = min((e for e, _ in terms), default=0)
    for e, _ in terms:
        if (e - e0) % 4:
            raise SkeinError(f"box weight mixes exponents {e0} and {e} mod 4")
    return e0, _kron_pack((((e - e0) // 4, c) for e, c in terms), slot)


def _unpack(e0: int, value: int, slot: int) -> dict:
    """{exponent: coefficient} of (e0, V), read as balanced base-2^slot digits."""
    return {e0 + 4 * j: c for j, c in enumerate(_kron_digits(value, slot)) if c}


def bracket_tangle_sweep(diag: PlanarDiagram) -> LaurentPoly:
    """Bracket by one frontier sweep over the crossing and projector boxes.

    With projector sites this is the colored-bracket numerator over the
    product of the projector denominators.  The free loops and the
    sweep order's predicted cost are checked against their caps before
    any projector is built.
    """
    free = diag.free_loops - sum(s.width for s in diag.sites if not s.slots)
    if free > FREE_LOOP_CAP:
        raise DiagramTooLargeError(
            f"{free} free loops exceeds the cap of {FREE_LOOP_CAP}"
        )
    legs = _box_legs(diag)
    order = _sweep_order(legs)
    states = [_CROSSING_STATES[c.over] for c in diag.crossings]
    for site in diag.sites:
        terms = jones_wenzl(site.width).terms.items()
        states.append([(t.pairs, tuple(c.items())) for t, c in terms])
    num = _sweep(legs, states, order)
    return LaurentPoly(num) * loop_weight(free)


# colored-bracket numerators keyed by FramedLink.orbit
_sweep_memo: dict = {}


def bracket(diag: PlanarDiagram) -> LaurentPoly:
    """Bracket of a (validated) diagram: ``bracket_tangle_sweep``."""
    return bracket_tangle_sweep(diag)


def colored_bracket(link, colors, point: EvalPoint | None = None):
    """Bracket of a colored link: RatFunc, or CycloNum at ``point``.

    ``colors`` gives one natural number per component of the
    ``FramedLink``.  Color n puts n parallel copies through the n-strand
    projector; color 0 deletes the component (so the round unknot
    colored 0 gives 1, and colored n gives (-1)^n [n+1]).
    """
    colors = tuple(colors)
    _check_colors(link, colors)
    key, least = link.orbit(colors)
    num = _sweep_memo.get(key)
    if num is None:
        num = _sweep_memo[key] = bracket_tangle_sweep(cable(link, list(least)))
    widths = tuple(sorted(c for c in colors if c))
    if point is None:
        return RatFunc(num, _projector_den(widths))
    return evaluate_at(num, point) * _projector_den_inverse(widths, point)


def _check_colors(link, colors: tuple) -> None:
    """Refuse a coloring of ``link`` with the wrong number of colors, a
    negative color or a color above the projector cap ``JW_CAP``."""
    if len(colors) != link.n_components:
        raise ArityError(
            f"{len(colors)} colors for {link.n_components} components"
        )
    if any(c < 0 for c in colors):
        raise ColorRangeError(f"negative color in {colors}")
    if any(c > JW_CAP for c in colors):
        raise DiagramTooLargeError(
            f"color {max(colors)} exceeds the projector cap {JW_CAP}"
        )


def _projector_den(widths: tuple) -> LaurentPoly:
    """Product of the Jones-Wenzl denominators of the given widths."""
    den = LaurentPoly.one()
    for w in widths:
        den = den * jones_wenzl(w).den
    return den


@lru_cache(maxsize=None)
def _projector_den_inverse(widths: tuple, point: EvalPoint):
    """1 / ``_projector_den(widths)`` at ``point``, inverted once per pair."""
    den_val = evaluate_at(_projector_den(widths), point)
    if den_val.is_zero():
        raise PoleError(f"projector denominator vanishes at d={point.d}")
    return den_val.inverse()
