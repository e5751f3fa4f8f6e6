"""Kauffman bracket evaluation.

The bracket of a diagram is the state sum over the two smoothings of
each crossing, with a crossing contributing A or A^-1 and every closed
circle a factor of -A^2 - A^-2; the empty diagram evaluates to 1.
``bracket_state_sum`` is the reference for plain diagrams: it
enumerates all 2^n states, counts each one's loops with a fresh
union-find over the arcs, histograms the states by (A-exponent, loops)
and builds the polynomial once.

The one fast evaluator, ``bracket_tangle_sweep``, sweeps over boxes.  A
box has legs (arc ids) and local states, each a perfect matching of the
legs with a weight: a crossing is the 4-leg box A*(A-smoothing) +
A^-1*(B-smoothing), and a width-w Jones-Wenzl projector is the 2w-leg box
whose states are its terms, numerators over the projector's common
denominator.  A diagram's ``sites`` say where its projectors sit: an arc
site cuts w parallel arcs, and a loop site, w crossing-free parallel
circles, is a box whose leg q shares one arc with leg 2w-1-q, so a
projector's closure is one more box of the same sweep.  Taking the
boxes in a greedy order, the sweep carries a weight for every way the
processed part can connect the dangling arc ends, keyed by sorted
(min, max) arc pairs, so its cost is governed by the frontier width.
The update is local to the box: each leg leads on to another leg (an arc
with both ends there, or two open arcs the state joins) or ends at an
open arc, and the strand walk of ``tl`` over the leg pairs of each local
state gives the new pairs and the number of closed loops.  Free loops
multiply the result by the same binomial expansion of delta^k that
weights the closed loops.

A weight is packed by Kronecker substitution.  The A-exponents of all
contributions to one frontier key lie in one residue class mod 4: a
smoothing moves the exponent by +-1 and delta^l has exponents 2l mod 4,
so switching one smoothing without changing the key moves both by 2.
The sweep checks this on every addition.  So the weight
A^e0 * sum_j c_j A^(4j) is stored as the pair (e0, V) with
V = sum_j c_j 2^(k*j), one Python int.  Multiplying by a local state's
packed weight times delta^loops is then an exponent sum and one int
product, and adding two weights is an int sum after a shift that aligns
their offsets.  The slot width k is fixed per sweep from a bound on every
coefficient of every partial weight: the product over the boxes of the
summed absolute state coefficients, times 2^(number of arcs), since each
closed loop uses up an arc.  The result is decoded once, as balanced
base-2^k digits.  A contribution off its key's residue, or a box
coefficient that is not an integer, raises ``SkeinError``.

``bracket`` memoizes the sweep in ``_sweep_memo``, keyed by the
canonical form of the diagram and its projector sites.  The memo is
process-global and unbounded: it lives as long as the process, as one
CLI run or one benchmark pass does, and a caller that sweeps many
unrelated diagrams can clear it.  ``colored_bracket`` evaluates a link
whose components carry natural number colors: color n means n parallel
blackboard push-offs through the n-strand projector.  It cables the link
once and divides ``bracket`` of the cabled diagram by the product of the
projector denominators, whose inverse at an evaluation point is computed
once per (sorted site widths, point).

The caps are module constants, read at call time: crossings of the state
sum, open arcs of the sweep order, projector width, and the free loops
whose delta power the sweep and the state sum expand.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb

from .algebra import EvalPoint, LaurentPoly, RatFunc, evaluate_at, loop_weight
from .diagrams import NE, NW, OVER_SLASH, SE, SW, PlanarDiagram, cable, canonical_form
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
SWEEP_MAX_WIDTH = 24
JW_CAP = 8
FREE_LOOP_CAP = 4000


# the states of a crossing box with legs (nw, ne, sw, se)
_CROSSING_STATES = {
    over: [(s, ((shift, 1),)) for shift, s in zip((1, -1), pairs)]
    for over, pairs in _SMOOTHINGS.items()
}


def bracket_state_sum(diag: PlanarDiagram) -> LaurentPoly:
    """Reference bracket by brute-force state enumeration.

    Every state starts a fresh union-find over the arcs and applies the
    two arc joins of each crossing's smoothing; every arc has two ends,
    so the loops are the arcs minus the successful unions.  The states
    are counted by (A-exponent, loops) and the polynomial is built once.
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
    label: dict = {}
    joins = []  # joins[ci][s]: the two (arc, arc) joins of smoothing s
    for c in diag.crossings:
        arc = [label.setdefault(c[k], len(label)) for k in (NW, NE, SW, SE)]
        joins.append([[(arc[x], arc[y]) for x, y in pairs] for pairs in _SMOOTHINGS[c.over]])

    counts: dict = {}
    for state in product((0, 1), repeat=n):
        parent = list(range(len(label)))
        loops = len(label)
        for ci, s in enumerate(state):
            for x, y in joins[ci][s]:
                while parent[x] != x:
                    x = parent[x]
                while parent[y] != y:
                    y = parent[y]
                if x != y:
                    parent[x] = y
                    loops -= 1
        key = (n - 2 * sum(state), loops)
        counts[key] = counts.get(key, 0) + 1

    delta = loop_weight()
    total = LaurentPoly.zero()
    for (exponent, loops), count in counts.items():
        total = total + LaurentPoly.monomial(exponent, count) * delta**(loops + diag.free_loops)
    return total


def _sweep_order(arcs):
    """Greedy box order keeping the number of open arcs small.

    ``arcs`` lists the leg arc ids of each box; ties go to the lowest
    box index.
    """
    ends = [{a for a in c if c.count(a) == 1} for c in arcs]
    remaining = list(range(len(arcs)))
    open_arcs: set = set()
    order = []
    peak = 0
    while remaining:
        ci = min(remaining, key=lambda i: len(ends[i]) - 2 * len(ends[i] & open_arcs))
        remaining.remove(ci)
        order.append(ci)
        open_arcs ^= ends[ci]
        peak = max(peak, len(open_arcs))
    if peak > SWEEP_MAX_WIDTH:
        raise SliceWidthError(
            f"sweep frontier reaches {peak} open arcs, above the cap of {SWEEP_MAX_WIDTH}"
        )
    return order


def _sweep(legs, states, order) -> dict:
    """Bracket numerator of a box diagram as {exponent: coefficient}.

    ``legs[b]`` lists the arc ids at the legs of box b, every arc
    occurring twice in all, ``states[b]`` its local states as (leg
    pairs, weight as (exponent, integer) terms), and ``order`` the box
    order, from ``_sweep_order``.  Each frontier key carries its weight
    packed as (e0, V), for A^e0 * sum_j c_j A^(4j) with
    V = sum_j c_j 2^(k*j); a factor, a state weight times
    delta^loops, is packed the same way.  The slot width k is 2 bits
    above the bound of the module docstring, which one loop at most
    doubles per arc it uses up, so |c_j| < 2^(k-1): the balanced
    base-2^k digits of V are its coefficients, and V is 0 exactly when
    the weight is.  Equality with ``bracket_state_sum`` for every
    processing order is what the property suite pins down.
    """
    bound = 2 ** (sum(map(len, legs)) // 2)
    for box_states in states:
        bound *= sum(abs(_integral(c)) for _, w in box_states for _, c in w) or 1
    slot = bound.bit_length() + 2
    factors: dict = {}  # (weight, loops) -> weight * delta^loops, packed
    frontier: set = set()
    result: dict = {(): (0, 1)}
    for bi in order:
        box, box_states = legs[bi], states[bi]
        # per leg: ~j when it leads on to leg j, an arc id when it ends
        static = list(box)
        local: dict = {}
        for k, a in enumerate(box):
            twin = [j for j in range(len(box)) if j != k and box[j] == a]
            if twin:
                static[k] = ~twin[0]
            elif a in frontier:
                local[a] = k
        frontier ^= {a for a in box if box.count(a) == 1}
        moves = [({**dict(s), **{y: x for x, y in s}}, w) for s, w in box_states]
        walks: dict = {}  # states that meet the box alike share a walk
        new_result: dict = {}
        for key, (e0, value) in result.items():
            link = static[:]
            carried = []
            for pair in key:
                a, b = pair
                if a in local:
                    if b in local:
                        link[local[a]], link[local[b]] = ~local[b], ~local[a]
                    else:
                        link[local[a]] = b
                elif b in local:
                    link[local[b]] = a
                else:
                    carried.append(pair)
            link = tuple(link)
            found = walks.get(link)
            if found is None:
                found = walks[link] = []
                for partner, w in moves:
                    pairs, loops = _walk(link, partner)
                    factor = factors.get((w, loops))
                    if factor is None:
                        factor = factors[w, loops] = _pack(_times_loops(w, loops), slot)
                    found.append((pairs, factor))
            for pairs, (f0, packed) in found:
                k = tuple(sorted(carried + pairs)) if pairs else tuple(carried)
                e = e0 + f0
                v = value if packed == 1 else value * packed
                acc = new_result.get(k)
                if acc is not None:
                    a0, u = acc
                    shift = e - a0
                    if shift % 4:
                        raise SkeinError(f"key {k} mixes exponents {a0} and {e} mod 4")
                    if shift >= 0:
                        e, v = a0, u + (v << slot * shift // 4)
                    else:
                        v += u << slot * -shift // 4
                new_result[k] = e, v
        result = {k: w for k, w in new_result.items() if w[1]}

    if result.keys() - {()}:
        raise SkeinError("open arcs survived the sweep")
    return _unpack(*result.get((), (0, 0)), slot)


def _integral(c) -> int:
    """A box coefficient as an int: packed weights hold integers only."""
    if getattr(c, "denominator", 1) != 1:
        raise SkeinError(f"box weight coefficient {c} is not an integer")
    return int(c)


def _pack(terms, slot: int) -> tuple:
    """(exponent, int) terms of one residue mod 4 as (e0, V)."""
    e0 = min((e for e, _ in terms), default=0)
    value = 0
    for e, c in terms:
        if (e - e0) % 4:
            raise SkeinError(f"box weight mixes exponents {e0} and {e} mod 4")
        value += _integral(c) << slot * (e - e0) // 4
    return e0, value


def _unpack(e0: int, value: int, slot: int) -> dict:
    """{exponent: coefficient} of (e0, V), read as balanced base-2^slot digits."""
    out: dict = {}
    half, mask = 1 << (slot - 1), (1 << slot) - 1
    while value:
        c = value & mask
        if c >= half:
            c -= 1 << slot
        if c:
            out[e0] = c
        value = (value - c) >> slot
        e0 += 4
    return out


def _times_loops(weight: tuple, loops: int) -> list:
    """weight * (-A^2 - A^-2)^loops as (exponent, coefficient) terms."""
    out: dict = {}
    for j in range(loops + 1):
        binom, shift = (-1) ** loops * comb(loops, j), 2 * loops - 4 * j
        for e, c in weight:
            out[e + shift] = out.get(e + shift, 0) + binom * c
    return list(out.items())


def _box_legs(diag: PlanarDiagram) -> list:
    """Int arc ids at the legs of each box: the (nw, ne, sw, se) corners
    of every crossing, then one box per site.

    The q-th cut arc of an arc site splits into an in-half, from
    ``site.in_slots[q]`` to leg q of the site's box, and an out-half, from
    ``site.out_slots[q]`` to leg 2w-1-q: the point order of a TL diagram.
    Circle q of a loop site is one arc from leg q to leg 2w-1-q.
    """
    label: dict = {}
    legs = [[label.setdefault(c[k], len(label)) for k in (NW, NE, SW, SE)]
            for c in diag.crossings]
    fresh = len(label)
    for site in diag.sites:
        w = site.width
        box = [0] * (2 * w)
        for q in range(w):
            if site.kind == "loop":
                box[q] = box[2 * w - 1 - q] = fresh
                fresh += 1
            else:
                for (ci, corner), k in ((site.in_slots[q], q), (site.out_slots[q], 2 * w - 1 - q)):
                    legs[ci][corner] = box[k] = fresh
                    fresh += 1
        legs.append(box)
    return legs


def bracket_tangle_sweep(diag: PlanarDiagram) -> LaurentPoly:
    """Bracket by one frontier sweep over the crossing and projector boxes.

    With projector sites this is the colored-bracket numerator over the
    product of the projector denominators.  The free loops and the
    sweep order's width are checked against their caps before any
    projector is built.
    """
    free = diag.free_loops - sum(s.width for s in diag.sites if s.kind == "loop")
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
    return LaurentPoly(dict(_times_loops(tuple(num.items()), free)))


# brackets keyed by diagram structure and projector sites
_sweep_memo: dict = {}


def bracket(diag: PlanarDiagram) -> LaurentPoly:
    """Memoized bracket of a (validated) diagram."""
    key = (canonical_form(diag),
           tuple((s.kind, s.width, s.in_slots, s.out_slots) for s in diag.sites))
    hit = _sweep_memo.get(key)
    if hit is None:
        hit = _sweep_memo[key] = bracket_tangle_sweep(diag)
    return hit


def colored_bracket(link, colors, point: EvalPoint | None = None):
    """Bracket of a colored link: RatFunc, or CycloNum at ``point``.

    ``colors`` gives one natural number per component of the
    ``FramedLink``.  Color n puts n parallel copies through the n-strand
    projector; color 0 deletes the component (so the round unknot
    colored 0 gives 1, and colored n gives (-1)^n [n+1]).
    """
    colors = tuple(colors)
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
    cabled = cable(link, list(colors))
    widths = tuple(sorted(site.width for site in cabled.sites))
    num = bracket(cabled)
    if point is None:
        return RatFunc(num, _projector_den(widths))
    return evaluate_at(num, point) * _projector_den_inverse(widths, point)


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
