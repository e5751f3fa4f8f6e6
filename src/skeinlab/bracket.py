"""Kauffman bracket evaluation.

The bracket of a diagram is the state sum over the two smoothings of
each crossing, with a crossing contributing A or A^-1 and every closed
circle a factor of -A^2 - A^-2; the empty diagram evaluates to 1.
``bracket_state_sum`` is the reference, capped at 20 crossings: it
enumerates all 2^n states, counts each one's loops with a fresh
union-find over the arcs, histograms the states by (A-exponent, loops)
and builds the polynomial once.

The fast evaluator sweeps over boxes.  A box has legs (arc ids) and
local states, each a perfect matching of the legs with a weight: a
crossing is the 4-leg box A*(A-smoothing) + A^-1*(B-smoothing), and a
width-w Jones-Wenzl projector is the 2w-leg box whose states are its
terms, numerators over the projector's common denominator.  Taking the
boxes in a greedy order, the sweep carries an {exponent: int} weight
for every way the processed part can connect the dangling arc ends,
keyed by sorted (min, max) arc pairs, so its cost is governed by the
frontier width.  The update is local to the box: each leg leads on to
another leg (an arc with both ends there, or two open arcs the state
joins) or ends at an open arc, and the strand walk of ``tl`` over the leg
pairs of each local state gives the new pairs and the number of closed
loops.  Free loops multiply the result by the same binomial expansion
of delta^k that weights the closed loops.

``bracket_tangle_sweep`` sweeps the crossings of a plain diagram.
``colored_bracket`` evaluates a link whose components carry natural
number colors: color n means n parallel blackboard push-offs through the
n-strand projector.  The link is cabled once, each projector becomes one
box, and one sweep per coloring gives the numerator over the product of
the projector denominators; a projector on a crossing-free component
contributes its closure instead.
"""

from __future__ import annotations

from itertools import product
from math import comb

from .algebra import EvalPoint, LaurentPoly, RatFunc, evaluate_at, loop_weight
from .diagrams import NE, NW, OVER_SLASH, SE, SW, ColoredLink, PlanarDiagram, cable, canonical_form
from .errors import (
    ArityError,
    ColorRangeError,
    DiagramTooLargeError,
    PoleError,
    SkeinError,
    SliceWidthError,
)
from .tl import _walk, closure_count, jones_wenzl

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


# the states of a crossing box with legs (nw, ne, sw, se)
_CROSSING_STATES = {
    over: [(s, ((shift, 1),)) for shift, s in zip((1, -1), pairs)]
    for over, pairs in _SMOOTHINGS.items()
}


def bracket_state_sum(diag: PlanarDiagram,
                      max_crossings: int = STATE_SUM_MAX_CROSSINGS) -> LaurentPoly:
    """Reference bracket by brute-force state enumeration.

    Every state starts a fresh union-find over the arcs and applies the
    two arc joins of each crossing's smoothing; every arc has two ends,
    so the loops are the arcs minus the successful unions.  The states
    are counted by (A-exponent, loops) and the polynomial is built once.
    """
    n = len(diag.crossings)
    if n > max_crossings:
        raise DiagramTooLargeError(
            f"{n} crossings exceeds the state-sum cap of {max_crossings}"
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


def _sweep_order(arcs, max_width: int):
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
    if peak > max_width:
        raise SliceWidthError(
            f"sweep frontier reaches {peak} open arcs, above the cap of {max_width}"
        )
    return order


def _sweep(legs, states, max_width: int) -> dict:
    """Bracket numerator of a box diagram as {exponent: coefficient}.

    ``legs[b]`` lists the arc ids at the legs of box b, every arc
    occurring twice in all, and ``states[b]`` its local states as (leg
    pairs, weight as (exponent, int) terms).  Equality with
    ``bracket_state_sum`` for every processing order is what the property
    suite pins down.
    """
    factors: dict = {}  # (weight, loops) -> weight * delta^loops
    frontier: set = set()
    result: dict = {(): {0: 1}}
    for bi in _sweep_order(legs, max_width):
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
        for key, weight in result.items():
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
                        factor = factors[w, loops] = _times_loops(w, loops)
                    found.append((pairs, factor))
            for pairs, factor in found:
                k = tuple(sorted(carried + pairs)) if pairs else tuple(carried)
                acc = new_result.setdefault(k, {})
                for f, d in factor:
                    for e, c in weight.items():
                        acc[e + f] = acc.get(e + f, 0) + c * d
        result = {k: w for k, w in new_result.items() if any(w.values())}

    if result.keys() - {()}:
        raise SkeinError("open arcs survived the sweep")
    return result.get((), {})


def _times_loops(weight: tuple, loops: int) -> list:
    """weight * (-A^2 - A^-2)^loops as (exponent, coefficient) terms."""
    out: dict = {}
    for j in range(loops + 1):
        binom, shift = (-1) ** loops * comb(loops, j), 2 * loops - 4 * j
        for e, c in weight:
            out[e + shift] = out.get(e + shift, 0) + binom * c
    return list(out.items())


def _box_legs(diag: PlanarDiagram, sites=()) -> list:
    """Int arc ids at the legs of each box: the (nw, ne, sw, se) corners
    of every crossing, then one box per arc site.

    Each cut arc ``site.arcs[q]`` splits into an in-half, from
    ``site.in_slots[q]`` to leg q of the site's box, and an out-half, from
    ``site.out_slots[q]`` to leg 2w-1-q: the point order of a TL diagram.
    """
    label: dict = {}
    legs = [[label.setdefault(c[k], len(label)) for k in (NW, NE, SW, SE)]
            for c in diag.crossings]
    fresh = len(label)
    for site in sites:
        if site.kind != "arc":
            continue
        w = site.width
        box = [0] * (2 * w)
        for q in range(w):
            for (ci, corner), k in ((site.in_slots[q], q), (site.out_slots[q], 2 * w - 1 - q)):
                legs[ci][corner] = box[k] = fresh
                fresh += 1
        legs.append(box)
    return legs


def bracket_tangle_sweep(diag: PlanarDiagram, max_width: int = SWEEP_MAX_WIDTH) -> LaurentPoly:
    """Bracket by a frontier sweep over the crossing boxes."""
    states = [_CROSSING_STATES[c.over] for c in diag.crossings]
    num = _sweep(_box_legs(diag), states, max_width)
    return LaurentPoly(dict(_times_loops(tuple(num.items()), diag.free_loops)))


# plain brackets and colored-bracket numerators, keyed by diagram structure
_sweep_memo: dict = {}


def bracket(diag: PlanarDiagram, max_width: int = SWEEP_MAX_WIDTH) -> LaurentPoly:
    """Memoized bracket of a (validated) diagram."""
    key = (canonical_form(diag), max_width)
    hit = _sweep_memo.get(key)
    if hit is None:
        hit = _sweep_memo[key] = bracket_tangle_sweep(diag, max_width)
    return hit


def _colored_numerator(cabled: PlanarDiagram, max_width: int) -> LaurentPoly:
    """Numerator of the colored bracket over the product of the
    projector denominators, by one sweep of the box diagram."""
    delta = loop_weight()
    states = [_CROSSING_STATES[c.over] for c in cabled.crossings]
    num = LaurentPoly.one()
    free = cabled.free_loops
    for site in cabled.sites:
        terms = jones_wenzl(site.width).terms.items()
        if site.kind == "arc":
            states.append([(t.pairs, tuple(c.items())) for t, c in terms])
        else:
            free -= site.width
            closure = LaurentPoly.zero()
            for t, c in terms:
                closure = closure + c * delta**closure_count(t)
            num = num * closure
    swept = _sweep(_box_legs(cabled, cabled.sites), states, max_width)
    return LaurentPoly(dict(_times_loops(tuple(swept.items()), free))) * num


def colored_bracket(link, colors=None, point: EvalPoint | None = None,
                    jw_cap: int = JW_CAP, max_width: int = SWEEP_MAX_WIDTH):
    """Bracket of a colored link: RatFunc, or CycloNum at ``point``.

    Accepts a ``ColoredLink``, or a ``FramedLink`` plus a color per
    component.  Color n puts n parallel copies through the n-strand
    projector; color 0 deletes the component (so the round unknot
    colored 0 gives 1, and colored n gives (-1)^n [n+1]).
    """
    if isinstance(link, ColoredLink):
        if colors is not None:
            raise ArityError("colors given twice")
        link, colors = link.link, link.colors
    colors = tuple(colors)
    if len(colors) != link.n_components:
        raise ArityError(
            f"{len(colors)} colors for {link.n_components} components"
        )
    if any(c < 0 for c in colors):
        raise ColorRangeError(f"negative color in {colors}")
    if any(c > jw_cap for c in colors):
        raise DiagramTooLargeError(
            f"color {max(colors)} exceeds the projector cap {jw_cap}"
        )
    cabled = cable(link, list(colors))
    den = LaurentPoly.one()
    for site in cabled.sites:
        den = den * jones_wenzl(site.width).den
    key = (canonical_form(cabled),
           tuple((s.kind, s.width, s.in_slots, s.out_slots) for s in cabled.sites),
           max_width)
    num = _sweep_memo.get(key)
    if num is None:
        num = _sweep_memo[key] = _colored_numerator(cabled, max_width)

    if point is None:
        return RatFunc(num, den)
    num_val = evaluate_at(num, point)
    den_val = evaluate_at(den, point)
    if den_val.is_zero():
        raise PoleError(f"projector denominator vanishes at d={point.d}")
    return num_val * den_val.inverse()
