"""Kauffman bracket evaluation.

The bracket of a diagram is the state sum over the two smoothings of
each crossing, with a crossing contributing A or A^-1 and every closed
circle a factor of -A^2 - A^-2; the empty diagram evaluates to 1.

Two evaluators are provided.  ``bracket_state_sum`` enumerates all 2^n
states and is the reference implementation, capped at 20 crossings.
``bracket_tangle_sweep`` processes crossings one at a time, carrying a weight
for every way the processed part can connect the dangling arc ends; the
states collapse to perfect matchings of the open ends, so its cost is
governed by the frontier width rather than the crossing count.  A plain
diagram's bracket lies in Z[A, A^-1], so arcs are relabelled to ints, a
state is keyed by its sorted (min, max) arc pairs and weighted by an
{exponent: int} dict, and the result becomes a LaurentPoly once, at the
end.  The update is local to the crossing: each corner leads on to
another corner (an arc with both ends there, or two open arcs the state
joins) or ends at an open arc, and walking the corner pairs of each
smoothing gives the new pairs and the number of closed loops.

``colored_bracket`` evaluates a link whose components carry natural
number colors: color n means n parallel blackboard push-offs with the
n-strand projector inserted.  The projector is expanded into plain
diagrams, each spliced and swept, and the results are combined over the
projector denominators.
"""

from __future__ import annotations

from itertools import product

from .algebra import CycloNum, EvalPoint, LaurentPoly, RatFunc, evaluate_at, loop_weight
from .diagrams import (
    NE,
    NW,
    OVER_SLASH,
    SE,
    SW,
    ColoredLink,
    FramedLink,
    PlanarDiagram,
    cable,
    canonical_form,
    splice,
)
from .errors import (
    ArityError,
    ColorRangeError,
    DiagramTooLargeError,
    PoleError,
    SkeinError,
    SliceWidthError,
)
from .tl import jones_wenzl

# A-smoothing and B-smoothing corner pairings for each over flag.  With
# the "/" strand on top the A-smoothing joins the corners vertically
# (nw-sw, ne-se); with the "\" strand on top it joins them horizontally.
_SMOOTHINGS = {
    OVER_SLASH: (((NW, SW), (NE, SE)), ((NW, NE), (SW, SE))),
    1 - OVER_SLASH: (((NW, NE), (SW, SE)), ((NW, SW), (NE, SE))),
}

# A^shift * (-A^2 - A^-2)^loops as (exponent, int) terms; one smoothing of
# four corners closes at most two loops
_FACTORS = {
    (s, k): [(e, int(c)) for e, c in (LaurentPoly.monomial(s) * loop_weight()**k).items()]
    for s in (1, -1) for k in range(3)
}

STATE_SUM_MAX_CROSSINGS = 20
SWEEP_MAX_WIDTH = 24
JW_CAP = 8


def bracket_state_sum(diag: PlanarDiagram,
                      max_crossings: int = STATE_SUM_MAX_CROSSINGS) -> LaurentPoly:
    """Reference bracket by brute-force state enumeration."""
    n = len(diag.crossings)
    if n > max_crossings:
        raise DiagramTooLargeError(
            f"{n} crossings exceeds the state-sum cap of {max_crossings}"
        )
    delta = loop_weight()
    dpow = [LaurentPoly.one()]
    for _ in range(2 * n + diag.free_loops + 1):
        dpow.append(dpow[-1] * delta)
    if n == 0:
        return dpow[diag.free_loops]

    # arc mate edges on slot ids (4*ci + corner)
    ends: dict = {}
    for ci, c in enumerate(diag.crossings):
        for corner in (NW, NE, SW, SE):
            ends.setdefault(c[corner], []).append(4 * ci + corner)
    mates = [tuple(v) for v in ends.values()]
    smooth = [_SMOOTHINGS[c.over] for c in diag.crossings]

    total = LaurentPoly.zero()
    for state in product((0, 1), repeat=n):
        parent = list(range(4 * n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        for a, b in mates:
            union(a, b)
        for ci, s in enumerate(state):
            for x, y in smooth[ci][s]:
                union(4 * ci + x, 4 * ci + y)
        loops = len({find(x) for x in range(4 * n)})
        exponent = sum(1 if s == 0 else -1 for s in state)
        total = total + LaurentPoly.monomial(exponent) * dpow[loops + diag.free_loops]
    return total


def _sweep_order(arcs, max_width: int):
    """Greedy crossing order keeping the number of open arcs small.

    ``arcs`` lists the four arc ids of each crossing; ties go to the
    lowest crossing index.
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


def bracket_tangle_sweep(diag: PlanarDiagram, max_width: int = SWEEP_MAX_WIDTH) -> LaurentPoly:
    """Bracket by a frontier sweep over the crossings.

    Equality with ``bracket_state_sum`` for every processing order is
    what the property suite pins down.
    """
    n = len(diag.crossings)
    delta = loop_weight()
    if n == 0:
        return delta**diag.free_loops
    label: dict = {}
    arcs = [[label.setdefault(c[k], len(label)) for k in (NW, NE, SW, SE)]
            for c in diag.crossings]
    order = _sweep_order(arcs, max_width)

    states: dict = {(): {0: 1}}
    frontier: set = set()
    for ci in order:
        corners = arcs[ci]
        # per corner: ~j when it leads on to corner j, an arc id when it ends
        static = list(corners)
        local: dict = {}
        for k, a in enumerate(corners):
            twin = [j for j in range(4) if j != k and corners[j] == a]
            if twin:
                static[k] = ~twin[0]
            elif a in frontier:
                local[a] = k
        frontier ^= {a for a in corners if corners.count(a) == 1}
        # each smoothing as (A-exponent, corner -> the corner it joins)
        moves = [(shift, {**dict(s), **{y: x for x, y in s}}) for shift, s
                 in zip((1, -1), _SMOOTHINGS[diag.crossings[ci].over])]
        walks: dict = {}  # states that meet the crossing alike share a walk
        new_states: dict = {}
        for key, weight in states.items():
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
                found = walks[link] = [_walk(link, shift, p) for shift, p in moves]
            for pairs, factor in found:
                k = tuple(sorted(carried + pairs)) if pairs else tuple(carried)
                acc = new_states.setdefault(k, {})
                for f, d in factor:
                    for e, c in weight.items():
                        acc[e + f] = acc.get(e + f, 0) + c * d
        states = {k: w for k, w in new_states.items() if any(w.values())}

    if states.keys() - {()}:
        raise SkeinError("open arcs survived the sweep")
    return LaurentPoly(states.get((), {})) * delta**diag.free_loops


def _walk(link, shift, partner):
    """Join the corners by one smoothing: (new arc pairs, A^shift * delta^loops)."""
    seen: set = set()
    pairs, loops = [], 0
    for start in sorted(range(4), key=lambda k: link[k] < 0):
        if start in seen:
            continue
        cur = start
        while True:
            seen.add(cur)
            cur = partner[cur]
            seen.add(cur)
            if link[cur] >= 0 or ~link[cur] == start:
                break
            cur = ~link[cur]
        if link[cur] >= 0:
            a, b = link[start], link[cur]
            pairs.append((a, b) if a < b else (b, a))
        else:
            loops += 1
    return pairs, _FACTORS[shift, loops]


_sweep_memo: dict = {}


def bracket(diag: PlanarDiagram, max_width: int = SWEEP_MAX_WIDTH) -> LaurentPoly:
    """Memoized bracket of a (validated) diagram."""
    key = (canonical_form(diag), max_width)
    hit = _sweep_memo.get(key)
    if hit is None:
        hit = _sweep_memo[key] = bracket_tangle_sweep(diag, max_width)
    return hit


def _site_tokens(tl_diagram):
    """TL chart points -> splice tokens ("in", q) / ("out", q)."""
    n = tl_diagram.n
    out = []
    for a, b in tl_diagram.pairs:
        ta = ("in", a) if a < n else ("out", 2 * n - 1 - a)
        tb = ("in", b) if b < n else ("out", 2 * n - 1 - b)
        out.append((ta, tb))
    return out


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
    sites = cabled.sites
    projectors = [jones_wenzl(s.width) for s in sites]

    den = LaurentPoly.one()
    for p in projectors:
        den = den * p.den

    total_num = LaurentPoly.zero()
    term_lists = [list(p.terms.items()) for p in projectors]
    for combo in product(*term_lists):
        num = LaurentPoly.one()
        for _, coeff in combo:
            num = num * coeff
        assignments = [
            (site, _site_tokens(tl_diag))
            for site, (tl_diag, _) in zip(sites, combo)
        ]
        plain = splice(cabled, assignments)
        total_num = total_num + num * bracket(plain, max_width)

    if point is None:
        return RatFunc(total_num, den)
    num_val = evaluate_at(total_num, point)
    den_val = evaluate_at(den, point)
    if den_val.is_zero():
        raise PoleError(f"projector denominator vanishes at d={point.d}")
    return num_val * den_val.inverse()
