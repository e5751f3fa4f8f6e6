r"""Planar link diagrams as combinatorial data.

A diagram is a list of crossings plus a count of crossing-free circles
("free loops").  Each crossing names the four arc ends at its corners:

        nw   ne
          \ /
           X
          / \
        sw   se

The two strands through a crossing are the diagonals: the "/" strand
occupies the sw and ne corners, the "\" strand the nw and se corners.
``over`` records which diagonal passes over: OVER_SLASH (0) or
OVER_BACK (1).  Every arc label occurs exactly twice among the corner
slots; free loops carry no labels and are only counted.

Conventions fixed here and relied on everywhere else:

* Rotation at a crossing (counterclockwise): ne, nw, sw, se.  Planarity
  is the Euler check V - E + F = 2C on the faces traced from this
  rotation system.
* Crossing sign: orient both strands; the sign is +1 when the under
  direction is the over direction rotated a quarter turn
  counterclockwise.  With the smoothing conventions in the bracket
  module this makes a +1 kink contribute -A^3.
* Framing is the blackboard framing.  Diagonal entries of the linking
  matrix are per-component self-writhes.
* One strand walk, entering each arc not yet walked at its first end in
  first-occurrence order over (crossing, nw, ne, sw, se), fixes the
  components' order, arc order and orientation, so the crossing signs.

Cabling replaces a component of width w by w parallel copies.  A
crossing whose "/" strand has width u and "\" strand width v becomes a
u x v grid of crossings (i, j), numbered offset + i*v + j, where the
offset counts the grid crossings of the crossings before it.  Copy p at
a corner sits at grid crossing (0, p) for nw, (u-1-p, 0) for ne,
(p, v-1) for sw and (u-1, v-1-p) for se, so sw copy p runs along row p
to ne copy u-1-p, and nw copy p along column p to se copy v-1-p.  Copy q
at one end of an arc is copy w-1-q at its other end.  When u or v is 0
the grid is empty and the surviving strand's copies pass straight
through it by the same joins, so width 0 deletes a component.  The arcs
of the result are the union-find classes of the copy ends.

Each surviving component that reaches a grid corner gets one site, cut
at the first grid corner it reaches in (crossing, nw, ne, sw, se) order;
sites come in the order of their cuts.  A surviving component that
reaches no grid corner becomes w plain free loops and gets no site:
``colored_bracket`` never cables one, it multiplies in its projector's
closure instead.  A site's slots follow the point order of a TL diagram,
so ``_box_legs`` (the sweep's boxes) and ``splice`` read a projector
term's matching straight off it.
``_arc_numbers`` is the one integer numbering of the arcs, by first
occurrence.

The colored bracket of a link depends only on its sublink on the
nonzero colors, ``cable`` at width 1 there and 0 elsewhere, and
``FramedLink.orbit`` keys that sublink.  From each of the 8n starts of a
connected piece, a crossing turned by r quarter turns and a sense, a
walk numbers the crossings as it reaches them, turns each so that the
corner it was reached by comes first in the counterclockwise order ne,
nw, sw, se, and emits its ``over ^ (r & 1)`` (a quarter turn takes the
"/" diagonal to the "\" one), then the number and turned corner of each
corner's arc mate.  A reflected walk reads the corners clockwise and
flips the over bit: it codes the diagram reflected in a line of the
plane with every crossing switched, which is its image under a half
turn of R^3 about that line.  Pieces with one least code map onto each
other by an orientation-preserving map of the sphere that keeps
over-strands, or by such a half turn; both keep the blackboard
framing.  A mirror, crossings switched alone, is neither.  The key is
the sorted pairs (least code, least color tuple along the component
orders of the starts that give it), then the sorted colors of the
crossing-free components: the bracket is invariant under such maps,
split pieces multiply, and a projector may sit anywhere on its
component.  The least-code starts of one piece are its
automorphisms, which take the first start's component order to each
other's.  The coloring ``orbit`` gives to cable is the least image of the
colors under them when the sublink has one piece, else the colors, with
every crossing-free component at 0: the key holds its color.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import (
    ArcCountError,
    DiagramTooLargeError,
    NotPlanarError,
    SchemaError,
    SkeinError,
)

# corner indices
NW, NE, SW, SE = 0, 1, 2, 3

OVER_SLASH = 0  # the (sw, ne) strand is on top
OVER_BACK = 1  # the (nw, se) strand is on top

# the JSON reader and both bracket paths refuse a diagram with more free loops
FREE_LOOP_CAP = 4000

# strand continuation through a crossing
PARTNER = {NW: SE, SE: NW, SW: NE, NE: SW}

# counterclockwise rotation order of the corner slots around a crossing,
# which is also a quarter turn counterclockwise of an exit direction
_ROTATION_NEXT = {NE: NW, NW: SW, SW: SE, SE: NE}
_CCW_ORDER = (NE, NW, SW, SE)
_CCW_PLACE = {corner: i for i, corner in enumerate(_CCW_ORDER)}


class Crossing(NamedTuple):
    nw: object
    ne: object
    sw: object
    se: object
    over: int


@dataclass(frozen=True)
class Site:
    """A marked transversal cut through one cabled component of width w.

    ``slots[q]`` (q < w) is copy q's slot at the cut corner and
    ``slots[2w-1-q]`` the other end of that copy's arc: TL point order.
    """

    slots: tuple

    @property
    def width(self) -> int:
        return len(self.slots) // 2


@dataclass(frozen=True)
class PlanarDiagram:
    crossings: tuple[Crossing, ...]
    free_loops: int = 0
    sites: tuple[Site, ...] = field(default=(), compare=False)

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)


def _find(parent: dict, x):
    """Union-find root of x; a label absent from ``parent`` is a root."""
    while parent.get(x, x) != x:
        parent[x] = parent.get(parent[x], parent[x])
        x = parent[x]
    return x


def _arc_slots(crossings) -> dict:
    slots: dict = {}
    for ci, c in enumerate(crossings):
        for corner in (NW, NE, SW, SE):
            slots.setdefault(c[corner], []).append((ci, corner))
    return slots


def _mate(crossings, slots: dict, ci: int, corner: int) -> tuple:
    """(crossing, corner) at the other end of the arc at ``corner`` of
    crossing ``ci``; ``slots`` is ``_arc_slots`` of ``crossings``."""
    a, b = slots[crossings[ci][corner]]
    return b if a == (ci, corner) else a


def _trace_components(crossings, slots: dict):
    """Walk every strand once, from each arc not yet walked in ``slots``
    order, entering it at its first end.

    Returns (components, passages) where passages[(ci, diag_flag)] =
    (component index, exit corner) for diag_flag 0 = "/" and 1 = "\\".
    """
    comps, passages, seen = [], {}, set()
    for arc, ends in slots.items():
        if arc in seen:
            continue
        arcs_in_order = []
        ci, corner = ends[0]
        while arc not in seen:
            seen.add(arc)
            arcs_in_order.append(arc)
            out = PARTNER[corner]
            passages[ci, corner in (NW, SE)] = (len(comps), out)
            ci, corner = _mate(crossings, slots, ci, out)
            arc = crossings[ci][corner]
        comps.append(tuple(arcs_in_order))
    return comps, passages


def _check_planar(diag: PlanarDiagram, slots: dict):
    n = len(diag.crossings)
    # connected components of the underlying 4-valent graph
    parent: dict = {}
    for occ in slots.values():
        a, b = _find(parent, occ[0][0]), _find(parent, occ[1][0])
        if a != b:
            parent[a] = b
    graph_comps = len({_find(parent, i) for i in range(n)})

    # faces: orbits of (rotation after arc-mate) on darts = slots
    faces = 0
    seen = set()
    for ci in range(n):
        for corner in (NW, NE, SW, SE):
            start = (ci, corner)
            if start in seen:
                continue
            faces += 1
            cur = start
            while cur not in seen:
                seen.add(cur)
                cj, m = _mate(diag.crossings, slots, *cur)
                cur = (cj, _ROTATION_NEXT[m])
    euler = n - len(slots) + faces
    if euler != 2 * graph_comps:
        raise NotPlanarError(
            f"Euler count V-E+F = {euler} for {graph_comps} component(s); "
            "the rotation system is not planar"
        )


class FramedLink:
    """A validated diagram together with its component structure.

    Components are indexed in traversal order (free loops last); the
    framing is the blackboard framing of the diagram.
    """

    def __init__(self, diag: PlanarDiagram):
        slots = _arc_slots(diag.crossings)
        for arc, occ in slots.items():
            if len(occ) != 2:
                raise ArcCountError(f"arc {arc!r} occurs {len(occ)} time(s), expected 2")
        comps, passages = _trace_components(diag.crossings, slots)
        _check_planar(diag, slots)
        self.diagram = diag
        self.components = tuple(comps) + ((),) * diag.free_loops
        self._slots = slots
        self._comp_of_arc = {a: i for i, comp in enumerate(comps) for a in comp}
        self._crossing_data = []
        for ci, c in enumerate(diag.crossings):
            comp_slash, dir_slash = passages[(ci, 0)]
            comp_back, dir_back = passages[(ci, 1)]
            over_dir, under_dir = (
                (dir_slash, dir_back) if c.over == OVER_SLASH else (dir_back, dir_slash)
            )
            sign = 1 if _ROTATION_NEXT[over_dir] == under_dir else -1
            self._crossing_data.append((comp_slash, comp_back, sign))

    @property
    def n_components(self) -> int:
        return len(self.components)

    def component_of(self, arc) -> int:
        return self._comp_of_arc[arc]

    def crossing_components(self, ci: int):
        """(component of the "/" strand, component of the "\\" strand)."""
        comp_slash, comp_back, _ = self._crossing_data[ci]
        return comp_slash, comp_back

    def orbit(self, colors: tuple) -> tuple:
        """(key, coloring to cable) of ``colors``: one key for all colorings,
        of any link, whose sublinks on the nonzero colors are one diagram
        up to an orientation-preserving map of the sphere or a half turn
        of R^3 about a line in the plane (see the module docstring).  The
        key ends with the sorted colors of the sublink's crossing-free
        components, which the coloring to cable sets to 0.  The sublink
        data is cached per (diagram, support)."""
        support = tuple(k for k, c in enumerate(colors) if c)
        pieces, loose = _sublink(self.diagram, support)
        key = (tuple(sorted((code, min(tuple(colors[k] for k in order) for order in orders))
                            for code, orders in pieces)),
               tuple(sorted(colors[k] for k in loose)))
        colors = tuple(0 if k in loose else c for k, c in enumerate(colors))
        orders = pieces[0][1] if len(pieces) == 1 else ((),)
        perms = (dict(zip(orders[0], order)) for order in orders)  # first[i] -> order[i]
        return key, min(tuple(colors[p.get(j, j)] for j in range(len(colors))) for p in perms)


def linking_matrix(link: FramedLink) -> tuple:
    """The linking matrix, exact, with the blackboard framing on the
    diagonal.

    Orientations are chosen per component by the traversal; reversing a
    component conjugates the matrix by a diagonal sign matrix, which
    leaves its signature unchanged.
    """
    n = link.n_components
    mat = [[0] * n for _ in range(n)]
    for cs, cb, sign in link._crossing_data:
        if cs == cb:
            mat[cs][cs] += sign
        else:
            mat[cs][cb] += sign
            mat[cb][cs] += sign
    for i in range(n):
        for j in range(n):
            if i != j:
                if mat[i][j] % 2:
                    raise SkeinError("closed curves must cross an even number of times")
                mat[i][j] //= 2
    return tuple(tuple(row) for row in mat)


def _signature(mat) -> int:
    """Signature of a symmetric integer matrix M, by Descartes' rule of
    signs on p(x) = det(xI - M) = sum_k c_k x^(n-k).

    p has only real roots, so the rule is exact: the sign changes of the
    c_k count the positive eigenvalues, and those of (-1)^k c_k (p(-x)
    up to sign) the negative ones.  The c_k come from the
    Faddeev-LeVerrier recursion M_1 = I, c_k = -tr(M M_k) / k,
    M_(k+1) = M M_k + c_k I in ints: the c_k are integers, so k divides
    the trace exactly.
    """
    n = len(mat)
    coeffs, mk = [1], [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        prod = [[sum(a * b for a, b in zip(row, col)) for col in zip(*mk)] for row in mat]
        coeffs.append(-sum(prod[i][i] for i in range(n)) // k)
        mk = [[x + coeffs[k] * (i == j) for j, x in enumerate(row)] for i, row in enumerate(prod)]
    pos = [c > 0 for c in coeffs if c]
    neg = [(c > 0) != k % 2 for k, c in enumerate(coeffs) if c]
    return sum(map(bool.__ne__, pos, pos[1:])) - sum(map(bool.__ne__, neg, neg[1:]))


# -- the key of a colored sublink ---------------------------------------------


@lru_cache(maxsize=None)
def _sublink(diagram: PlanarDiagram, support: tuple) -> tuple:
    """(pieces, loose) of the sublink of ``diagram``'s link on ``support``:
    for each connected piece of its crossings, the least code and the
    component orders of the starts that give it; then the crossing-free
    components."""
    link = FramedLink(diagram)
    keep = set(support)
    sub = cable(link, [int(k in keep) for k in range(link.n_components)])
    # sublink crossing g is the g-th crossing of the link with both strands kept
    strands = [cs for cs in map(link.crossing_components, range(link.diagram.n_crossings))
               if keep.issuperset(cs)]
    slots = _arc_slots(sub.crossings)
    pieces, seen = [], set()
    for first in range(sub.n_crossings):
        if first in seen:
            continue
        piece = _walk_code(sub.crossings, slots, strands, first, 0, 1)[2]
        seen.update(piece)
        walks = [_walk_code(sub.crossings, slots, strands, ci, turn, sense)
                 for ci in piece for turn in range(4) for sense in (1, -1)]
        least = min(code for code, _, _ in walks)
        pieces.append((least, tuple(order for code, order, _ in walks if code == least)))
    touched = {k for cs in strands for k in cs}
    return tuple(pieces), tuple(k for k in support if k not in touched)


def _walk_code(crossings, slots, strands, start: int, turn: int, sense: int) -> tuple:
    """(code, component order, crossing order) of the walk from ``start``
    turned by ``turn``, counterclockwise (``sense`` 1) or clockwise with
    the over bit flipped (-1), as the module docstring says."""
    number, turns, order, code, comps = {start: 0}, [turn], [start], [], []
    for i, ci in enumerate(order):  # the walk appends as it goes
        r = turns[i]
        code.append(crossings[ci].over ^ (r & 1) ^ (sense < 0))
        for place in range(4):
            corner = _CCW_ORDER[(r + sense * place) % 4]
            k = strands[ci][corner in (NW, SE)]
            if k not in comps:
                comps.append(k)
            cj, m = _mate(crossings, slots, ci, corner)
            if cj not in number:
                number[cj] = len(order)
                order.append(cj)
                turns.append(_CCW_PLACE[m])
            code += (number[cj], sense * (_CCW_PLACE[m] - turns[number[cj]]) % 4)
    return tuple(code), tuple(comps), order


# -- arc numbers and the canonical form ----------------------------------------


def _arc_numbers(diag: PlanarDiagram) -> dict:
    """Each arc label -> an int, by first occurrence over the corners."""
    names: dict = {}
    for c in diag.crossings:
        for a in c[:4]:
            names.setdefault(a, len(names))
    return names


def canonical_form(diag: PlanarDiagram):
    """Structure key invariant under arc relabeling (crossing order kept)."""
    names = _arc_numbers(diag)
    rows = tuple(tuple(names[a] for a in c[:4]) + (c.over,) for c in diag.crossings)
    return rows, diag.free_loops


# -- fixtures ----------------------------------------------------------------


def braid_closure(word, strands: int) -> PlanarDiagram:
    """Close a braid word into a link diagram.

    ``word`` lists Artin generators: letter +i crosses the strands in
    positions i-1, i with the "/" strand over; -i puts the "\\" strand
    over.  Untouched strand positions close into free loops.
    """
    cur = [("b", p) for p in range(strands)]
    bottom = list(cur)
    crossings = []
    for t, letter in enumerate(word):
        i = abs(letter) - 1
        if not 0 <= i < strands - 1:
            raise ValueError(f"generator {letter} out of range for {strands} strands")
        up_l, up_r = ("x", t), ("y", t)
        over = OVER_SLASH if letter > 0 else OVER_BACK
        crossings.append(Crossing(nw=up_l, ne=up_r, sw=cur[i], se=cur[i + 1], over=over))
        cur[i], cur[i + 1] = up_l, up_r
    # plat the top back onto the bottom
    parent: dict = {}
    free = 0
    for p in range(strands):
        a, b = _find(parent, bottom[p]), _find(parent, cur[p])
        if a == b:
            free += 1  # strand never crossed anything
        else:
            parent[a] = b
    out = [
        Crossing(*(_find(parent, a) for a in c[:4]), c.over)
        for c in crossings
    ]
    return PlanarDiagram(tuple(out), free)


def borromean_fixture() -> FramedLink:
    """The standard 6-crossing alternating Borromean diagram.

    Three components, pairwise linking zero, each self-writhe zero.
    """
    return FramedLink(braid_closure([1, -2, 1, -2, 1, -2], 3))


def hopf_fixture() -> FramedLink:
    """The 2-crossing positive Hopf link diagram."""
    return FramedLink(braid_closure([1, 1], 2))


def unknot_fixture(kinks: int = 0) -> FramedLink:
    """An unknot diagram with |kinks| curls of the sign of ``kinks``.

    kinks = 0 gives the crossing-free round unknot; the blackboard
    framing of the result is ``kinks``.
    """
    if kinks == 0:
        return FramedLink(PlanarDiagram((), free_loops=1))
    over = OVER_BACK if kinks > 0 else OVER_SLASH
    k = abs(kinks)
    trunk = [("t", i) for i in range(k)]
    crossings = [
        Crossing(nw=("s", i), ne=("s", i), sw=trunk[i - 1], se=trunk[i], over=over)
        for i in range(k)
    ]
    return FramedLink(PlanarDiagram(tuple(crossings)))


@dataclass(frozen=True)
class SurgeryPresentation:
    """Surgery data plus a residual colored link in the same diagram.

    ``link`` holds every component; ``extra_colors``, a read-only copy of
    the mapping passed in, maps some of them to a fixed color.  The rest,
    ``surgery_components``, are the ones to be surgered (weighted by the
    full color set downstream).
    """

    link: FramedLink
    extra_colors: Mapping

    def __post_init__(self):
        if not set(self.extra_colors) <= set(range(self.link.n_components)):
            raise ValueError("a fixed color names no component of the link")
        object.__setattr__(self, "extra_colors", MappingProxyType(dict(self.extra_colors)))

    def __hash__(self):
        return hash((self.link, frozenset(self.extra_colors.items())))

    @property
    def surgery_components(self) -> tuple[int, ...]:
        """The components with no fixed color, in ascending order."""
        return tuple(k for k in range(self.link.n_components) if k not in self.extra_colors)


def attach_meridian(link: FramedLink, component: int, color: int) -> SurgeryPresentation:
    """Encircle one strand of ``component`` with a 0-framed colored circle.

    The circle clasps the component once (linking number +-1, self
    writhe 0), adding two crossings to the diagram.  The strand enters
    the clasp on the component's first arc and leaves it on a fresh arc
    that takes over that arc's second end; a crossing-free component is
    the case where both ends are that fresh arc, one free loop fewer.
    The original components become the surgery components of the result.
    """
    if not 0 <= component < link.n_components:
        raise ValueError(f"no component {component}")
    mt, mb, a2, a3 = ("mer", "t"), ("mer", "b"), ("mer", "mid"), ("mer", "tail")
    comp = link.components[component]
    crossings = list(link.diagram.crossings)
    alpha = comp[0] if comp else a3
    if comp:
        ci, corner = link._slots[alpha][1]
        crossings[ci] = crossings[ci]._replace(**{Crossing._fields[corner]: a3})
    crossings.append(Crossing(nw=mt, ne=a2, sw=alpha, se=mb, over=OVER_BACK))
    crossings.append(Crossing(nw=mt, ne=a3, sw=a2, se=mb, over=OVER_SLASH))
    new_link = FramedLink(PlanarDiagram(tuple(crossings), link.diagram.free_loops - (not comp)))
    mer_comp = new_link.component_of(mt)
    if new_link.component_of(alpha) == mer_comp:
        raise SkeinError("the meridian merged with the component it encircles")
    return SurgeryPresentation(new_link, {mer_comp: color})


# -- cabling -----------------------------------------------------------------


def cable(link: FramedLink, widths) -> PlanarDiagram:
    """Replace each component by parallel blackboard push-offs.

    ``widths[k]`` is the number of copies of component k; width 0
    deletes the component.  The result carries one marked Site, the
    transversal cut where its projector sits, per surviving component
    that reaches a grid corner; one that reaches none becomes w plain
    free loops.  Validity (in particular planarity) is preserved.  The
    grid numbering, the pass-through at an empty grid and the site rule
    are those of the module docstring.
    """
    if len(widths) != link.n_components:
        raise ValueError(f"{len(widths)} widths for {link.n_components} components")
    if any(w < 0 for w in widths):
        raise ValueError("widths must be >= 0")
    diag = link.diagram
    grids = []  # (offset, u, v) per crossing
    size = 0
    for ci in range(len(diag.crossings)):
        cs, cb = link.crossing_components(ci)
        grids.append((size, widths[cs], widths[cb]))
        size += widths[cs] * widths[cb]

    def end(ci, corner, p):
        """Copy p at a corner: its grid slot, or the copy end itself at an
        empty grid."""
        o, u, v = grids[ci]
        if not u * v:
            return ci, corner, p
        i, j = {NW: (0, p), NE: (u - 1 - p, 0), SW: (p, v - 1), SE: (u - 1, v - 1 - p)}[corner]
        return o + i * v + j, corner

    parent: dict = {}

    def join(x, y):
        parent[_find(parent, x)] = _find(parent, y)

    for ci, (o, u, v) in enumerate(grids):
        if u * v:
            for g in range(o, o + u * v):
                if (g - o) % v:
                    join((g, NE), (g - 1, SW))
                if g - o >= v:
                    join((g, NW), (g - v, SE))
        else:  # the surviving strand passes straight through
            for p in range(v):
                join((ci, NW, p), (ci, SE, v - 1 - p))
            for p in range(u):
                join((ci, SW, p), (ci, NE, u - 1 - p))
    for arc, ((c1, s1), (c2, s2)) in link._slots.items():
        w = widths[link.component_of(arc)]
        for q in range(w):
            join(end(c1, s1, q), end(c2, s2, w - 1 - q))

    crossings = tuple(
        Crossing(*(_find(parent, (g, k)) for k in (NW, NE, SW, SE)), c.over)
        for c, (o, u, v) in zip(diag.crossings, grids) for g in range(o, o + u * v)
    )
    slots = _arc_slots(crossings)
    sites = []
    cut: set = set()  # components with a site
    for ci, c in enumerate(diag.crossings):
        if not grids[ci][1] * grids[ci][2]:
            continue
        for corner in (NW, NE, SW, SE):
            k = link.component_of(c[corner])
            if k in cut:
                continue
            cut.add(k)
            ins = tuple(end(ci, corner, q) for q in range(widths[k]))
            outs = tuple(_mate(crossings, slots, g, x) for g, x in ins)
            sites.append(Site(ins + outs[::-1]))
    loops = sum(w for k, w in enumerate(widths) if k not in cut)
    return PlanarDiagram(crossings, loops, tuple(sites))


# -- boxes and splices at the sites ---------------------------------------------


def _box_legs(diag: PlanarDiagram) -> list:
    """Int arc ids at the legs of each box: the (nw, ne, sw, se) corners
    of every crossing, then one box of 2w legs per site.

    Leg p of a site's box is a fresh arc that ends at ``slots[p]``, so
    each cut arc splits into two halves.
    """
    names = _arc_numbers(diag)
    legs = [[names[a] for a in c[:4]] for c in diag.crossings]
    fresh = len(names)
    for site in diag.sites:
        legs.append(list(range(fresh, fresh + len(site.slots))))
        for p, (ci, corner) in enumerate(site.slots):
            legs[ci][corner] = fresh + p
        fresh += len(site.slots)
    return legs


def splice(diag: PlanarDiagram, assignments) -> PlanarDiagram:
    """Replace each cut of ``assignments`` by a crossingless matching.

    ``assignments`` lists (site, pairs), ``pairs`` a TL matching of the
    site's 2w points (``TLDiagram.pairs``); the identity restores the
    uncut diagram.  Each chord joins its two slots by one new arc.
    ``colored_bracket`` sweeps the projectors as boxes instead; splicing
    every projector term is its slow reference.
    """
    rows = [list(c[:4]) for c in diag.crossings]
    for i, (site, pairs) in enumerate(assignments):
        for j, chord in enumerate(pairs):
            for p in chord:
                ci, corner = site.slots[p]
                rows[ci][corner] = ("spliced", i, j)
    out = tuple(Crossing(*row, c.over) for row, c in zip(rows, diag.crossings))
    return PlanarDiagram(out, diag.free_loops)


# -- JSON serialization -------------------------------------------------------


def link_to_json(link: FramedLink, colors=None) -> str:
    """Serialize with integer arc labels and a stable key order."""
    diag = link.diagram
    names = _arc_numbers(diag)
    payload = {
        "crossings": [[names[a] for a in c[:4]] + [c.over] for c in diag.crossings],
        "free_loops": diag.free_loops,
        "components": [[names[a] for a in comp] for comp in link.components if comp],
    }
    if colors is not None:
        payload["colors"] = {str(i): int(c) for i, c in enumerate(colors)}
    return json.dumps(payload, indent=2)


def _is_count(x) -> bool:
    return type(x) is int and x >= 0


def link_from_json(text):
    """Inverse of link_to_json; returns (FramedLink, colors or None).

    ``text`` is a str or UTF-8 bytes.  Raises SchemaError unless it holds
    a JSON object whose ``crossings`` lists [nw, ne, sw, se, over] rows
    with int or str labels and over 0 or 1, whose ``free_loops`` (default
    0) is a non-negative int, and whose ``colors``, if present, maps
    component-index strings to non-negative ints; DiagramTooLargeError
    when ``free_loops`` is above ``FREE_LOOP_CAP``, before any loop is built.
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON or bad UTF-8, or nested too deep
        raise SchemaError(f"not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SchemaError("the top level must be an object")
    rows = data.get("crossings")
    if not isinstance(rows, list) or not all(
        isinstance(c, list) and len(c) == 5
        and all(type(a) in (int, str) for a in c[:4])
        and type(c[4]) is int and c[4] in (OVER_SLASH, OVER_BACK)
        for c in rows
    ):
        raise SchemaError("crossings must be a list of [nw, ne, sw, se, over] "
                          "with int or str labels and over 0 or 1")
    free = data.get("free_loops", 0)
    if not _is_count(free):
        raise SchemaError("free_loops must be a non-negative int")
    if free > FREE_LOOP_CAP:
        raise DiagramTooLargeError(f"{free} free loops exceeds the cap of {FREE_LOOP_CAP}")
    link = FramedLink(PlanarDiagram(tuple(Crossing(*c) for c in rows), free))
    if "colors" not in data:
        return link, None
    colors = data["colors"]
    keys = [str(i) for i in range(link.n_components)]
    if not isinstance(colors, dict) or not all(
        k in keys and _is_count(v) for k, v in colors.items()
    ):
        raise SchemaError("colors must map component indices to non-negative ints")
    return link, tuple(colors.get(k, 0) for k in keys)
