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

Each surviving component gets one site.  One that reaches a grid corner
gets an arc site, cut at the first grid corner it reaches in (crossing,
nw, ne, sw, se) order; arc sites come in the order of their cuts.  Loop
sites follow, in component order, for the surviving components that
reach no grid corner.  A site's slots follow the point order of a TL
diagram, so ``_box_legs`` (the sweep's boxes) and ``splice`` read a
projector term's matching straight off it.  ``_arc_numbers`` is the one
integer numbering of the arcs, by first occurrence.

The colored bracket of a link depends only on its sublink on the
nonzero colors, ``cable`` at width 1 there and 0 elsewhere, and
``FramedLink.orbit`` keys that sublink.  From each of the 4n starts of a
connected piece, a crossing turned by r quarter turns, a walk numbers the
crossings as it reaches them, turns each so that the corner it was
reached by comes first in the counterclockwise order ne, nw, sw, se, and
emits its ``over ^ (r & 1)`` (a quarter turn takes the "/" diagonal to
the "\" one), then the number and turned corner of each corner's arc
mate.  Pieces with one least code map onto each other by an
orientation-preserving map of the sphere that keeps over-strands; a
reflection is not one.  The key is the sorted pairs (least code, least
color tuple along the component orders of the starts that give it), then
the sorted colors of the crossing-free components: the bracket is
invariant under such maps, split pieces multiply, and a projector may sit
anywhere on its component.  The least-code starts of one piece are its
automorphisms, which take the first start's component order to each
other's.  The coloring ``orbit`` gives to cable is the least image of the
colors under them when the sublink has one piece, else the colors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .errors import ArcCountError, NotPlanarError, SchemaError, SkeinError

# corner indices
NW, NE, SW, SE = 0, 1, 2, 3
CORNER_NAMES = ("nw", "ne", "sw", "se")

OVER_SLASH = 0  # the (sw, ne) strand is on top
OVER_BACK = 1  # the (nw, se) strand is on top

# strand continuation through a crossing
PARTNER = {NW: SE, SE: NW, SW: NE, NE: SW}

# quarter-turn counterclockwise on exit directions (named by exit corner)
_CCW_TURN = {NE: NW, NW: SW, SW: SE, SE: NE}

# counterclockwise rotation order of the corner slots around a crossing
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

    For an ``arc`` site, ``slots[q]`` (q < w) is copy q's slot at the
    cut corner and ``slots[2w-1-q]`` the other end of that copy's arc:
    TL point order.  A ``loop`` site marks w crossing-free circles and
    has no slots.
    """

    kind: str  # "arc" | "loop"
    width: int
    slots: tuple = ()


@dataclass(frozen=True)
class PlanarDiagram:
    crossings: tuple[Crossing, ...]
    free_loops: int = 0
    sites: tuple[Site, ...] = field(default=(), compare=False)

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)


def diagram(crossings, free_loops: int = 0) -> PlanarDiagram:
    """Build a PlanarDiagram from (nw, ne, sw, se, over) tuples."""
    return PlanarDiagram(tuple(Crossing(*c) for c in crossings), free_loops)


def _find(parent: dict, x):
    """Union-find root of x; a label absent from ``parent`` is a root."""
    while parent.get(x, x) != x:
        parent[x] = parent.get(parent[x], parent[x])
        x = parent[x]
    return x


def _arc_slots(diag: PlanarDiagram) -> dict:
    slots: dict = {}
    for ci, c in enumerate(diag.crossings):
        for corner in (NW, NE, SW, SE):
            slots.setdefault(c[corner], []).append((ci, corner))
    return slots


def _trace_components(diag: PlanarDiagram, slots: dict):
    """Walk every strand once.

    Returns (components, passages) where passages[(ci, diag_flag)] =
    (component index, exit corner) for diag_flag 0 = "/" and 1 = "\\".
    """
    comps: list[tuple] = []
    passages: dict = {}
    visited: set = set()  # directed darts (arc, toward_end_index)
    for c in diag.crossings:
        for corner in (NW, NE, SW, SE):
            arc = c[corner]
            if (arc, 0) in visited or (arc, 1) in visited:
                continue
            comp_index = len(comps)
            arcs_in_order = []
            dart = (arc, 0)
            while dart not in visited:
                visited.add(dart)
                cur_arc, end_index = dart
                arcs_in_order.append(cur_arc)
                ci, corner_in = slots[cur_arc][end_index]
                exit_corner = PARTNER[corner_in]
                diag_flag = 0 if corner_in in (SW, NE) else 1
                passages[(ci, diag_flag)] = (comp_index, exit_corner)
                nxt = diag.crossings[ci][exit_corner]
                occ = slots[nxt]
                # continue along nxt away from the slot we just exited
                if occ[0] == (ci, exit_corner):
                    dart = (nxt, 1)
                else:
                    dart = (nxt, 0)
            comps.append(tuple(arcs_in_order))
    return comps, passages


def _check_planar(diag: PlanarDiagram, slots: dict):
    n = len(diag.crossings)
    if n == 0:
        return
    # connected components of the underlying 4-valent graph
    parent: dict = {}
    for occ in slots.values():
        a, b = _find(parent, occ[0][0]), _find(parent, occ[1][0])
        if a != b:
            parent[a] = b
    graph_comps = len({_find(parent, i) for i in range(n)})

    # faces: orbits of (rotation after arc-mate) on darts = slots
    def arc_mate(slot):
        a, b = slots[diag.crossings[slot[0]][slot[1]]]
        return b if slot == a else a

    faces = 0
    seen = set()
    for ci in range(n):
        for corner in (NW, NE, SW, SE):
            start = (ci, corner)
            if start in seen:
                continue
            faces += 1
            cur = start
            while True:
                seen.add(cur)
                mate = arc_mate(cur)
                cur = (mate[0], _ROTATION_NEXT[mate[1]])
                if cur == start:
                    break
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
        slots = _arc_slots(diag)
        for arc, occ in slots.items():
            if len(occ) != 2:
                raise ArcCountError(f"arc {arc!r} occurs {len(occ)} time(s), expected 2")
        comps, passages = _trace_components(diag, slots)
        _check_planar(diag, slots)
        self.diagram = diag
        self.components = tuple(comps) + ((),) * diag.free_loops
        self._slots = slots
        self._sublinks: dict = {}  # support -> (pieces, loose) of ``_sublink``
        self._comp_of_arc = {a: i for i, comp in enumerate(comps) for a in comp}
        self._crossing_data = []
        for ci, c in enumerate(diag.crossings):
            comp_slash, dir_slash = passages[(ci, 0)]
            comp_back, dir_back = passages[(ci, 1)]
            over_dir, under_dir = (
                (dir_slash, dir_back) if c.over == OVER_SLASH else (dir_back, dir_slash)
            )
            sign = 1 if _CCW_TURN[over_dir] == under_dir else -1
            self._crossing_data.append((comp_slash, comp_back, sign))

    @property
    def n_components(self) -> int:
        return len(self.components)

    def component_of(self, arc) -> int:
        return self._comp_of_arc[arc]

    def arc_ends(self, arc):
        return self._slots[arc]

    def crossing_components(self, ci: int):
        """(component of the "/" strand, component of the "\\" strand)."""
        comp_slash, comp_back, _ = self._crossing_data[ci]
        return comp_slash, comp_back

    def orbit(self, colors: tuple) -> tuple:
        """(key, coloring to cable) of ``colors``: one key for all colorings,
        of any link, whose sublinks on the nonzero colors are one diagram
        up to an orientation-preserving map of the sphere (see the module
        docstring).  The sublink is cached per support."""
        support = tuple(k for k, c in enumerate(colors) if c)
        found = self._sublinks.get(support)
        if found is None:
            found = self._sublinks[support] = _sublink(self, support)
        pieces, loose = found
        key = (tuple(sorted((code, min(tuple(colors[k] for k in order) for order in orders))
                            for code, orders in pieces)),
               tuple(sorted(colors[k] for k in loose)))
        orders = pieces[0][1] if len(pieces) == 1 else ((),)
        perms = (dict(zip(orders[0], order)) for order in orders)  # first[i] -> order[i]
        return key, min(tuple(colors[p.get(j, j)] for j in range(len(colors))) for p in perms)


def linking_and_signature(link: FramedLink):
    """The linking matrix (blackboard framing on the diagonal) and its
    signature, both exact.

    Orientations are chosen per component by the traversal; reversing a
    component conjugates the matrix by a diagonal sign matrix, which
    leaves the signature unchanged.
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
    return tuple(tuple(row) for row in mat), _signature(mat)


def _signature(mat) -> int:
    """Signature of a symmetric integer matrix by rational congruence."""
    m = [[Fraction(x) for x in row] for row in mat]
    active = list(range(len(m)))
    sig = 0
    while active:
        pivot = next((i for i in active if m[i][i] != 0), None)
        if pivot is None:
            ij = next(
                ((i, j) for i in active for j in active if i != j and m[i][j] != 0),
                None,
            )
            if ij is None:
                break  # remaining block is zero
            i, j = ij
            for k in active:
                m[i][k] += m[j][k]
            for k in active:
                m[k][i] += m[k][j]
            pivot = i
        p = m[pivot][pivot]
        sig += 1 if p > 0 else -1
        for k in active:
            if k == pivot:
                continue
            f = m[k][pivot] / p
            if f:
                for l in active:
                    m[k][l] -= f * m[pivot][l]
                for l in active:
                    m[l][k] -= f * m[l][pivot]
        active.remove(pivot)
    return sig


# -- the key of a colored sublink ---------------------------------------------


def _sublink(link: FramedLink, support: tuple) -> tuple:
    """(pieces, loose) of the sublink on ``support``: for each connected
    piece of its crossings, the least code and the component orders of
    the starts that give it; then the crossing-free components."""
    keep = set(support)
    sub = cable(link, [int(k in keep) for k in range(link.n_components)])
    # sublink crossing g is the g-th crossing of the link with both strands kept
    strands = [cs for cs in map(link.crossing_components, range(link.diagram.n_crossings))
               if keep.issuperset(cs)]
    slots = _arc_slots(sub)

    def mate(ci, corner):
        a, b = slots[sub.crossings[ci][corner]]
        return b if a == (ci, corner) else a

    pieces, seen = [], set()
    for first in range(sub.n_crossings):
        if first in seen:
            continue
        piece = _walk_code(sub.crossings, mate, strands, first, 0)[2]
        seen.update(piece)
        walks = [_walk_code(sub.crossings, mate, strands, ci, turn) for ci in piece for turn in range(4)]
        least = min(code for code, _, _ in walks)
        pieces.append((least, tuple(order for code, order, _ in walks if code == least)))
    touched = {k for cs in strands for k in cs}
    return tuple(pieces), tuple(k for k in support if k not in touched)


def _walk_code(crossings, mate, strands, start: int, turn: int) -> tuple:
    """(code, component order, crossing order) of the walk from ``start``
    turned by ``turn``, as the module docstring says."""
    number, turns, order, code, comps = {start: 0}, [turn], [start], [], []
    for i, ci in enumerate(order):  # the walk appends as it goes
        r = turns[i]
        code.append(crossings[ci].over ^ (r & 1))
        for place in range(4):
            corner = _CCW_ORDER[(place + r) % 4]
            k = strands[ci][corner in (NW, SE)]
            if k not in comps:
                comps.append(k)
            cj, m = mate(ci, corner)
            if cj not in number:
                number[cj] = len(order)
                order.append(cj)
                turns.append(_CCW_PLACE[m])
            code += (number[cj], (_CCW_PLACE[m] - turns[number[cj]]) % 4)
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

    ``link`` holds every component; ``surgery_components`` indexes the
    ones to be surgered (weighted by the full color set downstream);
    ``extra_colors`` maps each remaining component to its fixed color.
    """

    link: FramedLink
    surgery_components: tuple[int, ...]
    extra_colors: dict
    name: str = ""

    def __post_init__(self):
        n = self.link.n_components
        surg = set(self.surgery_components)
        extra = set(self.extra_colors)
        if surg & extra:
            raise ValueError("surgery and extra components overlap")
        if (surg | extra) != set(range(n)):
            raise ValueError("every component must be surgery or extra")


def attach_meridian(link: FramedLink, component: int, color: int,
                    name: str = "") -> SurgeryPresentation:
    """Encircle one strand of ``component`` with a 0-framed colored circle.

    The circle clasps the component once (linking number +-1, self
    writhe 0), adding two crossings to the diagram.  The original
    components become the surgery components of the result.
    """
    if not 0 <= component < link.n_components:
        raise ValueError(f"no component {component}")
    diag = link.diagram
    mt, mb = ("mer", "t"), ("mer", "b")
    comp = link.components[component]
    if comp:
        alpha = comp[0]
        a2, a3 = ("mer", "mid"), ("mer", "tail")
        (c2, s2) = link.arc_ends(alpha)[1]
        crossings = list(diag.crossings)
        c = crossings[c2]
        fields = list(c[:4])
        fields[s2] = a3
        crossings[c2] = Crossing(*fields, c.over)
        crossings.append(Crossing(nw=mt, ne=a2, sw=alpha, se=mb, over=OVER_BACK))
        crossings.append(Crossing(nw=mt, ne=a3, sw=a2, se=mb, over=OVER_SLASH))
        new_diag = PlanarDiagram(tuple(crossings), diag.free_loops)
        marker = alpha
    else:
        s1, s2 = ("mer", "s1"), ("mer", "s2")
        crossings = list(diag.crossings) + [
            Crossing(nw=mt, ne=s2, sw=s1, se=mb, over=OVER_BACK),
            Crossing(nw=mt, ne=s1, sw=s2, se=mb, over=OVER_SLASH),
        ]
        new_diag = PlanarDiagram(tuple(crossings), diag.free_loops - 1)
        marker = s1
    new_link = FramedLink(new_diag)
    mer_comp = new_link.component_of(mt)
    if new_link.component_of(marker) == mer_comp:
        raise SkeinError("the meridian merged with the component it encircles")
    surgery = tuple(i for i in range(new_link.n_components) if i != mer_comp)
    return SurgeryPresentation(new_link, surgery, {mer_comp: color}, name=name)


# -- cabling -----------------------------------------------------------------


def cable(link: FramedLink, widths) -> PlanarDiagram:
    """Replace each component by parallel blackboard push-offs.

    ``widths[k]`` is the number of copies of component k; width 0
    deletes the component.  The result carries one marked Site per
    surviving component, the transversal cut where its projector sits.
    Validity (in particular planarity) is preserved.  The grid numbering,
    the pass-through at an empty grid and the site rule are those of the
    module docstring.
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
    slots = _arc_slots(PlanarDiagram(crossings))
    sites = []
    cut: set = set()  # components with an arc site
    for ci, c in enumerate(diag.crossings):
        if not grids[ci][1] * grids[ci][2]:
            continue
        for corner in (NW, NE, SW, SE):
            k = link.component_of(c[corner])
            if k in cut:
                continue
            cut.add(k)
            ins = tuple(end(ci, corner, q) for q in range(widths[k]))
            outs = tuple(next(s for s in slots[crossings[g][x]] if s != (g, x)) for g, x in ins)
            sites.append(Site(kind="arc", width=widths[k], slots=ins + outs[::-1]))
    loops = [w for k, w in enumerate(widths) if w and k not in cut]
    sites += [Site(kind="loop", width=w) for w in loops]
    return PlanarDiagram(crossings, sum(loops), tuple(sites))


# -- boxes and splices at the sites ---------------------------------------------


def _box_legs(diag: PlanarDiagram) -> list:
    """Int arc ids at the legs of each box: the (nw, ne, sw, se) corners
    of every crossing, then one box of 2w legs per site.

    Leg p of an arc site's box is a fresh arc that ends at ``slots[p]``,
    so each cut arc splits into two halves.  Circle q of a loop site is
    one fresh arc from leg q to leg 2w-1-q.
    """
    names = _arc_numbers(diag)
    legs = [[names[a] for a in c[:4]] for c in diag.crossings]
    fresh = len(names)
    for site in diag.sites:
        w = site.width
        if site.kind == "loop":
            legs.append([fresh + min(p, 2 * w - 1 - p) for p in range(2 * w)])
            fresh += w
        else:
            legs.append(list(range(fresh, fresh + 2 * w)))
            for p, (ci, corner) in enumerate(site.slots):
                legs[ci][corner] = fresh + p
            fresh += 2 * w
    return legs


def splice(diag: PlanarDiagram, assignments) -> PlanarDiagram:
    """Replace each cut of ``assignments`` by a crossingless matching.

    ``assignments`` lists (site, pairs), ``pairs`` a TL matching of the
    site's 2w points (``TLDiagram.pairs``); the identity restores the
    uncut diagram.  At an arc site each chord joins its two slots by one
    new arc; at a loop site the chords and the circles q -- 2w-1-q close
    into free loops.  ``colored_bracket`` sweeps the projectors as boxes
    instead; splicing every projector term is its slow reference.
    """
    rows = [list(c[:4]) for c in diag.crossings]
    free = diag.free_loops
    for i, (site, pairs) in enumerate(assignments):
        if site.kind == "arc":
            for j, chord in enumerate(pairs):
                for p in chord:
                    ci, corner = site.slots[p]
                    rows[ci][corner] = ("spliced", i, j)
            continue
        w = site.width
        parent: dict = {}
        for a, b in [*pairs, *((q, 2 * w - 1 - q) for q in range(w))]:
            parent[_find(parent, a)] = _find(parent, b)
        free += len({_find(parent, p) for p in range(2 * w)}) - w
    out = tuple(Crossing(*row, c.over) for row, c in zip(rows, diag.crossings))
    return PlanarDiagram(out, free)


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
    component-index strings to non-negative ints.
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
