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


class Crossing(NamedTuple):
    nw: object
    ne: object
    sw: object
    se: object
    over: int


@dataclass(frozen=True)
class Site:
    """A marked transversal cut through one cabled component.

    ``arcs[q]`` is the q-th parallel strand at the cut.  For an ``arc``
    site, ``in_slots[q]`` / ``out_slots[q]`` are the crossing slots at
    the two ends of that strand.  A ``loop`` site marks a bundle of
    crossing-free circles, for which the strands have no slots at all.
    """

    kind: str  # "arc" | "loop"
    width: int
    arcs: tuple = ()
    in_slots: tuple = ()
    out_slots: tuple = ()


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

    def self_writhe(self, comp: int) -> int:
        total = 0
        for cs, cb, sign in self._crossing_data:
            if cs == comp and cb == comp:
                total += sign
        return total


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


# -- canonical form -----------------------------------------------------------


def canonical_form(diag: PlanarDiagram):
    """Structure key invariant under arc relabeling (crossing order kept)."""
    names: dict = {}
    rows = []
    for c in diag.crossings:
        row = []
        for corner in (NW, NE, SW, SE):
            a = c[corner]
            if a not in names:
                names[a] = len(names)
            row.append(names[a])
        row.append(c.over)
        rows.append(tuple(row))
    return tuple(rows), diag.free_loops


def isomorphic(d1: PlanarDiagram, d2: PlanarDiagram) -> bool:
    """Equality of diagrams up to renaming arcs (same crossing order)."""
    return canonical_form(d1) == canonical_form(d2)


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


# -- deletion and cabling -----------------------------------------------------


def delete_components(link: FramedLink, dead: set) -> PlanarDiagram:
    """Remove the named components, splicing surviving strands through.

    A crossing between a surviving strand and a deleted one disappears
    and the surviving strand's two arcs merge; a surviving component
    that loses all its crossings becomes a free loop.
    """
    diag = link.diagram
    alive_cross = []
    parent: dict = {}
    for ci, c in enumerate(diag.crossings):
        cs, cb = link.crossing_components(ci)
        s_dead, b_dead = cs in dead, cb in dead
        if s_dead and b_dead:
            continue
        if not s_dead and not b_dead:
            alive_cross.append(ci)
            continue
        # one strand survives: merge its two arcs across the crossing
        if s_dead:
            a, b = c[NW], c[SE]
        else:
            a, b = c[SW], c[NE]
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[ra] = rb

    new_crossings = []
    for ci in alive_cross:
        c = diag.crossings[ci]
        new_crossings.append(
            Crossing(*(_find(parent, a) for a in c[:4]), c.over)
        )

    # count surviving classes with no remaining crossing slots: free loops
    occupancy: dict = {}
    for c in new_crossings:
        for corner in (NW, NE, SW, SE):
            occupancy[c[corner]] = occupancy.get(c[corner], 0) + 1
    closed = set()
    for comp_index, comp in enumerate(link.components):
        if comp_index in dead or not comp:
            continue
        for a in comp:
            r = _find(parent, a)
            if r not in occupancy:
                closed.add(r)
    free = diag.free_loops + len(closed)
    for comp_index in dead:
        if not link.components[comp_index]:
            free -= 1
    return PlanarDiagram(tuple(new_crossings), free)


def cable(link: FramedLink, widths) -> PlanarDiagram:
    """Replace each component by parallel blackboard push-offs.

    ``widths[k]`` is the number of copies of component k; width 0
    deletes the component.  The result carries one marked Site per
    surviving component, the transversal cut where its projector sits.
    Validity (in particular planarity) is preserved.
    """
    if len(widths) != link.n_components:
        raise ValueError(f"{len(widths)} widths for {link.n_components} components")
    if any(w < 0 for w in widths):
        raise ValueError("widths must be >= 0")
    dead = {i for i, w in enumerate(widths) if w == 0}
    if dead:
        base = FramedLink(delete_components(link, dead))
        return cable(base, _map_widths(link, base, widths, dead))

    diag = link.diagram
    sites = []
    new_crossings: dict = {}
    slot_arc: dict = {}

    def grid_uv(ci):
        cs, cb = link.crossing_components(ci)
        return widths[cs], widths[cb]

    def attach(ci, corner, p):
        u, v = grid_uv(ci)
        if corner == SW:
            return (("g", ci, p, v - 1), SW)
        if corner == NE:
            return (("g", ci, u - 1 - p, 0), NE)
        if corner == NW:
            return (("g", ci, 0, p), NW)
        return (("g", ci, u - 1, v - 1 - p), SE)

    for ci, c in enumerate(diag.crossings):
        u, v = grid_uv(ci)
        for i in range(u):
            for j in range(v):
                new_crossings[("g", ci, i, j)] = [None, None, None, None, c.over]
        for i in range(u):
            for j in range(v - 1):
                a = ("i", ci, i, j)
                slot_arc[(("g", ci, i, j + 1), NE)] = a
                slot_arc[(("g", ci, i, j), SW)] = a
        for j in range(v):
            for i in range(u - 1):
                a = ("j", ci, i, j)
                slot_arc[(("g", ci, i, j), SE)] = a
                slot_arc[(("g", ci, i + 1, j), NW)] = a

    arc_copy_slots: dict = {}
    for arc, ends in link._slots.items():
        w = widths[link.component_of(arc)]
        (c1, s1), (c2, s2) = ends
        for q in range(w):
            a = ("c", arc, q)
            e1 = attach(c1, s1, q)
            e2 = attach(c2, s2, w - 1 - q)
            slot_arc[e1] = a
            slot_arc[e2] = a
            arc_copy_slots[a] = (e1, e2)

    for (gid, corner), a in slot_arc.items():
        new_crossings[gid][corner] = a

    gid_index: dict = {}
    ordered = []
    for ci in range(len(diag.crossings)):
        u, v = grid_uv(ci)
        for i in range(u):
            for j in range(v):
                gid_index[("g", ci, i, j)] = len(ordered)
                ordered.append(Crossing(*new_crossings[("g", ci, i, j)]))

    def site_slot(slot):
        gid, corner = slot
        return (gid_index[gid], corner)

    free = 0
    for comp_index, comp in enumerate(link.components):
        w = widths[comp_index]
        if comp:
            alpha = comp[0]
            cut = tuple(("c", alpha, q) for q in range(w))
            sites.append(
                Site(
                    kind="arc",
                    width=w,
                    arcs=cut,
                    in_slots=tuple(site_slot(arc_copy_slots[a][0]) for a in cut),
                    out_slots=tuple(site_slot(arc_copy_slots[a][1]) for a in cut),
                )
            )
        else:
            free += w
            sites.append(Site(kind="loop", width=w))
    return PlanarDiagram(tuple(ordered), free, tuple(sites))


def _map_widths(old: FramedLink, new: FramedLink, widths, dead) -> list:
    """Carry per-component widths across a deletion."""
    out = [None] * new.n_components
    used_loops = []
    for old_i, comp in enumerate(old.components):
        if old_i in dead:
            continue
        if comp:
            # deletion merges arcs within one component and keeps one of its
            # original labels as the union-find root
            root_arcs = [a for a in new._comp_of_arc if a in comp]
            if root_arcs:
                out[new.component_of(root_arcs[0])] = widths[old_i]
            else:
                used_loops.append(widths[old_i])  # component became a free loop
        else:
            used_loops.append(widths[old_i])
    loop_slots = [i for i in range(new.n_components) if out[i] is None]
    if len(loop_slots) != len(used_loops):
        raise SkeinError("component widths do not survive the deletion")
    for i, w in zip(loop_slots, used_loops):
        out[i] = w
    return out


# -- splicing a matching into a site ------------------------------------------


def splice(diag: PlanarDiagram, assignments) -> PlanarDiagram:
    """Replace each cut of ``assignments`` by a crossingless matching.

    ``assignments`` is a list of (site, pairs) where ``pairs`` is a
    perfect matching on the tokens ("in", q) / ("out", q), q < width.
    Matching ("in", q) with ("out", q) for all q restores the uncut
    diagram.  Circles formed entirely at the cuts become free loops.
    ``colored_bracket`` sweeps the projectors as boxes instead; splicing
    every projector term is the slow reference it is tested against.
    """
    adj: dict = {}
    terminal: dict = {}

    def add_edge(x, y):
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)

    free = diag.free_loops
    cut_arcs = set()
    for s_index, (site, pairs) in enumerate(assignments):
        for q in range(site.width):
            if site.kind == "arc":
                cut_arcs.add(site.arcs[q])
                terminal[("end", s_index, "in", q)] = site.in_slots[q]
                terminal[("end", s_index, "out", q)] = site.out_slots[q]
                add_edge(("in", s_index, q), ("end", s_index, "in", q))
                add_edge(("out", s_index, q), ("end", s_index, "out", q))
            else:
                free -= 1
                add_edge(("in", s_index, q), ("out", s_index, q))
        for (ta, qa), (tb, qb) in pairs:
            add_edge((ta, s_index, qa), (tb, s_index, qb))

    relabel: dict = {}
    visited = set()
    counter = 0
    for node in list(adj):
        if node in visited or node[0] != "end":
            continue
        # walk the path from one terminal to the other
        path = [node]
        visited.add(node)
        cur, prev = node, None
        while True:
            nxts = [x for x in adj[cur] if x != prev]
            if not nxts:
                break
            prev, cur = cur, nxts[0]
            if cur in visited:
                break
            visited.add(cur)
            path.append(cur)
        new_arc = ("spliced", counter)
        counter += 1
        relabel[terminal[path[0]]] = new_arc
        relabel[terminal[path[-1]]] = new_arc
    for node in adj:
        if node not in visited and node[0] != "end":
            # a cycle living entirely at the cuts
            cyc = [node]
            visited.add(node)
            cur, prev = node, None
            while True:
                nxts = [x for x in adj[cur] if x != prev]
                if not nxts or nxts[0] == cyc[0]:
                    break
                prev, cur = cur, nxts[0]
                if cur in visited:
                    break
                visited.add(cur)
                cyc.append(cur)
            free += 1

    out = []
    for ci, c in enumerate(diag.crossings):
        fields = []
        for corner in (NW, NE, SW, SE):
            a = c[corner]
            if a in cut_arcs:
                fields.append(relabel[(ci, corner)])
            else:
                fields.append(a)
        out.append(Crossing(*fields, c.over))
    return PlanarDiagram(tuple(out), free)


# -- JSON serialization -------------------------------------------------------


def link_to_json(link: FramedLink, colors=None) -> str:
    """Serialize with integer arc labels and a stable key order."""
    diag = link.diagram
    names: dict = {}
    for c in diag.crossings:
        for corner in (NW, NE, SW, SE):
            if c[corner] not in names:
                names[c[corner]] = len(names)
    payload = {
        "crossings": [
            [names[c.nw], names[c.ne], names[c.sw], names[c.se], c.over]
            for c in diag.crossings
        ],
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
