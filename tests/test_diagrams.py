import json
import random
from itertools import permutations, product

import pytest

from skeinlab.diagrams import (
    OVER_BACK,
    OVER_SLASH,
    Crossing,
    FramedLink,
    PlanarDiagram,
    SurgeryPresentation,
    _box_legs,
    _signature,
    attach_meridian,
    borromean_fixture,
    braid_closure,
    cable,
    _find,
    _sublink,
    canonical_form,
    hopf_fixture,
    link_from_json,
    link_to_json,
    linking_matrix,
    splice,
    unknot_fixture,
)
from skeinlab.errors import ArcCountError, NotPlanarError
from skeinlab.tl import identity, jones_wenzl
from skeinlab.verify import random_braid_closure
from skeinlab.wrt import _torus_presentation


def test_fixture_shapes(borromean, hopf, unknot):
    assert borromean.n_components == 3 and borromean.diagram.n_crossings == 6
    assert hopf.n_components == 2 and hopf.diagram.n_crossings == 2
    assert unknot.n_components == 1 and unknot.diagram.n_crossings == 0
    assert unknot.diagram.free_loops == 1


def test_arc_count_validation():
    bad = PlanarDiagram((Crossing("a", "a", "b", "c", OVER_SLASH),), 0)
    with pytest.raises(ArcCountError):
        FramedLink(bad)


def test_planarity_rejects_genus_one():
    # two crossings glued with a quarter-turn shift close up into a
    # surface with Euler characteristic 0
    bad = PlanarDiagram((
        Crossing("a", "b", "c", "d", OVER_SLASH),
        Crossing("d", "a", "b", "c", OVER_SLASH),
    ), 0)
    with pytest.raises(NotPlanarError):
        FramedLink(bad)


def test_kink_signs():
    # the self-writhe is the diagonal entry of the linking matrix
    for kinks in (1, -1, 3):
        assert linking_matrix(unknot_fixture(kinks)) == ((kinks,),)


def test_borromean_linking_matrix(borromean):
    mat = linking_matrix(borromean)
    assert mat == ((0, 0, 0), (0, 0, 0), (0, 0, 0))
    assert _signature(mat) == 0


def test_hopf_linking_matrix(hopf):
    mat = linking_matrix(hopf)
    assert mat == ((0, 1), (1, 0))
    assert _signature(mat) == 0


def test_signature_obeys_sylvester_inertia():
    # M = P^T D P with P unimodular has the signature of D; zeros in D
    # make M singular and zero pivots, which no surgery workload reaches
    rng = random.Random(31)
    for _ in range(400):
        n = rng.randint(0, 6)
        diag = [rng.choice((-2, -1, 0, 1, 3)) for _ in range(n)]
        p = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(4 * n):  # elementary row operations
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                p[i] = [-x for x in p[i]]
            else:
                c = rng.randint(-2, 2)
                p[i] = [x + c * y for x, y in zip(p[i], p[j])]
        mat = [[sum(p[k][i] * diag[k] * p[k][j] for k in range(n)) for j in range(n)]
               for i in range(n)]
        assert _signature(mat) == sum(x > 0 for x in diag) - sum(x < 0 for x in diag)


def test_borromean_walk_is_pinned(borromean):
    # the strand walk fixes the component order, each component's arc
    # order and direction, and the crossing signs; link_to_json prints them
    assert borromean.components == (
        (("x", 0), ("x", 5), ("y", 3), ("y", 2)),
        (("y", 0), ("x", 4), ("x", 3), ("y", 1)),
        (("x", 1), ("y", 5), ("y", 4), ("x", 2)),
    )
    assert [borromean.crossing_components(ci) for ci in range(6)] == [
        (1, 0), (1, 2), (0, 2), (0, 1), (2, 1), (2, 0)]
    assert [sign for _, _, sign in borromean._crossing_data] == [1, -1, 1, -1, 1, -1]


def test_braid_closure_components():
    assert FramedLink(braid_closure([1], 2)).n_components == 1
    assert FramedLink(braid_closure([1, 1], 2)).n_components == 2
    assert FramedLink(braid_closure([1, 1, 1], 2)).n_components == 1
    # untouched strands close into free loops
    empty = braid_closure([], 3)
    assert empty.n_crossings == 0 and empty.free_loops == 3
    partial = braid_closure([1], 3)
    assert partial.free_loops == 1


def test_isomorphism_is_label_blind(hopf):
    relabeled = PlanarDiagram(
        tuple(
            Crossing(("x", c.nw), ("x", c.ne), ("x", c.sw), ("x", c.se), c.over)
            for c in hopf.diagram.crossings
        ),
        hopf.diagram.free_loops,
    )
    assert canonical_form(hopf.diagram) == canonical_form(relabeled)
    flipped = PlanarDiagram(
        (hopf.diagram.crossings[0],
         hopf.diagram.crossings[1]._replace(over=OVER_BACK)),
        0,
    )
    assert canonical_form(hopf.diagram) != canonical_form(flipped)


def test_meridian_presentation(borromean):
    pres = attach_meridian(borromean, 1, 2)
    link = pres.link
    assert link.n_components == 4
    assert sorted(pres.surgery_components) == [0, 1, 2]
    (mer, color), = pres.extra_colors.items()
    assert color == 2 and mer not in pres.surgery_components
    mat = linking_matrix(link)
    assert mat[mer][mer] == 0
    assert abs(mat[mer][1]) == 1
    assert mat[mer][0] == 0 and mat[mer][2] == 0
    # host framings are untouched
    assert all(mat[j][j] == 0 for j in pres.surgery_components)


def test_surgery_components_are_the_uncolored_ones():
    for a in (0, 1, 2):
        pres = _torus_presentation(a)
        assert pres.surgery_components == (0, 1, 2) and pres.extra_colors == {3: a}
    assert attach_meridian(unknot_fixture(0), 0, 2).surgery_components == (1,)
    with pytest.raises(ValueError):
        SurgeryPresentation(hopf_fixture(), {2: 1})


def test_meridian_on_free_loop(unknot):
    pres = attach_meridian(unknot, 0, 1)
    assert pres.link.n_components == 2
    assert pres.link.diagram.n_crossings == 2
    mat = linking_matrix(pres.link)
    assert abs(mat[0][1]) == 1


# link_to_json and linking_matrix of attach_meridian(link, k, 2), recorded
# on the tree that still built the clasp of a crossing-free component by a
# branch of its own: the arc clasp and the free-loop clasp, one free loop
# of a link with more than one, must keep giving these diagrams.
MERIDIAN_PINS = [
    (borromean_fixture(), 1, 3,
     [[0, 1, 2, 3, 0], [4, 5, 6, 7, 1], [8, 9, 0, 4, 0], [10, 11, 9, 5, 1],
      [2, 12, 8, 10, 0], [3, 7, 12, 11, 1], [13, 14, 1, 15, 1], [13, 6, 14, 15, 0]], 0,
     [[0, 3, 11, 9], [1, 2, 10, 5, 6, 14], [4, 7, 12, 8], [13, 15]],
     ((0, 0, 0, 0), (0, 0, 0, -1), (0, 0, 0, 0), (0, -1, 0, 0))),
    (hopf_fixture(), 0, 2,
     [[0, 1, 2, 3, 0], [2, 3, 4, 1, 0], [5, 6, 0, 7, 1], [5, 4, 6, 7, 0]], 0,
     [[0, 3, 4, 6], [1, 2], [5, 7]],
     ((0, 1, -1), (1, 0, 0), (-1, 0, 0))),
    (unknot_fixture(0), 0, 0,
     [[0, 1, 2, 3, 1], [0, 2, 1, 3, 0]], 0,
     [[0, 3], [1, 2]],
     ((0, -1), (-1, 0))),
    (unknot_fixture(2), 0, 1,
     [[0, 1, 2, 3, 1], [4, 4, 3, 2, 1], [5, 6, 0, 7, 1], [5, 1, 6, 7, 0]], 0,
     [[0, 3, 4, 2, 1, 6], [5, 7]],
     ((2, -1), (-1, 0))),
    (FramedLink(braid_closure([1, 1, -1], 4)), 1, 1,
     [[0, 1, 2, 3, 0], [4, 5, 0, 1, 0], [2, 3, 4, 5, 1], [6, 7, 8, 9, 1], [6, 8, 7, 9, 0]], 1,
     [[0, 3, 4, 1, 2, 5], [6, 9], [7, 8]],
     ((1, 0, 0, 0), (0, 0, -1, 0), (0, -1, 0, 0), (0, 0, 0, 0))),
]


@pytest.mark.parametrize("link, k, mer, crossings, free_loops, components, mat", MERIDIAN_PINS)
def test_attach_meridian_is_pinned(link, k, mer, crossings, free_loops, components, mat):
    pres = attach_meridian(link, k, 2)
    assert pres.extra_colors == {mer: 2}
    assert json.loads(link_to_json(pres.link)) == {
        "crossings": crossings, "free_loops": free_loops, "components": components}
    assert linking_matrix(pres.link) == mat


def test_cable_width_one_is_identity(borromean, hopf):
    for link in (borromean, hopf):
        cabled = cable(link, [1] * link.n_components)
        assert canonical_form(cabled) == canonical_form(link.diagram)


def test_cable_crossing_counts(hopf):
    assert cable(hopf, [1, 2]).n_crossings == 4
    assert cable(hopf, [2, 2]).n_crossings == 8
    trefoil = FramedLink(braid_closure([1, 1, 1], 2))
    assert cable(trefoil, [3]).n_crossings == 27


def test_delete_components(hopf, borromean):
    # width 0 deletes a component
    for widths in ([0, 1], [1, 0]):
        only_one = cable(hopf, widths)
        assert only_one.n_crossings == 0 and only_one.free_loops == 1
    # removing one Borromean component frees the other two into a clasp
    rest = cable(borromean, [0, 1, 1])
    assert rest.n_crossings == 2
    mat = linking_matrix(FramedLink(rest))
    assert mat[0][1] == 0  # still pairwise unlinked after the clasp cancels


def test_cable_zero_width_deletes(hopf, borromean):
    gone = cable(hopf, [0, 1])
    assert gone.n_crossings == 0 and gone.free_loops == 1
    # arc sites in the order of each component's first grid corner
    assert [s.width for s in cable(borromean, [0, 2, 3]).sites] == [3, 2]
    assert [s.width for s in cable(borromean, [2, 1, 3]).sites] == [2, 1, 3]
    # then loop sites in component order, a free loop last
    unlinked = cable(FramedLink(braid_closure([1, 1], 3)), [0, 2, 3])
    assert [(s.slots, s.width) for s in unlinked.sites] == [((), 2), ((), 3)]


def _delete_components(link, widths):
    """Reference for width 0: drop the crossings of the width-0
    components, merge a surviving strand's two arcs across each crossing
    it had with one, and carry the widths over to the smaller link, whose
    components that lost every crossing are free loops, in link order."""
    dead = {k for k, w in enumerate(widths) if w == 0}
    parent: dict = {}
    kept = []
    for ci, c in enumerate(link.diagram.crossings):
        cs, cb = link.crossing_components(ci)
        if cs not in dead and cb not in dead:
            kept.append(c)
        elif cs not in dead:
            parent[_find(parent, c.sw)] = _find(parent, c.ne)
        elif cb not in dead:
            parent[_find(parent, c.nw)] = _find(parent, c.se)
    rows = tuple(Crossing(*(_find(parent, a) for a in c[:4]), c.over) for c in kept)
    arcs = {a for c in rows for a in c[:4]}
    loops = [k for k, comp in enumerate(link.components)
             if k not in dead and not any(_find(parent, a) in arcs for a in comp)]
    base = FramedLink(PlanarDiagram(rows, len(loops)))
    # each surviving arc is labelled by one of its original arcs
    base_widths = [widths[link.component_of(comp[0])] for comp in base.components if comp]
    return base, base_widths + [widths[k] for k in loops]


def test_cable_zero_width_matches_deletion(rng):
    links = [_torus_presentation(a).link for a in range(3)]
    links += [random_braid_closure(rng) for _ in range(150)]
    for link in links:
        n = link.n_components
        for dead, flip in product(product((False, True), repeat=n), (0, 1)):
            widths = [0 if gone else 1 + (k + flip) % 2 for k, gone in enumerate(dead)]
            got = cable(link, widths)
            want = cable(*_delete_components(link, widths))
            assert canonical_form(got) == canonical_form(want)
            assert got.sites == want.sites


def test_orbit_keys(borromean, hopf):
    def key(link, colors):
        return link.orbit(colors)[0]

    # the rotations and a reflected walk, a half turn about a line in the
    # plane that swaps components 0 and 2, give all six permutations
    orderings = list(permutations((1, 2, 3)))
    assert len({key(borromean, c) for c in orderings}) == 1
    assert {borromean.orbit(c)[1] for c in orderings} == {(1, 2, 3)}
    assert key(hopf, (1, 2)) == key(hopf, (2, 1))
    assert hopf.orbit((2, 1))[1] == (1, 2)
    torus = _torus_presentation(0).link
    # the meridian on component 1 breaks the rotations, but the half turn
    # that swaps components 0 and 2 keeps it; without it the rotations return
    assert key(torus, (1, 2, 3, 1)) != key(torus, (2, 3, 1, 1))
    assert key(torus, (2, 3, 1, 1)) == key(torus, (1, 3, 2, 1))
    assert torus.orbit((2, 3, 1, 1))[1] == (1, 3, 2, 1)
    assert key(torus, (1, 2, 3, 0)) == key(torus, (2, 3, 1, 0))
    # two Borromean components: one passes over the other at both
    # crossings, so swapping them needs a plane reflection that switches
    # every crossing, which a reflected walk reads
    for i, j in ((0, 1), (0, 2), (1, 2)):
        colors, swapped = [0, 0, 0], [0, 0, 0]
        colors[i] = swapped[j] = 1
        colors[j] = swapped[i] = 2
        assert key(borromean, tuple(colors)) == key(borromean, tuple(swapped))
        assert borromean.orbit(tuple(swapped))[1] == tuple(colors)
    # a lone component is crossing-free in its sublink, a round unknot
    assert key(borromean, (0, 2, 0)) == key(unknot_fixture(0), (2,))
    assert key(borromean, (0, 0, 0)) == key(unknot_fixture(0), (0,))
    # the kinks of the two signs are mirrors, not rotations
    assert key(unknot_fixture(1), (1,)) != key(unknot_fixture(-1), (1,))
    # the Hopf link and an unknot with a meridian are one diagram
    assert key(hopf, (1, 2)) == key(attach_meridian(unknot_fixture(0), 0, 2).link, (1, 2))
    # on the sphere the closure of (s1 s2)^3 can also swap its inner and
    # outer strands, and a half turn about the braid's axis, which reads
    # each s_i as s_(3-i), takes it to the closure of (s2 s1)^3, itself
    (piece,), loose = _sublink(braid_closure([1, 2] * 3, 3), (0, 1, 2))
    assert len(piece[1]) == 12 and loose == ()


def test_sublink_cache_keys_on_the_diagram():
    # three separately built torus presentations share one diagram, since
    # the meridian's color lives only in extra_colors
    _sublink.cache_clear()
    for a in (1, 2, 1):
        _torus_presentation(a).link.orbit((1, 1, 1, 2))
    info = _sublink.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_orbit_key_of_a_split_sublink():
    # two Hopf clasps, side by side: split pieces are keyed apart, so the
    # clasps may trade colors, but the coloring to cable stays as it is
    link = FramedLink(braid_closure([1, 1, 3, 3], 4))
    assert link.n_components == 4
    assert link.orbit((1, 1, 2, 2))[0] == link.orbit((2, 2, 1, 1))[0]
    assert link.orbit((1, 1, 2, 2))[0] != link.orbit((1, 2, 1, 2))[0]
    assert link.orbit((2, 2, 1, 1))[1] == (2, 2, 1, 1)


def test_cable_sites_cover_components(borromean):
    cabled = cable(borromean, [2, 1, 3])
    widths = sorted(site.width for site in cabled.sites)
    assert widths == [1, 2, 3]
    FramedLink(cabled)


def test_splice_identity_restores_cable(hopf):
    # the Hopf link at (2, 2), every torus coloring with colors <= 2, and
    # the round unknot at 3, a loop site; the canonical form holds the
    # crossings and the free-loop count
    cases = [(hopf, [2, 2]), (unknot_fixture(0), [3])]
    for a in range(3):
        link = _torus_presentation(a).link
        cases += [(link, list(c)) for c in product(range(3), repeat=link.n_components)]
    for link, colors in cases:
        cabled = cable(link, colors)
        plain = splice(cabled, [(site, identity(site.width).pairs) for site in cabled.sites])
        FramedLink(plain)
        assert canonical_form(plain) == canonical_form(cabled)


def test_site_slots_are_in_tl_point_order(hopf):
    # the projector's symmetries hide a flip of the points, so each of
    # the five matchings of 6 points is checked chord by chord: splice
    # must join slots[a] and slots[b] for a chord (a, b), and leg p of
    # the site's box must be the arc at slots[p]
    cabled = cable(hopf, [3, 1])
    i, site = next((i, s) for i, s in enumerate(cabled.sites) if s.width == 3)
    legs = _box_legs(cabled)
    assert legs[len(cabled.crossings) + i] == [legs[ci][k] for ci, k in site.slots]
    matchings = [t.pairs for t in jones_wenzl(3).terms]
    assert len(matchings) == 5
    for pairs in matchings:
        out = splice(cabled, [(site, pairs)])
        arc = [out.crossings[ci][k] for ci, k in site.slots]
        assert all(arc[a] == arc[b] for a, b in pairs), pairs
        assert len({arc[a] for a, _ in pairs}) == 3, pairs


def test_json_round_trip(borromean, hopf, unknot):
    for link in (borromean, hopf, unknot):
        text = link_to_json(link)
        back, colors = link_from_json(text)
        assert colors is None
        assert canonical_form(back.diagram) == canonical_form(link.diagram)


def test_json_text_is_pinned(hopf):
    assert link_to_json(hopf) == """{
  "crossings": [
    [
      0,
      1,
      2,
      3,
      0
    ],
    [
      2,
      3,
      0,
      1,
      0
    ]
  ],
  "free_loops": 0,
  "components": [
    [
      0,
      3
    ],
    [
      1,
      2
    ]
  ]
}"""


def test_json_keeps_colors(hopf):
    back, colors = link_from_json(link_to_json(hopf, colors=(1, 2)))
    assert colors == (1, 2)
