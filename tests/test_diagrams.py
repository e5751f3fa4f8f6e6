import pytest
from test_bracket import _site_tokens

from skeinlab.diagrams import (
    OVER_BACK,
    OVER_SLASH,
    Crossing,
    FramedLink,
    PlanarDiagram,
    attach_meridian,
    braid_closure,
    cable,
    canonical_form,
    delete_components,
    isomorphic,
    link_from_json,
    link_to_json,
    linking_and_signature,
    unknot_fixture,
)
from skeinlab.errors import ArcCountError, NotPlanarError
from skeinlab.tl import identity


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
    pos = unknot_fixture(1)
    neg = unknot_fixture(-1)
    assert pos.self_writhe(0) == 1
    assert neg.self_writhe(0) == -1
    assert unknot_fixture(3).self_writhe(0) == 3


def test_borromean_linking_matrix(borromean):
    mat, sig = linking_and_signature(borromean)
    assert mat == ((0, 0, 0), (0, 0, 0), (0, 0, 0))
    assert sig == 0


def test_hopf_linking_matrix(hopf):
    mat, sig = linking_and_signature(hopf)
    assert mat == ((0, 1), (1, 0))
    assert sig == 0


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
    assert isomorphic(hopf.diagram, relabeled)
    flipped = PlanarDiagram(
        (hopf.diagram.crossings[0],
         hopf.diagram.crossings[1]._replace(over=OVER_BACK)),
        0,
    )
    assert not isomorphic(hopf.diagram, flipped)


def test_meridian_presentation(borromean):
    pres = attach_meridian(borromean, 1, 2)
    link = pres.link
    assert link.n_components == 4
    assert sorted(pres.surgery_components) == [0, 1, 2]
    (mer, color), = pres.extra_colors.items()
    assert color == 2 and mer not in pres.surgery_components
    mat, _ = linking_and_signature(link)
    assert mat[mer][mer] == 0
    assert abs(mat[mer][1]) == 1
    assert mat[mer][0] == 0 and mat[mer][2] == 0
    # host framings are untouched
    assert all(mat[j][j] == 0 for j in pres.surgery_components)


def test_meridian_on_free_loop(unknot):
    pres = attach_meridian(unknot, 0, 1)
    assert pres.link.n_components == 2
    assert pres.link.diagram.n_crossings == 2
    mat, _ = linking_and_signature(pres.link)
    assert abs(mat[0][1]) == 1


def test_delete_components(hopf, borromean):
    only_one = delete_components(hopf, {1})
    assert only_one.n_crossings == 0 and only_one.free_loops == 1
    # removing one Borromean component frees the other two into a clasp
    rest = delete_components(borromean, {0})
    assert rest.n_crossings == 2
    mat, _ = linking_and_signature(FramedLink(rest))
    assert mat[0][1] == 0  # still pairwise unlinked after the clasp cancels


def test_cable_width_one_is_identity(borromean, hopf):
    for link in (borromean, hopf):
        cabled = cable(link, [1] * link.n_components)
        assert isomorphic(cabled, link.diagram)


def test_cable_crossing_counts(hopf):
    assert cable(hopf, [1, 2]).n_crossings == 4
    assert cable(hopf, [2, 2]).n_crossings == 8
    trefoil = FramedLink(braid_closure([1, 1, 1], 2))
    assert cable(trefoil, [3]).n_crossings == 27


def test_cable_zero_width_deletes(hopf):
    gone = cable(hopf, [0, 1])
    assert gone.n_crossings == 0 and gone.free_loops == 1


def test_cable_sites_cover_components(borromean):
    cabled = cable(borromean, [2, 1, 3])
    widths = sorted(site.width for site in cabled.sites)
    assert widths == [1, 2, 3]
    FramedLink(cabled)


def test_splice_identity_restores_cable(hopf):
    from skeinlab.diagrams import splice

    cabled = cable(hopf, [2, 2])
    assignments = [
        (site, _site_tokens(identity(site.width))) for site in cabled.sites
    ]
    plain = splice(cabled, assignments)
    FramedLink(plain)
    assert isomorphic(plain, cable(hopf, [2, 2]))


def test_json_round_trip(borromean, hopf, unknot):
    for link in (borromean, hopf, unknot):
        text = link_to_json(link)
        back, colors = link_from_json(text)
        assert colors is None
        assert isomorphic(back.diagram, link.diagram)
        assert canonical_form(back.diagram) == canonical_form(link.diagram)


def test_json_keeps_colors(hopf):
    back, colors = link_from_json(link_to_json(hopf, colors=(1, 2)))
    assert colors == (1, 2)
