from fractions import Fraction
from itertools import product

import pytest

from skeinlab.algebra import EvalPoint, LaurentPoly, RatFunc, delta_color, loop_weight, quantum_integer
from skeinlab.bracket import (
    _SMOOTHINGS,
    FREE_LOOP_CAP,
    _sweep,
    bracket,
    bracket_state_sum,
    bracket_tangle_sweep,
    colored_bracket,
)
from skeinlab.diagrams import (
    NE,
    NW,
    SE,
    SW,
    Crossing,
    FramedLink,
    PlanarDiagram,
    braid_closure,
    cable,
    canonical_form,
    diagram,
    splice,
    unknot_fixture,
)
from skeinlab.errors import (
    ArityError,
    ColorRangeError,
    DiagramTooLargeError,
    PoleError,
    SkeinError,
    SliceWidthError,
)
from skeinlab.recoupling import hopf_eval, twist_coefficient
from skeinlab.tl import (
    TLDiagram,
    TLElement,
    _div_unit,
    closure_count,
    compose,
    hook,
    identity,
    jones_wenzl,
)
from skeinlab.verify import random_braid_closure
from skeinlab.wrt import _torus_presentation, torus_invariant

delta = loop_weight()


def test_empty_diagram_is_one():
    assert bracket_state_sum(PlanarDiagram((), 0)) == LaurentPoly.one()
    assert bracket_tangle_sweep(PlanarDiagram((), 0)) == LaurentPoly.one()


def test_unknot_and_free_loops(unknot):
    assert bracket(unknot.diagram) == delta
    assert bracket(PlanarDiagram((), 3)) == delta ** 3


def test_kink_values():
    pos = unknot_fixture(1)
    neg = unknot_fixture(-1)
    assert bracket_state_sum(pos.diagram) == LaurentPoly.monomial(3, -1) * delta
    assert bracket_state_sum(neg.diagram) == LaurentPoly.monomial(-3, -1) * delta


def test_hopf_value(hopf):
    want = delta * (-(LaurentPoly.monomial(4) + LaurentPoly.monomial(-4)))
    assert bracket(hopf.diagram) == want
    assert str(want) == "A^6 + A^2 + A^-2 + A^-6"


def _state_sum_by_slots(diag):
    """Slow reference for ``bracket_state_sum``: every state unions the
    arc mates and the smoothing pairs over the 4n corner slots and adds
    its monomial times delta^loops."""
    n = len(diag.crossings)
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
        total = total + LaurentPoly.monomial(exponent) * delta ** (loops + diag.free_loops)
    return total


# closed values: the trefoil, its mirror and the figure-eight knot, as
# delta times the unnormalised bracket of the knot diagram
@pytest.mark.parametrize(
    "word, strands, want, over_delta",
    [
        ([1, 1, 1], 2, "A^7 + A^3 + A^-1 - A^-9", {5: -1, -3: -1, -7: 1}),
        ([-1, -1, -1], 2, "-A^9 + A + A^-3 + A^-7", {-5: -1, 3: -1, 7: 1}),
        ([1, -2, 1, -2], 3, "-A^10 - A^-10", {8: 1, 4: -1, 0: 1, -4: -1, -8: 1}),
    ],
)
def test_state_sum_closed_values(word, strands, want, over_delta):
    got = bracket_state_sum(braid_closure(word, strands))
    assert str(got) == want
    assert got == delta * LaurentPoly(over_delta)


def test_sweep_matches_state_sum_on_random_diagrams(rng):
    for _ in range(150):
        link = random_braid_closure(rng)
        diag = link.diagram
        want = bracket_state_sum(diag)
        assert bracket_tangle_sweep(diag) == want
        assert _state_sum_by_slots(diag) == want


def _site_tokens(tl_diagram):
    """TL chart points -> splice tokens ("in", q) / ("out", q)."""
    n = tl_diagram.n
    out = []
    for a, b in tl_diagram.pairs:
        ta = ("in", a) if a < n else ("out", 2 * n - 1 - a)
        tb = ("in", b) if b < n else ("out", 2 * n - 1 - b)
        out.append((ta, tb))
    return out


def _colored_bracket_by_splicing(link, colors):
    """Slow reference for ``colored_bracket``: expand every projector,
    splice each combination of terms into a plain diagram, sweep it, and
    sum over the product of the projector denominators."""
    cabled = cable(link, list(colors))
    projectors = [jones_wenzl(s.width) for s in cabled.sites]
    den = LaurentPoly.one()
    for p in projectors:
        den = den * p.den
    total = LaurentPoly.zero()
    for combo in product(*(p.terms.items() for p in projectors)):
        num = LaurentPoly.one()
        for _, coeff in combo:
            num = num * coeff
        assignments = [(s, _site_tokens(t)) for s, (t, _) in zip(cabled.sites, combo)]
        total = total + num * bracket(splice(cabled, assignments))
    return RatFunc(total, den)


def _torus_splices(max_crossings=12):
    """Distinct plain diagrams the torus pipeline sweeps, up to a size.

    Every projector-term splice of the cabled surgery link with colors
    in {0, 1, 2}; the cuts leave internal arcs and free loops.
    """
    found = {}
    for a in range(3):
        link = _torus_presentation(a).link
        for colors in product(range(3), repeat=link.n_components):
            cabled = cable(link, list(colors))
            if len(cabled.crossings) > max_crossings:
                continue
            sites = cabled.sites
            for combo in product(*(jones_wenzl(s.width).terms for s in sites)):
                plain = splice(cabled, [(s, _site_tokens(t)) for s, t in zip(sites, combo)])
                found.setdefault(canonical_form(plain), plain)
    return list(found.values())


def test_sweep_matches_state_sum_on_torus_splices():
    diagrams = _torus_splices()
    assert any(d.free_loops for d in diagrams)
    for diag in diagrams:
        want = bracket_state_sum(diag)
        assert bracket_tangle_sweep(diag) == want
        assert _state_sum_by_slots(diag) == want


@pytest.mark.parametrize("kinks", range(-4, 5))
def test_sweep_matches_state_sum_on_curls(kinks):
    diag = unknot_fixture(kinks).diagram
    want = bracket_state_sum(diag)
    assert bracket_tangle_sweep(diag) == want
    assert _state_sum_by_slots(diag) == want


@pytest.mark.parametrize("k", [0, 1, 2, 7, 40])
def test_free_loops_sweep_matches_state_sum(k):
    diag = PlanarDiagram((), k)
    assert bracket_tangle_sweep(diag) == bracket_state_sum(diag)


def test_many_free_loops():
    # delta^3000 = (A^2 + A^-2)^3000: every even exponent in -6000..6000
    value = bracket_tangle_sweep(PlanarDiagram((), 3000))
    assert len(value.items()) == 3001
    assert value.coefficient(6000) == 1


def test_free_loop_cap(monkeypatch):
    def fail(*args):
        raise AssertionError("the sweep ran before the free-loop cap")
    monkeypatch.setattr("skeinlab.bracket._sweep", fail)
    with pytest.raises(DiagramTooLargeError, match="free loops"):
        bracket_tangle_sweep(PlanarDiagram((), FREE_LOOP_CAP + 1))


def test_state_sum_free_loop_cap(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the state sum ran before the free-loop cap")
    monkeypatch.setattr("skeinlab.bracket.product", fail)
    with pytest.raises(DiagramTooLargeError, match="free loops"):
        bracket_state_sum(PlanarDiagram((), FREE_LOOP_CAP + 1))


def _split_union(diagrams) -> PlanarDiagram:
    """Side-by-side union, arc labels made distinct per copy."""
    crossings = [
        Crossing(*((i, label) for label in c[:4]), c.over)
        for i, d in enumerate(diagrams) for c in d.crossings
    ]
    return PlanarDiagram(tuple(crossings), sum(d.free_loops for d in diagrams))


def test_sweep_decodes_a_wide_split_union(hopf):
    # 12 Hopf links and a trefoil: the bracket is the product of the
    # parts, with coefficients of both signs across 41 exponents
    trefoil = braid_closure([1, 1, 1], 2)
    want = bracket_state_sum(hopf.diagram) ** 12 * bracket_state_sum(trefoil)
    coeffs = [c for _, c in want.items()]
    assert len(coeffs) == 41 and min(coeffs) < 0 < max(coeffs)
    assert max(map(abs, coeffs)) > 2 ** 20
    assert bracket_tangle_sweep(_split_union([hopf.diagram] * 12 + [trefoil])) == want


def test_sweep_rejects_mixed_residues():
    # one 2-leg box closing arc 0 into a loop
    loop = ((0, 1),)
    with pytest.raises(SkeinError, match="mod 4"):
        _sweep([[0, 0]], [[(loop, ((0, 1), (1, 1)))]], [0])
    with pytest.raises(SkeinError, match="mod 4"):
        _sweep([[0, 0]], [[(loop, ((0, 1),)), (loop, ((1, 1),))]], [0])
    with pytest.raises(SkeinError, match="not an integer"):
        _sweep([[0, 0]], [[(loop, ((0, Fraction(1, 2)),))]], [0])
    # (1 - A^4) * delta, the A^2 terms cancelling across the two states
    assert _sweep([[0, 0]], [[(loop, ((0, 1),)), (loop, ((4, -1),))]], [0]) == {-2: -1, 6: 1}


def test_state_sum_cap():
    big = braid_closure([1] * 21, 2)
    with pytest.raises(DiagramTooLargeError):
        bracket_state_sum(big)


@pytest.fixture
def narrow_sweep(monkeypatch):
    """A sweep cap of 2 open arcs and an empty memo: the memo is not
    keyed by the cap, so a cached result would skip the check."""
    monkeypatch.setattr("skeinlab.bracket.SWEEP_MAX_WIDTH", 2)
    monkeypatch.setattr("skeinlab.bracket._sweep_memo", {})


def test_sweep_width_cap(borromean, narrow_sweep):
    with pytest.raises(SliceWidthError):
        bracket_tangle_sweep(borromean.diagram)


def test_sweep_width_checked_before_projectors(monkeypatch):
    # d = 5, a = 2: the widest colouring's order is over the cap, which
    # must be found before any projector is built
    def no_projectors(n):
        raise AssertionError(f"jones_wenzl({n}) built before the width check")

    monkeypatch.setattr("skeinlab.bracket.jones_wenzl", no_projectors)
    with pytest.raises(SliceWidthError):
        torus_invariant(2, EvalPoint(5, 1))


def test_sweep_rejects_open_arcs():
    # each arc label occurs once, so no crossing ever closes one
    with pytest.raises(SkeinError, match="open arcs survived"):
        bracket_tangle_sweep(diagram([(0, 1, 2, 3, 0)]))


# -- Temperley-Lieb layer -------------------------------------------------------


def test_compose_counts_bubbles():
    n = 2
    cup_cap = hook(n, 1)
    composed, bubbles = compose(cup_cap, cup_cap)
    assert composed == cup_cap
    assert bubbles == 1


@pytest.mark.parametrize("n", range(5))
def test_compose_is_a_monoid_with_cyclic_trace(n):
    basis = list(jones_wenzl(n).terms)
    one = identity(n)
    for x in basis:
        assert compose(one, x) == (x, 0)
        assert compose(x, one) == (x, 0)
        for y in basis:
            xy, b_xy = compose(x, y)
            yx, b_yx = compose(y, x)
            assert closure_count(xy) + b_xy == closure_count(yx) + b_yx
            for z in basis:
                xy_z, b_xy_z = compose(xy, z)
                yz, b_yz = compose(y, z)
                x_yz, b_x_yz = compose(x, yz)
                assert xy_z == x_yz
                assert b_xy + b_xy_z == b_yz + b_x_yz


@pytest.mark.parametrize("n", range(6))
def test_compose_product_passes_the_make_check(n):
    # compose skips TLDiagram.make; its product must still be a valid,
    # normalized noncrossing matching
    basis = list(jones_wenzl(n).terms)
    for x in basis:
        for y in basis:
            xy = compose(x, y)[0]
            assert xy == TLDiagram.make(n, xy.pairs)


def test_tl_element_closure_of_identity():
    for n in range(4):
        assert TLElement.identity_element(n).closure() == RatFunc(delta ** n)


def test_tl_compose_arity_mismatch():
    with pytest.raises(ArityError):
        TLElement.identity_element(2) * TLElement.identity_element(3)


def test_noncrossing_validation():
    with pytest.raises(ValueError):
        TLDiagram.make(2, ((0, 2), (1, 3)))


def test_jones_wenzl_two_strands():
    e2 = jones_wenzl(2)
    assert e2.coefficient(identity(2)) == RatFunc(LaurentPoly.one())
    assert e2.coefficient(hook(2, 1)) == RatFunc(LaurentPoly.const(-1), delta)


@pytest.mark.parametrize("n", range(5))
def test_jones_wenzl_idempotent(n):
    e = jones_wenzl(n)
    assert e * e == e


@pytest.mark.parametrize("n", range(1, 6))
def test_jones_wenzl_killed_by_hooks(n):
    e = jones_wenzl(n)
    zero = TLElement(n, {}, LaurentPoly.one())
    for i in range(1, n):
        assert TLElement.hook_element(n, i) * e == zero
        assert e * TLElement.hook_element(n, i) == zero


@pytest.mark.parametrize("n", range(6))
def test_jones_wenzl_closure(n):
    sign = 1 if n % 2 == 0 else -1
    assert jones_wenzl(n).closure() == RatFunc(quantum_integer(n + 1).scale(sign))


# -- colored brackets -----------------------------------------------------------


@pytest.mark.parametrize("n", range(5))
def test_colored_unknot(unknot, n):
    assert colored_bracket(unknot, (n,)) == RatFunc(delta_color(n))


@pytest.mark.parametrize("n", range(4))
def test_colored_kink_framing(n):
    got = colored_bracket(unknot_fixture(1), (n,))
    assert got == RatFunc(twist_coefficient(n) * delta_color(n))


def test_colored_hopf_matches_closed_form(hopf):
    for i in range(3):
        for a in range(3):
            assert colored_bracket(hopf, (i, a)) == RatFunc(hopf_eval(i, a))


def test_color_zero_deletes(hopf):
    assert colored_bracket(hopf, (0, 2)) == RatFunc(delta_color(2))


def test_colored_bracket_at_point(unknot):
    v = colored_bracket(unknot, (2,), point=EvalPoint(2, 1))
    assert v == colored_bracket(unknot, (2,), point=EvalPoint(2, 1))
    assert not v.is_zero()


def test_colored_bracket_matches_splicing_reference(hopf):
    # the torus presentations for a = 0, 1, 2 share one link, so its 81
    # colorings in {0, 1, 2}^4 cover all three
    cases = [(_torus_presentation(0).link, c) for c in product(range(3), repeat=4)]
    cases += [(hopf, c) for c in product(range(4), repeat=2)]
    cases += [(unknot_fixture(k), (n,)) for k in range(-2, 3) for n in range(4)]
    for link, colors in cases:
        assert colored_bracket(link, colors) == \
            _colored_bracket_by_splicing(link, colors), colors


def test_colored_bracket_width_cap(borromean, narrow_sweep):
    with pytest.raises(SliceWidthError):
        colored_bracket(borromean, (2, 2, 2))


def test_div_unit_rejects_remainder():
    # 1 + A does not divide 1
    with pytest.raises(SkeinError):
        _div_unit(LaurentPoly.one(), LaurentPoly.one() + LaurentPoly.monomial(1))


def test_colored_error_paths(hopf, unknot):
    with pytest.raises(ArityError):
        colored_bracket(hopf, (1,))
    with pytest.raises(ColorRangeError):
        colored_bracket(hopf, (1, -1))
    with pytest.raises(DiagramTooLargeError):
        colored_bracket(unknot, (9,))
    for _ in range(2):  # the cached inverse does not cache the pole
        with pytest.raises(PoleError):
            # the three-strand projector has [3] in its denominator, which
            # vanishes at the level-1 point
            colored_bracket(unknot, (3,), point=EvalPoint(1, 1))
