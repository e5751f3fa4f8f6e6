from itertools import product

import pytest

from skeinlab.algebra import (
    EvalPoint,
    LaurentPoly,
    RatFunc,
    delta_color,
    evaluate_at,
    loop_weight,
    quantum_integer,
)
from skeinlab.bracket import (
    _CROSSING_STATES,
    _SMOOTHINGS,
    FREE_LOOP_CAP,
    _sweep,
    _sweep_order,
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
    _box_legs,
    attach_meridian,
    braid_closure,
    cable,
    canonical_form,
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
from skeinlab.recoupling import hopf_eval, meridian_series, twist_coefficient
from skeinlab.tl import (
    TLDiagram,
    TLElement,
    hook,
    identity,
    jones_wenzl,
)
from skeinlab.verify import random_braid_closure
from skeinlab.wrt import _torus_presentation, torus_invariant

delta = loop_weight(1)


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
    arc mates and the smoothing pairs over the 4n corner slots afresh;
    states are counted by (loops, exponent) and each loop count adds
    its monomials times delta^loops once."""
    n = len(diag.crossings)
    ends: dict = {}
    for ci, c in enumerate(diag.crossings):
        for corner in (NW, NE, SW, SE):
            ends.setdefault(c[corner], []).append(4 * ci + corner)
    mates = [tuple(v) for v in ends.values()]
    smooth = [_SMOOTHINGS[c.over] for c in diag.crossings]

    def find(parent, x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    counts: dict = {}
    for state in product((0, 1), repeat=n):
        parent = list(range(4 * n))
        loops = 4 * n  # one class per slot; each merge of two classes drops one
        pairs = mates + [(4 * ci + x, 4 * ci + y)
                         for ci, s in enumerate(state) for x, y in smooth[ci][s]]
        for a, b in pairs:
            ra, rb = find(parent, a), find(parent, b)
            if ra != rb:
                parent[ra] = rb
                loops -= 1
        exponent = sum(1 if s == 0 else -1 for s in state)
        row = counts.setdefault(loops, {})
        row[exponent] = row.get(exponent, 0) + 1
    total = LaurentPoly.zero()
    for loops, row in counts.items():
        total = total + LaurentPoly(row) * delta ** (loops + diag.free_loops)
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


# 0-3 crossings: the walk counts the last crossing in place below the
# second-to-last, so these are its edges; a kink joins two ends of one arc
@pytest.mark.parametrize("free", [0, 1, 2])
@pytest.mark.parametrize(
    "diag",
    [
        PlanarDiagram((), 0),
        unknot_fixture(1).diagram,
        unknot_fixture(-1).diagram,
        unknot_fixture(2).diagram,
        braid_closure([1, 1], 2),
        braid_closure([1, -1], 2),
        unknot_fixture(-3).diagram,
        braid_closure([1, 1, 1], 2),
        braid_closure([1, -2, 1], 3),
    ],
    ids=["empty", "kink+", "kink-", "kinks2", "hopf", "unlink2", "kinks-3", "trefoil",
         "braid3"],
)
def test_state_sum_small_diagrams(diag, free):
    diag = PlanarDiagram(diag.crossings, diag.free_loops + free)
    assert bracket_state_sum(diag) == _state_sum_by_slots(diag)


def test_sweep_matches_state_sum_on_random_diagrams(rng):
    for _ in range(150):
        link = random_braid_closure(rng)
        diag = link.diagram
        want = bracket_state_sum(diag)
        assert bracket_tangle_sweep(diag) == want
        assert _state_sum_by_slots(diag) == want


def _without_loose(link, colors):
    """(``colors`` with each colored component that crosses no colored
    strand set to 0, the product of ``delta_color`` of the colors so
    removed): a crossing-free colored circle is its projector's closure,
    and cabling it gives plain free loops."""
    crossed = set()
    for ci in range(link.diagram.n_crossings):
        pair = link.crossing_components(ci)
        if all(colors[k] for k in pair):
            crossed.update(pair)
    factor = LaurentPoly.one()
    for k, c in enumerate(colors):
        if k not in crossed:
            factor = factor * delta_color(c)
    return [c if k in crossed else 0 for k, c in enumerate(colors)], factor


def _colored_bracket_by_splicing(link, colors):
    """Slow reference for ``colored_bracket``: expand every projector of
    the crossed part, splice each combination of terms into a plain
    diagram, sweep it, sum over the product of the projector
    denominators, and multiply by the closed form of each crossing-free
    colored circle."""
    colors, loose = _without_loose(link, colors)
    cabled = cable(link, colors)
    projectors = [jones_wenzl(s.width) for s in cabled.sites]
    den = LaurentPoly.one()
    for p in projectors:
        den = den * p.den
    total = LaurentPoly.zero()
    for combo in product(*(p.terms.items() for p in projectors)):
        num = LaurentPoly.one()
        for _, coeff in combo:
            num = num * coeff
        assignments = [(s, t.pairs) for s, (t, _) in zip(cabled.sites, combo)]
        total = total + num * bracket(splice(cabled, assignments))
    return RatFunc(loose * total, den)


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
                plain = splice(cabled, [(s, t.pairs) for s, t in zip(sites, combo)])
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
    # _arc_numbers is the first call of the state sum after its caps
    def fail(*args, **kwargs):
        raise AssertionError("the state sum ran before the free-loop cap")
    monkeypatch.setattr("skeinlab.bracket._arc_numbers", fail)
    with pytest.raises(DiagramTooLargeError, match="free loops"):
        bracket_state_sum(PlanarDiagram((), FREE_LOOP_CAP + 1))


def _split_union(diagrams) -> PlanarDiagram:
    """Side-by-side union, arc labels made distinct per copy."""
    crossings = [
        Crossing(*((i, label) for label in c[:4]), c.over)
        for i, d in enumerate(diagrams) for c in d.crossings
    ]
    return PlanarDiagram(tuple(crossings), sum(d.free_loops for d in diagrams))


def test_state_sum_walks_a_deep_split_union(hopf):
    # 8 Hopf links and 3 free loops: 16 crossings, the deepest walk here
    union = _split_union([hopf.diagram] * 8 + [PlanarDiagram((), 3)])
    got = bracket_state_sum(union)
    assert got == bracket_state_sum(hopf.diagram) ** 8 * delta ** 3
    assert got == bracket_tangle_sweep(union)


def test_state_sum_matches_fresh_union_find_per_state(rng, monkeypatch):
    # up to 10 crossings keeps the per-state reference quick; the walk's
    # depth is covered by the split union above
    monkeypatch.setattr("skeinlab.verify.BRAID_MAX_CROSSINGS", 10)
    for _ in range(40):
        diag = random_braid_closure(rng).diagram
        diag = PlanarDiagram(diag.crossings, diag.free_loops + rng.randrange(3))
        assert bracket_state_sum(diag) == _state_sum_by_slots(diag)


def test_sweep_decodes_a_wide_split_union(hopf):
    # 12 Hopf links and a trefoil: the bracket is the product of the
    # parts, with coefficients of both signs across 41 exponents
    trefoil = braid_closure([1, 1, 1], 2)
    want = bracket_state_sum(hopf.diagram) ** 12 * bracket_state_sum(trefoil)
    coeffs = [c for _, c in want.items()]
    assert len(coeffs) == 41 and min(coeffs) < 0 < max(coeffs)
    assert max(map(abs, coeffs)) > 2 ** 20
    assert bracket_tangle_sweep(_split_union([hopf.diagram] * 12 + [trefoil])) == want


def _shuffled(rng):
    """Box orders drawn uniformly at random."""
    return lambda legs: rng.sample(range(len(legs)), len(legs))


def _greedy_shuffled(rng):
    """The greedy order of the boxes relabelled at random, so that its
    ties break differently from ``_sweep_order``'s lowest index."""
    def pick(legs):
        perm = rng.sample(range(len(legs)), len(legs))
        return [perm[i] for i in _sweep_order([legs[p] for p in perm])]
    return pick


def test_sweep_is_order_independent(rng, monkeypatch):
    # slots are handed on in whatever order the boxes close their arcs
    diagrams = [random_braid_closure(rng).diagram for _ in range(30)] + _torus_splices()
    with monkeypatch.context() as m:
        m.setattr("skeinlab.bracket._sweep_order", _shuffled(rng))
        for diag in diagrams:
            want = bracket_state_sum(diag)
            for _ in range(3):
                assert bracket_tangle_sweep(diag) == want


def test_cabled_sweep_is_order_independent(rng, monkeypatch):
    # every torus colouring with colours <= 2; fully random orders on the
    # small ones, shuffled greedy ties on the rest
    for a in range(3):
        link = _torus_presentation(a).link
        for colors in product(range(3), repeat=link.n_components):
            cabled = cable(link, list(colors))
            want = bracket_tangle_sweep(cabled)
            small = len(cabled.crossings) <= 8
            with monkeypatch.context() as m:
                m.setattr("skeinlab.bracket._sweep_order",
                          (_shuffled if small else _greedy_shuffled)(rng))
                for _ in range(2):
                    assert bracket_tangle_sweep(cabled) == want


def test_sweep_field_width_follows_the_order(hopf):
    # nine Hopf links, the first crossing of each before any second one:
    # all 36 arcs are open at once, more than the greedy order ever holds
    union = _split_union([hopf.diagram] * 9)
    legs = _box_legs(union)
    order = list(range(0, 18, 2)) + list(range(1, 18, 2))
    assert len({a for b in order[:9] for a in legs[b]}) == 36
    states = [_CROSSING_STATES[c.over] for c in union.crossings]
    assert LaurentPoly(_sweep(legs, states, order)) == bracket_state_sum(hopf.diagram) ** 9


def test_sweep_digit_width_holds_the_most_loops():
    # one box, w arcs each with both ends on it, one state closing all of
    # them: delta^w, whose middle coefficient C(w, w/2) needs nearly all
    # of the 2^L loop factor, L = (w arcs + w at one box) / 2
    w = 12
    legs = [[q // 2 for q in range(2 * w)]]
    state = (tuple((2 * i, 2 * i + 1) for i in range(w)), ((0, 1),))
    assert LaurentPoly(_sweep(legs, [[state]], [0])) == delta ** w


def test_sweep_rejects_mixed_residues():
    # one 2-leg box closing arc 0 into a loop
    loop = ((0, 1),)
    with pytest.raises(SkeinError, match="mod 4"):
        _sweep([[0, 0]], [[(loop, ((0, 1), (1, 1)))]], [0])
    with pytest.raises(SkeinError, match="mod 4"):
        _sweep([[0, 0]], [[(loop, ((0, 1),)), (loop, ((1, 1),))]], [0])
    # (1 - A^4) * delta, the A^2 terms cancelling across the two states
    assert _sweep([[0, 0]], [[(loop, ((0, 1),)), (loop, ((4, -1),))]], [0]) == {-2: -1, 6: 1}


def test_state_sum_cap():
    big = braid_closure([1] * 21, 2)
    with pytest.raises(DiagramTooLargeError):
        bracket_state_sum(big)


@pytest.fixture
def narrow_sweep(monkeypatch):
    """A sweep cost cap of 2, one crossing, and an empty memo: the memo
    is not keyed by the cap, so a cached result would skip the check."""
    monkeypatch.setattr("skeinlab.bracket.SWEEP_MAX_COST", 2)
    monkeypatch.setattr("skeinlab.bracket._sweep_memo", {})


def test_sweep_width_cap(borromean, narrow_sweep):
    with pytest.raises(SliceWidthError):
        bracket_tangle_sweep(borromean.diagram)


@pytest.fixture
def no_projectors(monkeypatch):
    def fail(n):
        raise AssertionError(f"jones_wenzl({n}) built before the cost check")

    monkeypatch.setattr("skeinlab.bracket.jones_wenzl", fail)
    monkeypatch.setattr("skeinlab.bracket._sweep_memo", {})


def test_sweep_width_checked_before_projectors(no_projectors):
    # d = 6, a = 2: the widest colouring's greedy order (36 open arcs at
    # its peak) has a predicted cost of 5.6e10, over the cap, which must
    # be found before any projector is built
    with pytest.raises(SliceWidthError):
        torus_invariant(2, EvalPoint(6, 1))


def test_sweep_cost_checked_before_projectors(hopf, no_projectors):
    # hopf (7, 7) peaks at only 22 open arcs, yet its predicted cost is
    # 2.9e7, 27 times that of (6, 6), which finishes in seconds
    with pytest.raises(SliceWidthError):
        colored_bracket(hopf, (7, 7))


def test_sweep_rejects_open_arcs():
    # each arc label occurs once, so no crossing ever closes one
    with pytest.raises(SkeinError, match="open arcs survived"):
        bracket_tangle_sweep(PlanarDiagram((Crossing(0, 1, 2, 3, 0),)))


# -- Temperley-Lieb layer -------------------------------------------------------


def test_tl_element_closure_of_identity():
    for n in range(4):
        assert TLElement.identity_element(n).closure() == RatFunc(delta ** n)


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
    assert jones_wenzl(n).closure() == RatFunc(quantum_integer(n + 1) * sign)


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


def test_colored_hopf_beside_a_free_circle():
    # components 0 and 1 clasp; component 2 crosses nothing, so its
    # projector closes on itself beside the swept clasp
    link = FramedLink(braid_closure([1, 1], 3))
    for i, a, c in product(range(3), repeat=3):
        want = hopf_eval(i, a) * delta_color(c)
        assert colored_bracket(link, (i, a, c)) == RatFunc(want), (i, a, c)
        for sign in (1, -1):
            p = EvalPoint(3, sign)
            assert colored_bracket(link, (i, a, c), point=p) == evaluate_at(want, p)


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


def test_colored_bracket_width_cap_after_a_hit(borromean, request):
    # every memo that can skip a sweep lives in _sweep_memo, which the
    # fixture empties
    colored_bracket(borromean, (2, 2, 2))
    request.getfixturevalue("narrow_sweep")
    with pytest.raises(SliceWidthError):
        colored_bracket(borromean, (2, 2, 2))


def _swept_colored_bracket(link, colors):
    """``colored_bracket`` by one unmemoized sweep of the cabled crossed
    part, over the product of its projector denominators, times the
    closed form of each crossing-free colored circle."""
    colors, loose = _without_loose(link, colors)
    cabled = cable(link, colors)
    den = LaurentPoly.one()
    for site in cabled.sites:
        den = den * jones_wenzl(site.width).den
    return RatFunc(loose * bracket_tangle_sweep(cabled), den)


def test_colored_bracket_is_one_sweep_per_orbit(borromean, hopf, monkeypatch):
    # each coloring, least in its orbit or not, against a sweep of its
    # own; every link shares one memo, so a false merge across links fails
    monkeypatch.setattr("skeinlab.bracket._sweep_memo", {})
    pres = _torus_presentation(0)
    (meridian,) = pres.extra_colors
    links = [borromean, hopf, FramedLink(braid_closure([1, 2] * 3, 3)),
             FramedLink(braid_closure([-1, 2] * 3, 3)), FramedLink(braid_closure([1, 1, 3, 3], 4))]
    links += [unknot_fixture(k) for k in (1, -1, 2, -2)]
    cases = [(link, c) for link in links for c in product(range(3), repeat=link.n_components)]
    for c in product(range(3), repeat=3):
        for a in range(2):
            colors = list(c)
            colors.insert(meridian, a)
            cases.append((pres.link, tuple(colors)))
    for link, colors in cases:
        assert colored_bracket(link, colors) == _swept_colored_bracket(link, colors), colors


def test_colored_bracket_looks_up_before_cabling(borromean, hopf, monkeypatch):
    # rotated Borromean colorings share a key, and so do the Hopf link and
    # an unknot with a meridian, which are one diagram
    monkeypatch.setattr("skeinlab.bracket._sweep_memo", {})
    clasped = attach_meridian(unknot_fixture(0), 0, 2).link
    cases = [((borromean, (1, 2, 2)), [(borromean, (2, 1, 2)), (borromean, (2, 2, 1))]),
             ((hopf, (1, 2)), [(clasped, (1, 2))])]
    wants = [colored_bracket(*first) for first, _ in cases]

    def no_cable(*args):
        raise AssertionError("cabled on a memo hit")

    monkeypatch.setattr("skeinlab.bracket.cable", no_cable)
    for want, (_, hits) in zip(wants, cases):
        for link, colors in hits:
            assert colored_bracket(link, colors) == want


def test_torus_sweep_count(monkeypatch):
    # d = 3, a = 0 has 27 colorings, with the meridian colored 0.  The
    # rotations and the half turn that swaps two components permute the
    # components freely, so a key is a multiset of colors: the 8 colorings
    # with full support give 4 keys.  One component alone is a round
    # unknot: 6 colorings, 2 keys.  The three Borromean pairs are rotations
    # of each other, and the half turn swaps a pair's colors: 12
    # colorings, 3 keys.  The empty coloring is one more sweep.  At d = 4
    # the same count reads 10 + 3 + 6 + 1
    swept = []

    def counted(diag):
        swept.append(diag)
        return bracket_tangle_sweep(diag)

    monkeypatch.setattr("skeinlab.bracket.bracket_tangle_sweep", counted)
    for d, count in ((3, 10), (4, 20)):
        monkeypatch.setattr("skeinlab.bracket._sweep_memo", {})
        swept.clear()
        assert torus_invariant(0, EvalPoint(d, 1)) == meridian_series(0, EvalPoint(d, 1))
        assert len(swept) == count, d


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
