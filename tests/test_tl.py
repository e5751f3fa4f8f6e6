"""The packed Temperley-Lieb product against the dict-loop reference."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from skeinlab.algebra import LaurentPoly, loop_weight
from skeinlab.errors import ArityError
from skeinlab.tl import (
    TLDiagram,
    TLElement,
    _partner,
    _stacked,
    _walk,
    closure_count,
    hook,
    identity,
    jones_wenzl,
)


def compose(d1: TLDiagram, d2: TLDiagram):
    """Stack d2 on top of d1; returns (diagram, closed bubble count)."""
    if d1.n != d2.n:
        raise ValueError(f"strand mismatch: {d1.n} vs {d2.n}")
    link, tops = _stacked(d2)
    pairs, bubbles = _walk(link, _partner(d1))
    # noncrossing by construction, so skip the check in TLDiagram.make
    return TLDiagram(d1.n, tuple(sorted(pairs + tops))), bubbles


def _tl_mul_reference(x: TLElement, y: TLElement) -> TLElement:
    """x * y one diagram pair and one LaurentPoly product at a time."""
    if x.n != y.n:
        raise ArityError(f"cannot compose on {x.n} and {y.n} strands")
    delta = loop_weight(1)
    powers: dict = {}  # bubbles -> delta^bubbles
    terms: dict = {}
    for da, ca in x.terms.items():
        for db, cb in y.terms.items():
            comp, bubbles = compose(da, db)
            c = ca * cb
            if bubbles:
                if bubbles not in powers:
                    powers[bubbles] = delta**bubbles
                c = c * powers[bubbles]
            terms[comp] = terms.get(comp, LaurentPoly.zero()) + c
    return TLElement(x.n, terms, x.den * y.den)


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


def test_tl_compose_arity_mismatch():
    with pytest.raises(ArityError):
        TLElement.identity_element(2) * TLElement.identity_element(3)


def _matchings(points: tuple) -> list:
    """Every noncrossing perfect matching of the points, in order."""
    if not points:
        return [()]
    first, out = points[0], []
    for j in range(1, len(points), 2):
        for inner in _matchings(points[1:j]):
            for outer in _matchings(points[j + 1:]):
                out.append(((first, points[j]),) + inner + outer)
    return out


BASIS = {n: [TLDiagram.make(n, m) for m in _matchings(tuple(range(2 * n)))] for n in range(6)}

coeffs = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-(2**70), max_value=2**70),
)
polys = st.dictionaries(st.integers(min_value=-9, max_value=9), coeffs, max_size=4).map(LaurentPoly)
even_polys = st.dictionaries(
    st.integers(min_value=-5, max_value=5).map(lambda e: 2 * e), coeffs, max_size=4
).map(LaurentPoly)


@st.composite
def tl_pairs(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    coeff = draw(st.sampled_from([polys, even_polys]))

    def element():
        chosen = draw(st.lists(st.sampled_from(BASIS[n]), unique=True, max_size=8))
        den = draw(polys.filter(lambda p: not p.is_zero()))
        return TLElement(n, {d: draw(coeff) for d in chosen}, den)

    return element(), element()


def _assert_same(got: TLElement, want: TLElement):
    """Equal field by field: den, diagram order, every coefficient dict,
    and every coefficient an int."""
    assert got.n == want.n
    assert dict(got.den.items()) == dict(want.den.items())
    assert list(got.terms) == list(want.terms)
    for d, c in want.terms.items():
        mine = dict(got.terms[d].items())
        assert mine == dict(c.items())
        assert all(type(v) is int for v in mine.values())


@given(tl_pairs())
@settings(max_examples=300, deadline=None)
def test_packed_product_matches_reference(pair):
    x, y = pair
    _assert_same(x * y, _tl_mul_reference(x, y))


@pytest.mark.parametrize("n", range(6))
def test_packed_product_on_projectors_and_hooks(n):
    e = jones_wenzl(n)
    factors = [e] + [TLElement.hook_element(n, i) for i in range(1, n)]
    for x in factors:
        for y in factors:
            _assert_same(x * y, _tl_mul_reference(x, y))


def test_packed_product_of_empty_elements():
    one = LaurentPoly.one()
    for n in range(4):
        empty = TLElement(n, {}, LaurentPoly({1: 2}))
        ident = TLElement.identity_element(n)
        for x, y in ((empty, empty), (empty, ident), (ident, empty)):
            got = x * y
            assert got.terms == {} and got.den == x.den * y.den
    assert (TLElement.identity_element(0) * TLElement.identity_element(0)).terms == {
        TLDiagram.make(0, ()): one
    }


@pytest.mark.parametrize("n", [2, 4, 6])
def test_packed_product_near_the_digit_bound(n):
    # cups * cups closes n/2 bubbles, so one pair puts C(n/2, n/4) big^2
    # into a single coefficient: 3 big^2 at n = 6, above 2 (l1 * l1)
    cups = TLDiagram.make(n, [(2 * i, 2 * i + 1) for i in range(n)])
    big = 2**61 - 1
    for poly in ({0: big}, {-3: big, 5: -big}):
        x = TLElement(n, {cups: LaurentPoly(poly)}, LaurentPoly.one())
        _assert_same(x * x, _tl_mul_reference(x, x))
        _assert_same(x * x * x, _tl_mul_reference(_tl_mul_reference(x, x), x))


def _jw_record(e: TLElement) -> str:
    rows = [f"n {e.n} den {sorted(e.den.items())}"]
    for d, c in e.terms.items():
        rows.append(f"{d.pairs} {[(x, type(v).__name__, str(v)) for x, v in sorted(c.items())]}")
    return "\n".join(rows)


# sha256 of _jw_record(jones_wenzl(n)) as built by the dict-loop product:
# the terms in key order, each coefficient with its type, and the den
JW_RECORDS = {
    0: "ac8eb2b560d2cd183570bccde152d727e12863439d2a9147e4b89afd89a1a507",
    1: "18efc9c104c21d4c35be198d1de8de176496107b0fc62410e50631e3130fcf6d",
    2: "4289ed6aa2ffdef39774d8971434e8433b2311b10a4c0fd743e9d2bcb0234d81",
    3: "31cc1d97f69145fb66121ad54e2704ba982a4a2e735ad70252f7e864bf0a2e66",
    4: "7f7824369a2cbeb36ece52ea9ded43ca82ff2a5cabe1dc6d621c9719ac7f35f5",
    5: "6412a44dc787a50c71e82d9de7219ce2a9c29fffe3857545320ab1611215f306",
    6: "58b92c71e80aa172744d1023d2b879840ebb55a76e13831566b1bce1400617b9",
    7: "951434cde52cacd72a17dfa09280184508db0840b12ce277fbb3dfa6ccd8a7f9",
}


@pytest.mark.parametrize("n", sorted(JW_RECORDS))
def test_jones_wenzl_matches_the_recorded_terms(n):
    record = _jw_record(jones_wenzl(n))
    assert hashlib.sha256(record.encode()).hexdigest() == JW_RECORDS[n]
