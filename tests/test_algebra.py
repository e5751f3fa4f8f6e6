import functools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from skeinlab import algebra
from skeinlab.algebra import (
    CycloNum,
    EvalPoint,
    LaurentPoly,
    RatFunc,
    _dense,
    _exact_div,
    _reduce,
    cyclo_to_complex,
    delta_color,
    evaluate_at,
    loop_weight,
    poly_gcd,
    quantum_integer,
)
from skeinlab.errors import PoleError, SkeinError, ZeroDenominatorError
from skeinlab.recoupling import hopf_eval, omega_data
from skeinlab.tl import jones_wenzl

A = LaurentPoly.gen()
one = LaurentPoly.one()


def qi(n):
    return quantum_integer(n)


# -- Laurent polynomials -------------------------------------------------------


def test_quantum_integer_small_values():
    assert qi(0).is_zero()
    assert qi(1) == one
    assert qi(2) == LaurentPoly.monomial(2) + LaurentPoly.monomial(-2)
    assert qi(4) == (LaurentPoly.monomial(6) + LaurentPoly.monomial(2)
                     + LaurentPoly.monomial(-2) + LaurentPoly.monomial(-6))


def test_quantum_integer_is_the_exact_quotient():
    # [n] (A^2 - A^-2) = A^2n - A^-2n
    for n in range(12):
        lhs = qi(n) * (LaurentPoly.monomial(2) - LaurentPoly.monomial(-2))
        rhs = LaurentPoly.monomial(2 * n) - LaurentPoly.monomial(-2 * n)
        assert lhs == rhs


@pytest.mark.parametrize("m", range(1, 31))
def test_doubling_identity(m):
    assert qi(2 * m) == qi(m) * (LaurentPoly.monomial(2 * m) + LaurentPoly.monomial(-2 * m))


def test_delta_color_values():
    assert delta_color(0) == one
    assert delta_color(1) == -(LaurentPoly.monomial(2) + LaurentPoly.monomial(-2))
    assert delta_color(2) == LaurentPoly.monomial(4) + one + LaurentPoly.monomial(-4)


def test_loop_weight_matches_repeated_products():
    # the closed binomial form against b products by -A^2 - A^-2
    delta, power = LaurentPoly({2: -1, -2: -1}), one
    for b in range(41):
        assert loop_weight(b) == power
        power = power * delta
    with pytest.raises(ValueError):
        loop_weight(-1)


def test_str_forms():
    assert str(delta_color(1)) == "-A^2 - A^-2"
    assert str(one) == "1"
    assert str(LaurentPoly.zero()) == "0"
    assert str(qi(4)) == "A^6 + A^2 + A^-2 + A^-6"


def _random_poly(rng, max_terms=6, max_exp=10):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[rng.randint(-max_exp, max_exp)] = rng.randint(-9, 9)
    return LaurentPoly(terms)


small_coeffs = st.integers(min_value=-5, max_value=5).filter(lambda c: c != 0)

polys = st.dictionaries(
    st.integers(min_value=-8, max_value=8), small_coeffs, max_size=5
).map(LaurentPoly)


@given(polys, polys, polys)
@settings(max_examples=200, deadline=None)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + LaurentPoly.zero() == f
    assert f * one == f


# -- canonical rational functions ----------------------------------------------


def test_ratfunc_canonical_examples():
    assert RatFunc(qi(2) * qi(3), qi(3)) == RatFunc(qi(2))
    r = RatFunc(one, LaurentPoly.monomial(2))
    assert r.num == LaurentPoly.monomial(-2) and r.den == one
    r = RatFunc(qi(4), qi(2))
    assert r.num == LaurentPoly.monomial(4) + LaurentPoly.monomial(-4)
    assert r.den == one


def test_ratfunc_zero_denominator():
    with pytest.raises(ZeroDenominatorError):
        RatFunc(one, LaurentPoly.zero())


def test_ratfunc_field_ops():
    half = RatFunc(one, qi(2))
    assert half + half == RatFunc(LaurentPoly.const(2), qi(2))
    assert half * qi(2) == RatFunc(one)
    assert (half / half) == RatFunc(one)
    assert RatFunc(qi(3)) - RatFunc(qi(3)) == RatFunc(LaurentPoly.zero())


def test_canonical_idempotence():
    rng = random.Random(40923)
    for _ in range(1000):
        num = _random_poly(rng)
        den = _random_poly(rng)
        if den.is_zero():
            continue
        once = RatFunc(num, den)
        twice = RatFunc(once.num, once.den)
        assert once == twice


def test_poly_gcd_divides_both():
    rng = random.Random(777)
    for _ in range(100):
        f, g = _random_poly(rng), _random_poly(rng)
        d = poly_gcd(f, g)
        if d.is_zero():
            assert f.is_zero() and g.is_zero()
            continue
        assert (RatFunc(f, d).den == one) and (RatFunc(g, d).den == one)


# -- evaluation at roots of unity ----------------------------------------------


def test_evaluate_delta1_level1_is_one():
    v = evaluate_at(delta_color(1), EvalPoint(1, 1))
    assert v.as_rational() == 1


def test_evaluate_delta1_level2_matches_cosine():
    v = cyclo_to_complex(evaluate_at(delta_color(1), EvalPoint(2, 1)))
    with mpmath.workdps(30):
        assert abs(v.real + 2 * mpmath.cos(2 * mpmath.pi / 5)) < 1e-25
        assert abs(v.imag) < 1e-25


def test_constants_are_fixed():
    for d in (1, 2, 5):
        assert evaluate_at(LaurentPoly.const(7), EvalPoint(d, -1)).as_rational() == 7


def test_root_embedding_level1():
    z = cyclo_to_complex(CycloNum.root_power(1, 1))
    assert abs(complex(z) - complex(0.5, 3 ** 0.5 / 2)) < 1e-15


def test_quantum_integer_nonvanishing_in_range():
    for d in range(1, 51):
        p = EvalPoint(d, 1)
        assert not evaluate_at(qi(d), p).is_zero()
    # and the first vanishing argument is 2d+1
    for d in (1, 2, 3, 7):
        assert evaluate_at(qi(2 * d + 1), EvalPoint(d, 1)).is_zero()


def test_pole_detection():
    d = 2
    bad = RatFunc(one, qi(2 * d + 1))
    with pytest.raises(PoleError):
        evaluate_at(bad, EvalPoint(d, 1))


def test_evaluation_is_ring_homomorphism():
    rng = random.Random(65537)
    points = [EvalPoint(d, s) for d in range(1, 11) for s in (1, -1)]
    for _ in range(1000):
        f, g = _random_poly(rng, max_terms=4, max_exp=8), _random_poly(rng, max_terms=4, max_exp=8)
        p = rng.choice(points)
        lhs = evaluate_at(f * g + f, p)
        rhs = evaluate_at(f, p) * evaluate_at(g, p) + evaluate_at(f, p)
        assert lhs == rhs


def test_evaluation_gives_ints_where_integral():
    v = evaluate_at(RatFunc(LaurentPoly({0: 1, 6: 1}), 2), EvalPoint(1))
    assert v.coeffs == (1, 0)
    assert all(type(c) is int for c in v.coeffs)
    rng = random.Random(4099)
    for _ in range(300):
        f = _random_poly(rng)
        for d in (1, 2, 3):
            pt = EvalPoint(d, rng.choice((1, -1)))
            assert all(type(c) is int for c in evaluate_at(f, pt).coeffs)
            v = evaluate_at(RatFunc(f, rng.randint(1, 7)), pt)
            assert all(type(c) is int or c.denominator != 1 for c in v.coeffs)


def test_conjugation_symmetry():
    rng = random.Random(11)
    for _ in range(200):
        f = _random_poly(rng)
        for d in (1, 2, 3):
            plus = cyclo_to_complex(evaluate_at(f, EvalPoint(d, 1)))
            minus = cyclo_to_complex(evaluate_at(f, EvalPoint(d, -1)))
            assert abs(plus.conjugate() - minus) < 1e-12


def test_cyclo_inverse_roundtrip():
    rng = random.Random(202)
    for d in (1, 2, 4, 7, 12):
        for _ in range(50):
            x = evaluate_at(_random_poly(rng), EvalPoint(d, 1))
            if x.is_zero():
                continue
            assert (x * x.inverse()).is_one()
        # zero constant term: the division first factors out a monomial
        n = 2 * (2 * d + 1)
        for k in range(1, n):
            z = CycloNum.root_power(d, k)
            assert z.inverse() == CycloNum.root_power(d, n - k)
            assert (z * z.inverse()).is_one()
        m = len(CycloNum.one(d).coeffs)
        for _ in range(10):
            low = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(m - 1))
            x = CycloNum(d, low + (Fraction(0),))
            if x.is_zero():
                continue
            zx = CycloNum(d, (Fraction(0),) + low)
            assert zx == CycloNum.root_power(d, 1) * x
            assert (zx * zx.inverse()).is_one()
            assert zx.inverse() == x.inverse() * CycloNum.root_power(d, -1)


def test_evaluate_ratfunc_with_denominator_one(monkeypatch):
    rng = random.Random(4711)
    polys = [qi(5), delta_color(3), LaurentPoly.const(-4)]
    polys += [_random_poly(rng) for _ in range(30)]

    def no_inverse(self):
        raise AssertionError("a denominator of 1 needs no inverse")

    monkeypatch.setattr(CycloNum, "inverse", no_inverse)
    for d in (1, 2, 5):
        for sign in (1, -1):
            pt = EvalPoint(d, sign)
            for p in polys:
                assert evaluate_at(RatFunc(p), pt) == evaluate_at(p, pt)


# -- int coefficients: Laurent polynomials over Z ------------------------------
# Each operation is checked against a plain dict-of-Fraction computation.

mixed_coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9).map(Fraction),
)
mixed_terms = st.dictionaries(
    st.integers(min_value=-8, max_value=8), mixed_coeffs, max_size=5
)
int_polys = st.dictionaries(
    st.integers(min_value=-8, max_value=8), st.integers(min_value=-9, max_value=9), max_size=5
).map(LaurentPoly)


def _frac(terms) -> dict:
    return {e: Fraction(c) for e, c in terms.items() if c}


def _terms(p) -> dict:
    """The terms of p as a dict, after checking that each is an int."""
    out = dict(p.items())
    assert all(type(c) is int for c in out.values())
    return out


def _ref_add(f, g) -> dict:
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def _ref_mul(f, g) -> dict:
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_polydivmod(f, g):
    """Quotient and remainder of ordinary polynomials (exponents >= 0)."""
    rem, top, quo = dict(f), max(g), {}
    while rem and max(rem) >= top:
        k = max(rem) - top
        q = quo[k] = rem[max(rem)] / g[top]
        rem = _ref_add(rem, {e + k: -q * c for e, c in g.items()})
    return quo, rem


def _ref_shifted(f) -> dict:
    """f over its lowest monomial: an ordinary polynomial with f(0) != 0."""
    return {e - min(f): c for e, c in f.items()}


def _ref_monic(f) -> dict:
    if not f:
        return {}
    lo, lead = min(f), f[max(f)]
    return {e - lo: c / lead for e, c in f.items()}


def _ref_gcd(f, g) -> dict:
    a, b = _ref_monic(f), _ref_monic(g)
    while b:
        a, b = b, _ref_monic(_ref_polydivmod(a, b)[1])
    return _ref_monic(a)


def _assert_primitive(p: LaurentPoly):
    """Coprime int coefficients, positive leading one, nonzero constant term."""
    assert p.min_exponent() == 0
    assert p.coefficient(p.max_exponent()) > 0
    assert math.gcd(*(c for _, c in p.items())) == 1


@given(mixed_terms, mixed_terms)
@settings(max_examples=300, deadline=None)
def test_mixed_coefficients_match_fraction_reference(f_terms, g_terms):
    f, g = LaurentPoly(f_terms), LaurentPoly(g_terms)
    rf, rg = _frac(f_terms), _frac(g_terms)
    assert _terms(f) == rf
    assert _terms(f + g) == _ref_add(rf, rg)
    assert _terms(f - g) == _ref_add(rf, {e: -c for e, c in rg.items()})
    assert _terms(f * g) == _ref_mul(rf, rg)
    gcd = poly_gcd(f, g)
    assert _ref_monic(_frac(_terms(gcd))) == _ref_gcd(rf, rg)
    if rf or rg:
        _assert_primitive(gcd)
    if rf and rg:
        # exact in Z[A] exactly when the Fraction quotient is integral
        # and leaves no remainder
        quo, rem = _ref_polydivmod(_ref_shifted(rf), _ref_shifted(rg))
        if rem or any(c.denominator != 1 for c in quo.values()):
            with pytest.raises(SkeinError):
                _exact_div(_dense(f), _dense(g))
        else:
            q = _exact_div(_dense(f), _dense(g))
            assert all(type(c) is int for c in q)
            assert {j: c for j, c in enumerate(q) if c} == quo
        prod = _ref_shifted(_ref_mul(rf, rg))
        q = _exact_div(_dense(f * g), _dense(g))
        assert {j: c for j, c in enumerate(q) if c} == _ref_polydivmod(prod, _ref_shifted(rg))[0]
        for e, c in rg.items():
            for n in range(1, 4):
                mono = LaurentPoly({e: g_terms[e]})
                if c in (1, -1):
                    assert _terms(mono ** -n) == {-n * e: 1 / c**n}
                else:
                    with pytest.raises(ValueError, match="units"):
                        mono ** -n


@given(int_polys, int_polys)
@settings(max_examples=100, deadline=None)
def test_integer_coefficients_stay_ints(f, g):
    for p in (f + g, f - g, f * g, -f, f ** 2):
        assert all(type(c) is int for _, c in p.items())
    if not g.is_zero():
        nums, den = _reduce([f, f * g], g)
        for p in nums + [den, poly_gcd(f, g)]:
            assert all(type(c) is int for _, c in p.items())


@functools.lru_cache(maxsize=None)
def _ref_cyclotomic(n: int) -> dict:
    phi = {n: Fraction(1), 0: Fraction(-1)}
    for k in range(1, n):
        if n % k == 0:
            phi, rem = _ref_polydivmod(phi, _ref_cyclotomic(k))
            assert not rem
    return phi


def test_cyclotomic_poly_matches_reference():
    for n in range(1, 151):
        phi = algebra._cyclotomic_poly(n)
        assert _terms(phi) == _ref_cyclotomic(n)
        assert all(type(c) is int for _, c in phi.items())


def _ref_field_rows(d: int) -> tuple:
    """(m, rows) as ``algebra._field_data`` gives them, one power at a
    time: each row is x times the row before, reduced modulo the
    2(2d+1)-th cyclotomic polynomial, for all 2(2d+1) powers."""
    n = 2 * (2 * d + 1)
    phi = algebra._cyclotomic_poly(n)
    m = phi.max_exponent()
    mod = [phi.coefficient(j) for j in range(m)]
    rows, cur = [], [1] + [0] * (m - 1)
    for _ in range(n):
        rows.append(tuple((j, c) for j, c in enumerate(cur) if c))
        top, cur = cur[-1], [0] + cur[:-1]
        for j in range(m):
            cur[j] -= top * mod[j]
    return m, tuple(rows)


def test_field_rows_match_reduce_every_power():
    # CycloNum.root_power reads these rows, so this pins it too
    for d in range(1, 61):
        assert algebra._field_data(d) == _ref_field_rows(d)


def _ref_cyclo_inverse(x: CycloNum) -> CycloNum:
    """Extended Euclid over Fraction coefficients on dicts: s x = r
    modulo the modulus, until r is a nonzero constant, whose inverse is
    exact."""
    phi = _ref_cyclotomic(2 * (2 * x.d + 1))
    r0, r1 = phi, _frac(dict(enumerate(x.coeffs)))
    s0, s1 = {}, {0: Fraction(1)}
    while max(r1) > 0:
        q, r = _ref_polydivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _ref_add(s0, {e: -c for e, c in _ref_mul(q, s1).items()})
    inv = _ref_polydivmod({e: c / r1[0] for e, c in s1.items()}, phi)[1]
    return CycloNum(x.d, tuple(inv.get(j, Fraction(0)) for j in range(max(phi))))


def _omega_sum(d: int) -> CycloNum:
    """The weight-squared sum that ``recoupling.omega_data`` inverts."""
    total = CycloNum.zero(d)
    for i in range(d):
        v = evaluate_at(delta_color(i), EvalPoint(d))
        total = total + v * v
    return total


def test_omega_eta_sq_is_the_inverse_of_the_evaluated_weight_sum():
    for d in range(1, 51):
        assert omega_data(d).eta_sq == _omega_sum(d).inverse()


def test_cyclo_inverse_matches_fraction_euclid():
    for d in range(1, 51):
        x = _omega_sum(d)
        inv = x.inverse()
        assert inv == _ref_cyclo_inverse(x)
        _assert_normalized(inv)
    rng = random.Random(5150)
    for d in (1, 2, 5, 12):
        m = len(CycloNum.one(d).coeffs)
        for _ in range(8):
            x = CycloNum(d, tuple(
                Fraction(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(m)
            ))
            if x.is_zero():
                continue
            inv = x.inverse()
            assert inv == _ref_cyclo_inverse(x)
            _assert_normalized(inv)


def test_cyclo_inverse_rejects_a_reducible_modulus(monkeypatch):
    # x^2 - 1 in place of the level-1 modulus x^2 - x + 1: z - 1 divides it
    monkeypatch.setattr(algebra, "_cyclotomic_poly", lambda n: LaurentPoly({2: 1, 0: -1}))
    with pytest.raises(SkeinError, match="E_SKEIN: .* is not invertible"):
        CycloNum(1, (-1, 1)).inverse()
    assert CycloNum(1, (2, 1)).inverse() == CycloNum(1, (Fraction(2, 3), Fraction(-1, 3)))


@pytest.mark.parametrize("a", [0, 1, 2])
def test_poly_gcd_on_meridian_eigenvalue_pairs(a):
    for i in range(50):
        f, g = hopf_eval(i, a), delta_color(i)
        assert _terms(poly_gcd(f, g)) == _ref_gcd(_frac(dict(f.items())), _frac(dict(g.items())))


def _ref_cyclo_mul(d: int, x: tuple, y: tuple) -> tuple:
    """x * y reduced modulo the 2(2d+1)-th cyclotomic polynomial."""
    phi = _ref_cyclotomic(2 * (2 * d + 1))
    prod = _ref_mul(_frac(dict(enumerate(x))), _frac(dict(enumerate(y))))
    rem = _ref_polydivmod(prod, phi)[1]
    return tuple(rem.get(j, Fraction(0)) for j in range(max(phi)))


@pytest.mark.parametrize("d", [1, 2, 5, 12])
def test_cyclo_mixed_coefficients_match_fraction_reference(d):
    rng = random.Random(1000 + d)
    m = len(CycloNum.one(d).coeffs)

    def coeff():
        kind = rng.randrange(4)
        if kind == 0:
            return 0
        if kind == 1:
            return rng.randint(-9, 9)
        if kind == 2:
            return Fraction(rng.randint(-9, 9))
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    for _ in range(20):
        x = CycloNum(d, tuple(coeff() for _ in range(m)))
        y = CycloNum(d, tuple(coeff() for _ in range(m)))
        xy = x * y
        assert all(type(c) in (int, Fraction) for c in xy.coeffs)
        assert xy.coeffs == _ref_cyclo_mul(d, x.coeffs, y.coeffs)
        if x.is_zero():
            continue
        inv = x.inverse()
        assert all(type(c) in (int, Fraction) for c in inv.coeffs)
        assert _ref_cyclo_mul(d, x.coeffs, inv.coeffs) == (1,) + (0,) * (m - 1)


cyclo_coeffs = st.one_of(
    st.just(0),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.fractions(min_value=-9, max_value=9, max_denominator=10),
    st.integers(min_value=-9, max_value=9).map(Fraction),
)


def _assert_normalized(x: CycloNum):
    """Every coefficient an int or a non-integral Fraction, never a float."""
    for c in x.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


# coefficients of absolute value at most 2**bits: 0 keeps them in {-1, 0, 1},
# 100 draws ints far wider than a machine word; None draws the mixed ints and
# fractions of `cyclo_coeffs`
@pytest.mark.parametrize("coeff_bits", [None, 0, 100])
@given(st.data())
@settings(max_examples=100, deadline=None)
def test_cyclo_mul_matches_schoolbook_reference(coeff_bits, data):
    d = data.draw(st.integers(min_value=1, max_value=12))  # 2d+1 = 9, 15, 25 are composite
    m = len(CycloNum.one(d).coeffs)
    if coeff_bits is None:
        coeffs = cyclo_coeffs
    else:
        coeffs = st.integers(min_value=-(2**coeff_bits), max_value=2**coeff_bits)
    vectors = st.lists(coeffs, min_size=m, max_size=m).map(tuple)
    x, y = CycloNum(d, data.draw(vectors)), CycloNum(d, data.draw(vectors))
    for a, b in ((x, y), (y, x), (x, CycloNum.zero(d)), (CycloNum.zero(d), y)):
        ab = a * b
        assert ab.coeffs == _ref_cyclo_mul(d, a.coeffs, b.coeffs)
        _assert_normalized(ab)


# shift 100 runs the unit checks again at exponents past the order 2(2d+1) of zeta
@pytest.mark.parametrize("shift", [0, 100])
@pytest.mark.parametrize("d", range(1, 13))
def test_cyclo_mul_of_zeros_and_units(d, shift):
    m = len(CycloNum.one(d).coeffs)
    zero, one, half = CycloNum.zero(d), CycloNum.one(d), CycloNum.from_rational(d, Fraction(1, 2))
    z = CycloNum.root_power(d, 1)
    assert (zero * zero).coeffs == (0,) * m
    assert (zero * z).coeffs == (0,) * m
    assert one * z == z
    assert (half * 2).coeffs == (1,) + (0,) * (m - 1)
    assert type((half * 2).coeffs[0]) is int
    assert z * CycloNum.root_power(d, -1) == one
    assert CycloNum.root_power(d, 2 * d + 1) == -one
    w = CycloNum.root_power(d, 1 + shift)
    assert (zero * w).coeffs == (0,) * m
    assert one * w == w
    assert w * CycloNum.root_power(d, -1 - shift) == one
    assert CycloNum.root_power(d, 2 * d + 1 + shift) == -CycloNum.root_power(d, shift)


def test_cyclo_mul_rejects_mixed_levels():
    with pytest.raises(ValueError, match="cannot mix cyclotomic numbers of different levels"):
        CycloNum.one(2) * CycloNum.one(3)
    with pytest.raises(ValueError, match="cannot mix cyclotomic numbers of different levels"):
        CycloNum.root_power(5, 1) * CycloNum.from_rational(4, Fraction(1, 3))


# -- one canonical quotient for RatFunc and TLElement --------------------------


@given(st.lists(polys, min_size=1, max_size=4), polys.filter(lambda p: not p.is_zero()))
@settings(max_examples=200, deadline=None)
def test_reduce_gives_the_canonical_quotient(nums, den):
    out_nums, out_den = _reduce(nums, den)
    assert len(out_nums) == len(nums)
    assert out_den.min_exponent() == 0
    assert out_den.coefficient(out_den.max_exponent()) > 0
    assert math.gcd(*(c for p in out_nums + [out_den] for _, c in p.items())) == 1
    g = _frac(dict(out_den.items()))
    for c in out_nums:
        g = _ref_gcd(g, _frac(dict(c.items())))
    assert g == {0: 1}
    for c, out in zip(nums, out_nums):
        assert out * den == c * out_den


def test_laurent_coefficients_are_integers():
    for c in (Fraction(1, 2), 0.5, "1"):
        with pytest.raises(TypeError):
            LaurentPoly({0: c})
    with pytest.raises(TypeError):
        one * Fraction(1, 2)
    with pytest.raises(TypeError):
        A + Fraction(1, 2)
    p = LaurentPoly({1: Fraction(6, 3), 0: Fraction(-4, 1)})
    assert _terms(p) == {1: 2, 0: -4}


def test_rational_constants_are_quotients():
    half = RatFunc(Fraction(1, 2))
    assert (half.num, half.den) == (one, LaurentPoly.const(2))
    assert half + half == RatFunc(1)
    assert RatFunc(Fraction(3, 4), Fraction(-3, 2)) == RatFunc(-1, 2) == Fraction(-1, 2)
    assert half * 2 == 1 and 1 - half == half and 1 / half == 2
    with pytest.raises(TypeError):
        RatFunc(1.5)


def test_negative_powers_only_of_units():
    with pytest.raises(ValueError, match="units"):
        (2 * A) ** -1
    with pytest.raises(ValueError, match="units"):
        (A + 1) ** -1
    assert (-A**3) ** -2 == A**-6
    assert (-A) ** -3 == -A**-3


def test_exact_div_rejects_inexact_quotients():
    assert _exact_div([-1, 0, 0, 1], [-1, 1]) == [1, 1, 1]
    with pytest.raises(SkeinError, match="not an integer"):
        _exact_div([1, 1], [1, 2])
    with pytest.raises(SkeinError, match="leaves a remainder"):
        _exact_div([1, 0, 1], [1, 1])
    with pytest.raises(SkeinError, match="leaves a remainder"):
        _exact_div([3], [1, 1])


@pytest.mark.parametrize("value", [RatFunc(1), CycloNum.one(2)], ids=["RatFunc", "CycloNum"])
@pytest.mark.parametrize("operand", [1.5, "x"], ids=["float", "str"])
@pytest.mark.parametrize("op", ["-", "/"])
def test_reflected_operators_reject_foreign_operands(value, operand, op):
    with pytest.raises(TypeError, match=r"^unsupported operand type\(s\)"):
        operand - value if op == "-" else operand / value


@pytest.mark.parametrize("n", range(7))
def test_jones_wenzl_is_in_canonical_form(n):
    e = jones_wenzl(n)
    f = e.normalized()
    assert (f.n, list(f.terms), f.terms, f.den) == (e.n, list(e.terms), e.terms, e.den)
