import mpmath
import pytest

from skeinlab.algebra import (
    CycloNum,
    EvalPoint,
    LaurentPoly,
    RatFunc,
    delta_color,
    evaluate_at,
    quantum_integer,
)
from skeinlab.errors import ColorRangeError, SkeinError
from skeinlab.recoupling import (
    dim_v_torus,
    hopf_eval,
    meridian_eigenvalue,
    meridian_series,
    omega_data,
    twist_coefficient,
)


def test_hopf_eval_values():
    assert hopf_eval(0, 0) == LaurentPoly.one()
    assert hopf_eval(1, 1) == quantum_integer(4)
    for i in range(6):
        assert hopf_eval(i, 0) == delta_color(i)
    for i in range(5):
        for a in range(5):
            assert hopf_eval(i, a) == hopf_eval(a, i)


def test_meridian_eigenvalue_closed_form():
    # H(i,1)/delta_i collapses to a two-term Laurent polynomial
    for i in range(31):
        ev = meridian_eigenvalue(i, 1)
        assert ev.den == LaurentPoly.one()
        assert ev.num == -(LaurentPoly.monomial(2 * i + 2)
                           + LaurentPoly.monomial(-2 * i - 2))


def test_meridian_eigenvalue_examples():
    assert meridian_eigenvalue(3, 1) == RatFunc(
        -(LaurentPoly.monomial(8) + LaurentPoly.monomial(-8))
    )
    for i in range(4):
        assert meridian_eigenvalue(i, 0) == RatFunc(LaurentPoly.one())
    # H(1,2)/delta_1 = [6]/[2]
    assert meridian_eigenvalue(1, 2) == RatFunc(quantum_integer(6), quantum_integer(2))


def test_meridian_eigenvalue_matches_the_reduced_quotient():
    for i in range(30):
        for a in range(9):
            assert meridian_eigenvalue(i, a) == RatFunc(hopf_eval(i, a), delta_color(i))


def test_meridian_eigenvalue_rejects_an_inexact_quotient(monkeypatch):
    # [3] is not a multiple of delta_color(1) = -[2]
    monkeypatch.setattr("skeinlab.recoupling.hopf_eval", lambda i, a: quantum_integer(3))
    with pytest.raises(SkeinError, match="remainder"):
        meridian_eigenvalue.__wrapped__(1, 2)


def test_meridian_series_matches_the_sum_of_evaluated_terms():
    for d in range(1, 13):
        for sign in (1, -1):
            p = EvalPoint(d, sign)
            for a in range(2 * d - 1):
                total = CycloNum.zero(d)
                for i in range(d):
                    total = total + evaluate_at(RatFunc(hopf_eval(i, a), delta_color(i)), p)
                assert meridian_series(a, p) == total, (d, sign, a)


def test_meridian_series_rejects_a_negative_color():
    with pytest.raises(ColorRangeError, match="got -1$"):
        meridian_series(-1, EvalPoint(3))


@pytest.mark.parametrize("d", [1, 2, 3, 10, 25])
@pytest.mark.parametrize("sign", [1, -1])
def test_meridian_series_closed_forms(d, sign):
    p = EvalPoint(d, sign)
    assert meridian_series(0, p).as_rational() == d
    assert meridian_series(1, p).is_one()
    assert meridian_series(2, p).as_rational() == d - 1


def test_omega_level_one_is_trivial():
    om = omega_data(1)
    assert om.weights == (LaurentPoly.one(),)
    assert om.eta() == 1
    assert om.eta_sq.is_one()


def test_omega_defining_identity():
    from skeinlab.algebra import cyclo_to_complex

    for d in (2, 3, 4):
        om = omega_data(d)
        p = EvalPoint(d, 1)
        total = CycloNum.zero(d)
        for w in om.weights:
            v = evaluate_at(w, p)
            total = total + v * v
        assert (om.eta_sq * total).is_one()
        with mpmath.workdps(35):
            assert abs(om.eta() ** 2 * cyclo_to_complex(total, 35).real - 1) < 1e-25


def test_omega_rejects_a_weight_that_is_not_palindromic(monkeypatch):
    # A^2 evaluates to zeta^2 at one sign and zeta^-2 at the other, not a
    # real number; the exact guard finds it without computing eta
    monkeypatch.setattr("skeinlab.recoupling.delta_color",
                        lambda i: LaurentPoly.monomial(2) if i else LaurentPoly.one())
    with pytest.raises(SkeinError, match="not a positive real"):
        omega_data.__wrapped__(3)


def test_omega_exact_work_runs_once_per_level():
    from skeinlab.verify import check_eta_normalization

    omega_data.cache_clear()
    assert check_eta_normalization(None, "float")["status"] == "PASS"
    info = omega_data.cache_info()
    assert (info.misses, info.currsize) == (4, 4)
    # another precision shares the exact part and still gets its digits
    eta = omega_data(3).eta(45)
    assert omega_data.cache_info().misses == 4
    with mpmath.workdps(60):
        target = 2 * mpmath.sin(2 * mpmath.pi / 7) / mpmath.sqrt(7)
        assert abs(eta - target) < mpmath.mpf(10) ** -45


def test_omega_level_two_closed_form():
    om = omega_data(2)
    with mpmath.workdps(35):
        target = 1 / mpmath.sqrt(1 + 4 * mpmath.cos(2 * mpmath.pi / 5) ** 2)
        assert abs(om.eta() - target) < mpmath.mpf(10) ** -28


def test_twist_coefficients():
    assert twist_coefficient(0) == LaurentPoly.one()
    assert twist_coefficient(1) == LaurentPoly.monomial(3, -1)
    assert twist_coefficient(2) == LaurentPoly.monomial(8)
    assert twist_coefficient(3) == LaurentPoly.monomial(15, -1)


def test_dim_v_torus_table():
    assert [dim_v_torus(c, 4) for c in range(7)] == [4, 0, 3, 0, 2, 0, 1]
    assert dim_v_torus(0, 1) == 1


def test_dim_v_torus_range_errors():
    for color in (-1, 7, 50):
        with pytest.raises(ColorRangeError):
            dim_v_torus(color, 4)
