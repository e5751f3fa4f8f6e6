"""End-to-end acceptance: ten criteria, each with an explicit tolerance and
runtime budget.  The terminal summary hook in conftest prints one PASS/FAIL
line per criterion."""

import cmath
import subprocess
import sys
import time

from skeinlab.algebra import CycloNum, EvalPoint, LaurentPoly, evaluate_at


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def assert_within(timer: Timer, seconds: float):
    assert timer.elapsed < seconds, (
        f"runtime budget exceeded: {timer.elapsed:.2f}s >= {seconds}s"
    )


def test_criterion_01_meridian_sum_is_one():
    from skeinlab.recoupling import meridian_eigenvalue

    with Timer() as t:
        for d in range(1, 51):
            for sign in (1, -1):
                p = EvalPoint(d, sign)
                total = CycloNum.zero(d)
                for i in range(d):
                    total = total + evaluate_at(meridian_eigenvalue(i, 1), p)
                assert total.is_one(), (d, sign)
    assert_within(t, 5.0)


def test_criterion_02_series_dimensions():
    from skeinlab.recoupling import meridian_series

    with Timer() as t:
        for d in range(1, 51):
            for sign in (1, -1):
                p = EvalPoint(d, sign)
                assert meridian_series(0, p).as_rational() == d
                assert meridian_series(2, p).as_rational() == d - 1
    assert_within(t, 5.0)


def test_criterion_03_surgery_pipeline():
    from skeinlab.recoupling import meridian_series
    from skeinlab.wrt import torus_invariant

    cases = [(a, d) for d in (2, 3, 4) for a in (0, 1, 2)]
    with Timer() as t:
        for a, d in cases:
            for sign in (1, -1):
                p = EvalPoint(d, sign)
                assert torus_invariant(a, p, mode="exact") == \
                    meridian_series(a, p), (a, d, sign)
    assert_within(t, 600.0)


def test_criterion_04_s1xs2_normalization():
    from skeinlab.diagrams import SurgeryPresentation, unknot_fixture
    from skeinlab.wrt import wrt_invariant

    with Timer() as t:
        for d in range(2, 6):
            pres = SurgeryPresentation(unknot_fixture(0), {})
            value = wrt_invariant(pres, EvalPoint(d, 1), mode="float")
            assert abs(value - 1) < 1e-9, d
    assert_within(t, 1.0)


def test_criterion_05_eigenvalue_polynomials():
    from skeinlab.algebra import delta_color
    from skeinlab.recoupling import hopf_eval

    with Timer() as t:
        for i in range(31):
            eigen = LaurentPoly.monomial(2 * i + 2, -1) + \
                LaurentPoly.monomial(-2 * i - 2, -1)
            assert hopf_eval(i, 1) == delta_color(i) * eigen, i
    assert_within(t, 1.0)


def test_criterion_06_recoloring():
    from skeinlab.wrt import recolor_check

    with Timer() as t:
        for d in range(2, 26):
            for sign in (1, -1):
                assert recolor_check(EvalPoint(d, sign)), (d, sign)
    assert_within(t, 5.0)


def test_criterion_07_mobius_values():
    from skeinlab.wrt import f_mobius

    with Timer() as t:
        assert f_mobius(1) == 1
        for d in range(1, 1001):
            z = cmath.exp(1j * cmath.pi / (2 * d + 1))
            assert abs(f_mobius(z) - (d - 1) / d) < 1e-12, d
            assert abs(f_mobius(z.conjugate()) - (d + 2) / (d + 1)) < 1e-12, d
    assert_within(t, 1.0)


def test_criterion_08_independence():
    from skeinlab.wrt import independence_certificate

    with Timer() as t:
        for d1 in range(1, 21):
            for d2 in range(d1 + 1, 21):
                det, independent = independence_certificate(d1, d2)
                assert det == d2 - d1 and independent, (d1, d2)
    assert_within(t, 1.0)


def test_criterion_09_property_suite():
    from skeinlab.verify import (
        check_colored_closed_forms,
        check_jw_projectors,
        check_oracle_sweep,
    )

    with Timer() as t:
        for record in (check_oracle_sweep(None),
                       check_jw_projectors(None),
                       check_colored_closed_forms(None)):
            assert record["status"] == "PASS", record
    assert_within(t, 120.0)


def test_criterion_10_determinism():
    cmd = [sys.executable, "-m", "skeinlab.cli", "verify-paper"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0, first.stdout.decode()[-2000:]
    assert second.returncode == 0
    assert first.stdout == second.stdout
