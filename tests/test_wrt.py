import cmath

import pytest

from skeinlab.algebra import CycloNum, EvalPoint
from skeinlab.diagrams import (
    Crossing,
    FramedLink,
    OVER_BACK,
    OVER_SLASH,
    PlanarDiagram,
    SurgeryPresentation,
    unknot_fixture,
)
from skeinlab.errors import (
    BranchCutError,
    ColorRangeError,
    DiagramTooLargeError,
    FramingError,
    NonzeroSignatureError,
    OddEtaPowerError,
    SameParameterError,
    SliceWidthError,
)
from skeinlab.recoupling import meridian_series, omega_data
from skeinlab.wrt import (
    GammaFunction,
    f_mobius,
    gamma_tabulate,
    independence_certificate,
    recolor_check,
    torus_invariant,
    wrt_invariant,
)


def s1xs2():
    return SurgeryPresentation(unknot_fixture(0), (0,), {}, name="s1xs2")


def test_s1xs2_is_one_exactly():
    for d in (2, 3, 4, 5):
        value = wrt_invariant(s1xs2(), EvalPoint(d, 1), mode="exact")
        assert isinstance(value, CycloNum) and value.is_one()


def test_s1xs2_float_mode():
    for d in (2, 3):
        value = wrt_invariant(s1xs2(), EvalPoint(d, 1), mode="float")
        assert abs(value - 1) < 1e-9


def test_empty_presentation_gives_eta():
    empty = SurgeryPresentation(FramedLink(PlanarDiagram((), 0)), (), {}, name="s3")
    p = EvalPoint(3, 1)
    assert abs(wrt_invariant(empty, p, mode="float") - omega_data(3).eta) < 1e-25
    with pytest.raises(OddEtaPowerError):
        wrt_invariant(empty, p, mode="exact")


@pytest.mark.parametrize("a", [0, 1, 2])
def test_torus_pipeline_matches_series_level2(a):
    for sign in (1, -1):
        p = EvalPoint(2, sign)
        assert torus_invariant(a, p, mode="exact") == meridian_series(a, p)


def test_torus_pipeline_level3_color1():
    # d=3 sum has 27 colorings; keep one color here and leave the full
    # sweep to the acceptance suite
    for sign in (1, -1):
        p = EvalPoint(3, sign)
        assert torus_invariant(1, p, mode="exact") == meridian_series(1, p)
        assert torus_invariant(1, p, mode="exact").is_one()


def test_torus_trace_dimensions():
    from skeinlab.recoupling import dim_v_torus

    for d in (2, 3):
        p = EvalPoint(d, 1)
        assert torus_invariant(0, p).as_rational() == dim_v_torus(0, d)
        assert torus_invariant(2, p).as_rational() == dim_v_torus(2, d)


@pytest.fixture
def no_sweep_step(monkeypatch):
    """Fail on the first step of any sweep, so only a cap check can raise."""
    def fail(*args, **kwargs):
        raise AssertionError("a sweep step ran before the cap check failed")
    monkeypatch.setattr("skeinlab.bracket._walk", fail)


def test_preflight_width(no_sweep_step):
    # d = 6: every surgery component at color 5 with a 2-colored meridian
    # peaks at 36 open arcs in the greedy order, and at 26 from the best
    # start box, so it is above the cap of 24 in either order
    with pytest.raises(SliceWidthError):
        torus_invariant(2, EvalPoint(6, 1), mode="exact")


def test_preflight_projector_cap(no_sweep_step):
    with pytest.raises(DiagramTooLargeError):
        wrt_invariant(s1xs2(), EvalPoint(10, 1), mode="float")


def test_signature_rejection():
    kinked = SurgeryPresentation(unknot_fixture(1), (0,), {}, name="kink")
    with pytest.raises(NonzeroSignatureError):
        wrt_invariant(kinked, EvalPoint(2, 1))


def test_framing_rejection():
    # +1 and -1 kinks on two split unknots: signature zero, framings not
    two_kinks = PlanarDiagram((
        Crossing("a", "a", "b", "b", OVER_BACK),
        Crossing("c", "c", "e", "e", OVER_SLASH),
    ), 0)
    pres = SurgeryPresentation(FramedLink(two_kinks), (0, 1), {}, name="pm")
    with pytest.raises(FramingError):
        wrt_invariant(pres, EvalPoint(2, 1))


def test_extra_color_range_rejection():
    with pytest.raises(ColorRangeError):
        torus_invariant(3, EvalPoint(2, 1))


@pytest.mark.parametrize("d", [2, 3, 10, 25])
def test_recoloring(d):
    assert recolor_check(EvalPoint(d, 1))
    assert recolor_check(EvalPoint(d, -1))


def test_recoloring_needs_level_two():
    with pytest.raises(ValueError):
        recolor_check(EvalPoint(1, 1))


def test_f_mobius_values():
    assert f_mobius(1) == 1
    for d in (1, 2, 3, 100, 1000):
        assert abs(f_mobius(cmath.exp(1j * cmath.pi / (2 * d + 1))) - (d - 1) / d) < 1e-12
        assert abs(f_mobius(cmath.exp(-1j * cmath.pi / (2 * d + 1))) - (d + 2) / (d + 1)) < 1e-12


def test_f_mobius_branch_cut():
    for z in (-1, -0.5, 0, complex(-2, 0)):
        with pytest.raises(BranchCutError):
            f_mobius(z)


def test_f_disagrees_with_conjugate_ratio():
    # the ratio k2/empty is real and sign-independent, f is not: the
    # sign minus values differ at every level
    for d in range(1, 20):
        ratio = (d - 1) / d
        fm = f_mobius(cmath.exp(-1j * cmath.pi / (2 * d + 1)))
        assert abs(fm - ratio) > 1 / (2 * d * (d + 1))


def test_independence_certificate():
    assert independence_certificate(2, 3) == (1, True)
    for d in range(1, 20):
        assert independence_certificate(d, d + 1) == (1, True)
    det, independent = independence_certificate(17, 4)
    assert det == -13 and independent
    with pytest.raises(SameParameterError):
        independence_certificate(5, 5)


def test_gamma_tabulate_series():
    g = gamma_tabulate("empty", (1, 10))
    assert g.exceptions == frozenset()
    assert [g.values[d][0].as_rational() for d in range(1, 11)] == list(range(1, 11))
    ratio = gamma_tabulate("ratio", (1, 10))
    from fractions import Fraction

    assert ratio.values[4][1].as_rational() == Fraction(3, 4)


def test_gamma_equality_ignores_exceptions():
    g = gamma_tabulate("k1", (1, 8))
    punctured = GammaFunction("k1", (1, 8), dict(g.values), frozenset({3}))
    assert g == punctured
    other_window = gamma_tabulate("k1", (1, 7))
    assert g != other_window


def test_gamma_unknown_quantity():
    with pytest.raises(ValueError):
        gamma_tabulate("nonsense", (1, 3))
