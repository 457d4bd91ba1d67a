import math
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from hypcollar import hypgeom as hg


def same_float(x, y, tol=1e-10):
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def test_collar_width_against_high_precision():
    mpmath.mp.dps = 40
    for x in (0.1, 0.5, 1.0, 2.0, 5.0, 12.0):
        want = float(mpmath.asinh(1 / mpmath.sinh(x)))
        assert same_float(hg.collar_width(x), want, 1e-14)


def test_collar_width_involution():
    for i in range(200):
        x = 10 ** (-3 + 4.5 * i / 199)  # 1e-3 .. ~30
        r = hg.collar_width(x)
        assert abs(math.sinh(r) * math.sinh(x) - 1.0) < 1e-10
        assert same_float(hg.collar_width(r), x)


def test_collar_width_overflow_safe():
    # sinh overflows past ~710; the guard keeps the result finite and tiny
    r = hg.collar_width(705.0)
    assert 0.0 < r < 1e-300
    assert r == 2.0 * math.exp(-705.0)
    assert same_float(hg.collar_width(r), 705.0, 1e-9)


@pytest.mark.parametrize("x", [1e-310, 5e-324])
def test_collar_width_subnormal(x):
    # 1/sinh x overflows below 1/DBL_MAX; the result is ln 2 - ln x
    mpmath.mp.dps = 40
    want = float(mpmath.asinh(1 / mpmath.sinh(mpmath.mpf(x))))
    assert same_float(hg.collar_width(x), want, 1e-15)


def test_eta_length_values():
    mpmath.mp.dps = 40
    # finite opposite boundary
    want = float(mpmath.atanh(mpmath.tanh(1) / mpmath.cosh(2)))
    assert same_float(hg.eta_length(4.0, 1.0), want, 1e-14)
    # degenerate opposite boundary
    want = float(mpmath.asinh(1 / mpmath.sinh(1)))
    assert same_float(hg.eta_length(2.0, math.inf), want, 1e-14)


def test_eta_degenerate_matches_half_collar_width():
    # when the opposite boundary degenerates, r(eta) = l_alpha / 2
    for l in (0.5, 1.0, 3.0, 8.0, 20.0):
        eta = hg.eta_length(l, math.inf)
        assert same_float(hg.collar_width(eta), 0.5 * l)


def test_eta_monotone_in_gamma():
    vals = [hg.eta_length(3.0, g) for g in (0.25, 0.5, 1.0, 2.0, math.inf)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_standard_half_collar_lambda():
    mpmath.mp.dps = 40
    for l in (0.3, 1.0, 2.0, 4.0):
        want = float(mpmath.atan(1 / mpmath.sinh(l / 2)) / l)
        assert same_float(hg.standard_half_collar_lambda(l), want, 1e-14)
    # asymptotics
    assert abs(hg.standard_half_collar_lambda(40.0) * 40.0 * math.exp(20.0) - 2.0) < 1e-8
    assert abs(hg.standard_half_collar_lambda(1e-6) * 1e-6 - math.pi / 2) < 1e-5
    # normal up to l = 1403.685, then past the float range of normal numbers
    assert hg.standard_half_collar_lambda(1403.0) >= sys.float_info.min
    with pytest.raises(OverflowError, match="^the standard half-collar's lambda "
                       "at l_alpha = 1440 cannot be computed within the range "
                       "of normal floats$"):
        hg.standard_half_collar_lambda(1440.0)


@given(st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_normalize_twist_range_and_congruence(t):
    u = hg.normalize_twist(t)
    assert -0.5 < u <= 0.5
    # exact: t and u differ by an integer, with no rounding
    assert (Fraction(t) - Fraction(u)).denominator == 1


def test_normalize_twist_endpoint():
    assert hg.normalize_twist(0.5) == 0.5
    assert hg.normalize_twist(-0.5) == 0.5
    assert hg.normalize_twist(1.5) == 0.5
    assert hg.normalize_twist(0.7) == pytest.approx(-0.3)


def test_normalize_twist_keeps_small_negative_twists():
    # t % 1.0 rounds before 1 is subtracted: -0.1 came back as
    # -0.09999999999999998 and -1e-20 as 0.0
    assert hg.normalize_twist(-0.1) == -0.1
    assert hg.normalize_twist(-1e-20) == -1e-20


def test_validate_twist():
    assert hg.validate_twist(0.5) == 0.5
    with pytest.raises(ValueError):
        hg.validate_twist(0.7)
    with pytest.raises(ValueError):
        hg.validate_twist(-0.5)


def test_domain_errors():
    with pytest.raises(ValueError):
        hg.collar_width(0.0)
    with pytest.raises(ValueError):
        hg.collar_width(math.inf)
    with pytest.raises(ValueError):
        hg.eta_length(math.inf, 1.0)
    with pytest.raises(ValueError):
        hg.eta_length(-1.0, 1.0)
