"""Closed-form hyperbolic trigonometry for pairs of pants and collars.

Lengths are plain floats.  A length of ``math.inf`` is accepted only where a
boundary curve is allowed to degenerate to a puncture/flare (the ``l_gamma``
arguments); everywhere else lengths must be finite and positive.
"""

import math
import sys

INF = math.inf


class HypothesisError(ValueError):
    """A geometric hypothesis of one of the closed-form bounds is violated."""


def _require_positive(name, x, allow_inf=False):
    if not isinstance(x, (int, float)):
        raise TypeError("%s must be a number, got %r" % (name, x))
    if math.isnan(x) or x <= 0:
        raise ValueError("%s must be positive, got %r" % (name, x))
    if math.isinf(x) and not allow_inf:
        raise ValueError("%s must be finite, got %r" % (name, x))
    return float(x)


def collar_width(x):
    """Half-width r(x) = arcsinh(1 / sinh x) of the standard collar.

    Satisfies sinh(r(x)) * sinh(x) = 1, so r is an involution.
    """
    x = _require_positive("x", x)
    if x > 700.0:
        # 1/sinh x underflows the direct route; arcsinh(t) = t + O(t^3).
        return 2.0 * math.exp(-x)
    if x < 1.0 / sys.float_info.max:
        # 1/sinh x = 1/x overflows, and so would 2/x; arcsinh(t) = ln(2 t)
        # + O(1/t^2).
        return math.log(2.0) - math.log(x)
    return math.asinh(1.0 / math.sinh(x))


def eta_length(l_alpha, l_gamma):
    """Half-length of the orthogeodesic arc eta in a pair of pants.

    eta is the shortest arc from the boundary alpha to itself separating the
    other two boundaries; its half-length satisfies
    tanh(eta) = tanh(l_gamma) / cosh(l_alpha / 2), with tanh(inf) = 1 when the
    opposite boundary degenerates.
    """
    l_alpha = _require_positive("l_alpha", l_alpha)
    l_gamma = _require_positive("l_gamma", l_gamma, allow_inf=True)
    t = 1.0 if math.isinf(l_gamma) else math.tanh(l_gamma)
    u = 0.5 * l_alpha
    if u > 700.0:
        # 1/cosh(u) = 2 e^{-u} / (1 + e^{-2u}); atanh(s) = s for tiny s.
        eta = t * 2.0 * math.exp(-u)
    else:
        eta = math.atanh(t / math.cosh(u))
    if eta == 0.0:
        raise ArithmeticError(
            "eta underflows to 0 at l_alpha = %r, l_gamma = %r" % (l_alpha, l_gamma)
        )
    return eta


def standard_half_collar_lambda(l):
    """Extremal distance across the standard half-collar of a geodesic.

    lambda(l) = arctan(1 / sinh(l/2)) / l.  Behaves like 1/(l e^{l/2}) for
    large l and like (pi/2)/l for small l.
    """
    l = _require_positive("l", l)
    u = 0.5 * l
    if u > 700.0:
        return 2.0 * math.exp(-u) / l
    return math.atan(1.0 / math.sinh(u)) / l


def normalize_twist(t):
    """Reduce a twist parameter modulo 1 into the interval (-1/2, 1/2]."""
    if not isinstance(t, (int, float)) or math.isnan(t) or math.isinf(t):
        raise ValueError("twist must be a finite number, got %r" % (t,))
    u = float(t) % 1.0
    if u > 0.5:
        u -= 1.0
    return u


def validate_twist(t):
    """Check that t already lies in the canonical interval (-1/2, 1/2]."""
    if not isinstance(t, (int, float)) or math.isnan(t) or math.isinf(t):
        raise ValueError("twist must be a finite number, got %r" % (t,))
    if not (-0.5 < t <= 0.5):
        raise ValueError("twist must lie in (-1/2, 1/2], got %r" % (t,))
    return float(t)
