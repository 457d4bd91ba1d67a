"""Extremal distance across half-collars and glued collars.

Collar regions are described in logarithmic coordinates where the holonomy of
the core geodesic acts as x -> x + 1: a (half-)collar becomes the region
between two periodic graphs over [-1/2, 1/2], and its extremal distance is the
reciprocal of the periodic-annulus modulus, which the rectangle-sandwich of
:mod:`hypcollar.graph_modulus` brackets from both sides.
"""

import math
import sys
from dataclasses import dataclass

from ._lazy import numpy as np

from .hypgeom import (
    HypothesisError,
    collar_width,
    eta_length,
    validate_twist,
)
from .graph_modulus import (
    ModulusBounds,
    PeriodicFunctionPair,
    rectangle_deviation,
    rectangle_sandwich,
    sandwich_bounds,
    vertical_modulus,
)


# the natural logarithm of the largest float
_LOG_MAX = math.log(sys.float_info.max)


def _wrap(x):
    """Reduce x modulo 1 into [-1/2, 1/2]."""
    return x - np.floor(x + 0.5)


def _lift(op, l, cr, x):
    """op(min(cosh(l x) / cr, 1)) on the period about 0.  Over l, op = arccos
    gives the equidistant lift and op = arcsin gives pi/(2l) minus that lift,
    without the cancellation."""
    return op(np.minimum(np.cosh(l * _wrap(x)) / cr, 1.0))


def _envelope(l, r, x):
    """The envelope offset e^{l |x| - r} / (2l) on the period about 0."""
    return np.exp(l * np.abs(_wrap(x)) - r) / (2.0 * l)


@dataclass(frozen=True)
class HalfCollarSpec:
    """A half-collar of a boundary geodesic alpha inside a pair of pants.

    l_alpha is the length of alpha; l_gamma the length of the opposite
    boundary (math.inf for a degenerate end is allowed).  The collar
    constraint l_gamma > r(l_alpha / 2) must hold for the nonstandard
    half-collar to embed.
    """

    l_alpha: float
    l_gamma: float

    def __post_init__(self):
        if not (0 < self.l_alpha < math.inf):
            raise ValueError("l_alpha must be finite and positive")
        if not self.l_gamma > 0:
            raise ValueError("l_gamma must be positive")
        if self.l_gamma <= collar_width(0.5 * self.l_alpha):
            raise HypothesisError(
                "collar constraint violated: need l_gamma > r(l_alpha/2) "
                "= %.6g" % collar_width(0.5 * self.l_alpha)
            )

    @property
    def eta(self):
        return eta_length(self.l_alpha, self.l_gamma)

    @property
    def r_eta(self):
        return collar_width(self.eta)


@dataclass(frozen=True)
class GluedCollarSpec:
    """Two nonstandard half-collars glued along alpha with a twist."""

    l_alpha: float
    l_gamma: float
    l_gamma2: float
    twist: float

    def __post_init__(self):
        validate_twist(self.twist)
        # validates both collar constraints
        self.side1
        self.side2

    @property
    def side1(self):
        return HalfCollarSpec(self.l_alpha, self.l_gamma)

    @property
    def side2(self):
        return HalfCollarSpec(self.l_alpha, self.l_gamma2)


def nonstandard_half_collar_graphs(spec):
    """Bounding graphs of the nonstandard half-collar in log coordinates.

    f is the horizontal line pi/(2 l); g dips below it following the lift of
    the equidistant arc, g(x) = arccos(cosh(l x) / cosh(r(eta))) / l on one
    period [-1/2, 1/2].  About the midline pi/(2l) the offsets are F = 0 and
    G = arcsin(min(cosh(l x) / cosh(r(eta)), 1)) / l.  With l_gamma = inf,
    cosh(r(eta)) = cosh(l/2), so G reaches pi/(2l) at x = +-1/2 with a
    square-root end.
    """
    l = spec.l_alpha
    cr = math.cosh(spec.r_eta)
    half_pi_over_l = 0.5 * math.pi / l

    return PeriodicFunctionPair(
        f=lambda x: np.full_like(x, half_pi_over_l, dtype=float),
        g=lambda x: _lift(np.arccos, l, cr, x) / l,
        period=1.0, x1=-0.5, x2=0.5,
        breakpoints=(0.0,),
        label="half-collar(l=%g, l_gamma=%g)" % (l, spec.l_gamma),
        F=lambda x: np.zeros_like(x, dtype=float),
        G=lambda x: _lift(np.arcsin, l, cr, x) / l,
        sqrt_ends=(0.5,) if math.isinf(spec.l_gamma) else (),
    )


def _past_float_range(l, t):
    """Whether the half-collar bounds at l_alpha = l and tanh(l_gamma) = t
    pass the float range.  With eta = atanh(t / cosh(l/2)) small, cosh r(eta)
    = coth(eta), so the integrand 1/G of the vertical modulus peaks at x = 0
    at l / arcsin(tanh(eta)), about l cosh(l/2) / t, and adaptive Simpson's
    rule adds six values of about that size."""
    return 0.5 * l + math.log(3.0 * l / t) >= _LOG_MAX


def nonstandard_half_collar_lambda(spec):
    """Two-sided bounds on the extremal distance of the nonstandard half-collar.

    Requires l_alpha >= 1.  With delta = 1/l_alpha, the rectangle sandwich for
    the graph pair bounds the collar modulus, and extremal distance is its
    reciprocal: lower = 1/upper_modulus, upper = 1/vertical_modulus.  Past
    the l_alpha at which their quadrature leaves the float range (1402.87 at
    l_gamma = inf) it raises OverflowError, naming that limit.
    """
    if spec.l_alpha < 1.0:
        raise HypothesisError("half-collar bounds require l_alpha >= 1")
    t = 1.0 if math.isinf(spec.l_gamma) else math.tanh(spec.l_gamma)
    if _past_float_range(spec.l_alpha, t):
        # the limit, by bisection: the test is monotone in l, and holds
        # from l = 2 _LOG_MAX on, as t <= 1
        lo, hi = 0.0, 2.0 * _LOG_MAX
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if _past_float_range(mid, t) else (mid, hi)
        raise OverflowError(
            "half-collar bounds take l_alpha up to %.2f at l_gamma = %g, past "
            "which their quadrature leaves the float range; got l_alpha = %g"
            % (math.floor(100.0 * lo) / 100.0, spec.l_gamma, spec.l_alpha))
    pair = nonstandard_half_collar_graphs(spec)
    delta = 1.0 / spec.l_alpha
    mod = sandwich_bounds(pair, delta)
    return ModulusBounds(lower=1.0 / mod.upper, upper=1.0 / mod.lower)


def glued_collar_graphs(spec):
    """Bounding graphs of two half-collars glued with twist t.

    The upper graph is the reflected equidistant lift of the first side; the
    lower graph is the equidistant lift of the second side translated by t.
    About the midline pi/(2l) the offsets are the arcsin forms of the two
    sides, arcsin(min(u_i, 1)) / l.  The second side's offset peaks, with a
    kink, at x = t +- 1/2, which is a breakpoint with 0 and t.  A side whose
    l_gamma is inf has a square-root end where its offset peaks: x = +-1/2
    for the first side, x = t + 1/2 for the second.
    """
    l = spec.l_alpha
    cr1 = math.cosh(spec.side1.r_eta)
    cr2 = math.cosh(spec.side2.r_eta)
    t = spec.twist

    return PeriodicFunctionPair(
        f=lambda x: (math.pi - _lift(np.arccos, l, cr1, x)) / l,
        g=lambda x: _lift(np.arccos, l, cr2, x - t) / l,
        period=1.0, x1=-0.5, x2=0.5,
        breakpoints=(0.0, t, t + 0.5),
        label="glued-collar(l=%g, t=%g)" % (l, t),
        F=lambda x: _lift(np.arcsin, l, cr1, x) / l,
        G=lambda x: _lift(np.arcsin, l, cr2, x - t) / l,
        sqrt_ends=((0.5,) if math.isinf(spec.l_gamma) else ())
        + ((t + 0.5,) if math.isinf(spec.l_gamma2) else ()),
    )


def glued_collar_envelope(spec):
    """Envelope pair (h1, h2) squeezing the glued-collar graphs.

    h1(x) = pi/(2l) + e^{l|x|}/(2l e^{r1}) <= f and
    h2(x) = pi/(2l) - e^{l|x-t|}/(2l e^{r2}) >= g,
    so the envelope region sits inside the glued collar while its gap
    k1 + k2 is a sum of two explicit exponentials.  k2 peaks at x = t +- 1/2,
    a breakpoint with 0 and t.
    """
    l = spec.l_alpha
    r1 = spec.side1.r_eta
    r2 = spec.side2.r_eta
    t = spec.twist
    half_pi_over_l = 0.5 * math.pi / l

    def k1(x):
        return _envelope(l, r1, x)

    def k2(x):
        return _envelope(l, r2, x - t)

    return PeriodicFunctionPair(
        f=lambda x: half_pi_over_l + k1(x),
        g=lambda x: half_pi_over_l - k2(x),
        period=1.0, x1=-0.5, x2=0.5,
        breakpoints=(0.0, t, t + 0.5),
        label="glued-collar-envelope(l=%g, t=%g)" % (l, t),
        F=k1,
        G=k2,
    )


def glued_envelope_vertical_modulus(spec):
    """Closed form of the vertical modulus of glued_collar_envelope(spec),
    the integral over one period of 2l dx / (e^{E_1} + e^{E_2}), where
    E_i = l |x - t_i| - r_i (t_1 = 0, t_2 = t, distances on the period).

    Between the split points 0, t and t +- 1/2 each E_i is linear with slope
    +-l.  Where the two slope alike, the denominator is one exponential, and
    the piece [a, b] gives 2 (1 - e^{-l (b - a)}) over the denominator at
    its lower end.  Where they slope opposite ways, the denominator is
    2 e^S cosh(y), with S = (E_1 + E_2)/2 constant and y = (E_1 - E_2)/2,
    and the piece gives e^{-S} |gd(y_b) - gd(y_a)|, where gd is the
    Gudermannian 2 arctan(tanh(y/2)).  The difference is taken as
    2 arctan(sinh(|y_b - y_a|/2) / cosh((y_a + y_b)/2)), which does not
    cancel when both y are large.  Overflow raises OverflowError.
    """
    l, t = spec.l_alpha, spec.twist
    r1, r2 = spec.side1.r_eta, spec.side2.r_eta
    wrap = lambda x: x - math.floor(x + 0.5)
    exponents = lambda x: (l * abs(wrap(x)) - r1, l * abs(wrap(x - t)) - r2)
    pts = sorted({-0.5, 0.0, 0.5} | {p for p in (t, t - 0.5, t + 0.5) if -0.5 < p < 0.5})
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        m = 0.5 * (a + b)
        (ea1, ea2), (eb1, eb2) = exponents(a), exponents(b)
        if (wrap(m) > 0.0) == (wrap(m - t) > 0.0):
            low1, low2 = (ea1, ea2) if wrap(m) > 0.0 else (eb1, eb2)
            total += -2.0 * math.expm1(-l * (b - a)) / (math.exp(low1) + math.exp(low2))
        else:
            ya, yb = 0.5 * (ea1 - ea2), 0.5 * (eb1 - eb2)
            s = 0.25 * (ea1 + ea2 + eb1 + eb2)
            total += 2.0 * math.exp(-s) * math.atan(
                math.sinh(0.5 * abs(yb - ya)) / math.cosh(0.5 * (ya + yb)))
    return total


def glued_envelope_area(spec):
    """Closed form of the area between the envelope graphs over one period,
    sum_i e^{-r_i} (e^{l/2} - 1) / l^2.  Overflow raises OverflowError."""
    l = spec.l_alpha
    return ((math.exp(-spec.side1.r_eta) + math.exp(-spec.side2.r_eta))
            * math.expm1(0.5 * l) / (l * l))


def glued_collar_proxy(spec):
    """Analytic proxy for 1/lambda of the glued collar: max_i e^{r_i - |t| l/2}.

    Up to a bounded factor this is the envelope vertical modulus.  The
    one-interval bounds e^{r_i - (1 - |t|) l / 2} never exceed these, since
    |t| <= 1/2.
    """
    a = abs(spec.twist)
    l = spec.l_alpha
    return max(
        math.exp(spec.side1.r_eta - 0.5 * a * l),
        math.exp(spec.side2.r_eta - 0.5 * a * l),
    )


def glued_collar_lambda(spec):
    """Two-sided bounds on the extremal distance of a glued collar.

    Requires l_alpha >= 2.  The lower bound comes from the rectangle sandwich
    of the envelope pair (whose region is contained in the collar), with its
    vertical modulus and area in closed form and only the deviation constant
    computed; the upper bound is the reciprocal of the vertical modulus of
    the full graph pair.
    """
    if spec.l_alpha < 2.0:
        raise HypothesisError("glued-collar bounds require l_alpha >= 2")
    delta = 1.0 / spec.l_alpha
    # the closed forms first: where e^{l/2} overflows they raise
    # OverflowError before the deviation grid runs
    env_v = glued_envelope_vertical_modulus(spec)
    area = glued_envelope_area(spec)
    c = rectangle_deviation(glued_collar_envelope(spec), delta)
    env_mod = rectangle_sandwich(env_v, c, area, delta)
    full_v = vertical_modulus(glued_collar_graphs(spec))
    return ModulusBounds(lower=1.0 / env_mod.upper, upper=1.0 / full_v)
