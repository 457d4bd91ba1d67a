"""Extremal distance across half-collars and glued collars.

Collar regions are described in logarithmic coordinates where the holonomy of
the core geodesic acts as x -> x + 1: a (half-)collar becomes the region
between two periodic graphs over [-1/2, 1/2], and its extremal distance is the
reciprocal of the periodic-annulus modulus, which the rectangle-sandwich of
:mod:`hypcollar.graph_modulus` brackets from both sides.
"""

import math
from dataclasses import dataclass

import numpy as np

from .hypgeom import (
    HypothesisError,
    collar_width,
    eta_length,
    validate_twist,
)
from .graph_modulus import (
    ModulusBounds,
    PeriodicFunctionPair,
    sandwich_bounds,
    vertical_modulus,
)


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
    G = arcsin(min(cosh(l x) / cosh(r(eta)), 1)) / l.
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
    )


def half_collar_envelope(spec):
    """Exponential envelope pair (f, h) with g <= h < f.

    h(x) = pi/(2l) - e^{l |x| - r(eta)} / (2l) dominates the equidistant graph
    g, so the region between f and h sits inside the half-collar, and its
    vertical modulus has the closed form 4 (1 - e^{-l/2}) e^{r(eta)}.
    """
    l = spec.l_alpha
    r = spec.r_eta
    half_pi_over_l = 0.5 * math.pi / l

    return PeriodicFunctionPair(
        f=lambda x: np.full_like(x, half_pi_over_l, dtype=float),
        g=lambda x: half_pi_over_l - _envelope(l, r, x),
        period=1.0, x1=-0.5, x2=0.5,
        breakpoints=(0.0,),
        label="half-collar-envelope(l=%g)" % l,
        F=lambda x: np.zeros_like(x, dtype=float),
        G=lambda x: _envelope(l, r, x),
    )


def half_collar_envelope_vertical_modulus(spec):
    """Closed form of the vertical modulus of the envelope pair."""
    l = spec.l_alpha
    return 4.0 * (1.0 - math.exp(-0.5 * l)) * math.exp(spec.r_eta)


def nonstandard_half_collar_lambda(spec):
    """Two-sided bounds on the extremal distance of the nonstandard half-collar.

    Requires l_alpha >= 1.  With delta = 1/l_alpha, the rectangle sandwich for
    the graph pair bounds the collar modulus, and extremal distance is its
    reciprocal: lower = 1/upper_modulus, upper = 1/vertical_modulus.
    """
    if spec.l_alpha < 1.0:
        raise HypothesisError("half-collar bounds require l_alpha >= 1")
    pair = nonstandard_half_collar_graphs(spec)
    delta = 1.0 / spec.l_alpha
    mod = sandwich_bounds(pair, delta)
    return ModulusBounds(
        lower=1.0 / mod.upper,
        upper=1.0 / mod.lower,
        provenance=("reciprocal",) + mod.provenance,
    )


def glued_collar_graphs(spec):
    """Bounding graphs of two half-collars glued with twist t.

    The upper graph is the reflected equidistant lift of the first side; the
    lower graph is the equidistant lift of the second side translated by t.
    About the midline pi/(2l) the offsets are the arcsin forms of the two
    sides, arcsin(min(u_i, 1)) / l.  The second side's offset peaks, with a
    kink, at x = t +- 1/2, which is a breakpoint with 0 and t.
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


@dataclass(frozen=True)
class GluedCollarResult:
    """Bounds and analytic proxy for the glued-collar extremal distance."""

    bounds: ModulusBounds
    proxy: float


def glued_collar_lambda(spec):
    """Two-sided bounds on the extremal distance of a glued collar.

    Requires l_alpha >= 2.  The lower bound comes from the rectangle sandwich
    applied to the envelope pair (whose region is contained in the collar);
    the upper bound is the reciprocal of the vertical modulus of the full
    graph pair.  Also returns 1 / glued_collar_proxy(spec).
    """
    if spec.l_alpha < 2.0:
        raise HypothesisError("glued-collar bounds require l_alpha >= 2")
    env = glued_collar_envelope(spec)
    delta = 1.0 / spec.l_alpha
    env_mod = sandwich_bounds(env, delta)
    full_v = vertical_modulus(glued_collar_graphs(spec))
    bounds = ModulusBounds(
        lower=1.0 / env_mod.upper,
        upper=1.0 / full_v,
        provenance=("reciprocal", "envelope-sandwich", "full-vertical")
        + env_mod.provenance,
    )
    return GluedCollarResult(bounds=bounds, proxy=1.0 / glued_collar_proxy(spec))
