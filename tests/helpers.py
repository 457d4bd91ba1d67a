"""Constructions that only the tests use: a smooth graph pair, a pair with
both axes scaled, the closed-form vertical modulus of the half-collar
envelope, and an oracle solve at a single mesh."""

import math

import numpy as np

from hypcollar import extremal_oracle as eo
from hypcollar import graph_modulus as gm


def sinusoid_pair(offset, amplitude, period=1.0, label="sinusoid-gap"):
    """The pair f = offset + amplitude*sin(2 pi x / period), g = 0."""
    if not offset - abs(amplitude) > 0:
        raise ValueError("graphs must stay separated: offset > |amplitude|")
    w = 2.0 * math.pi / period
    return gm.PeriodicFunctionPair(
        f=lambda x: offset + amplitude * np.sin(w * x),
        g=lambda x: np.zeros_like(x, dtype=float),
        period=period, x1=0.0, x2=period, label=label,
    )


def scaled_pair(pair, s):
    """Scale both axes by s > 0 (modulus quantities are scale invariant)."""
    if not s > 0:
        raise ValueError("scale must be positive")
    F, G = pair.offsets()
    return gm.PeriodicFunctionPair(
        f=lambda x: s * pair.f(x / s),
        g=lambda x: s * pair.g(x / s),
        period=s * pair.period,
        x1=s * pair.x1,
        x2=s * pair.x2,
        breakpoints=tuple(s * b for b in pair.breakpoints),
        label=pair.label,
        F=lambda x: s * F(x / s),
        G=lambda x: s * G(x / s),
        sqrt_ends=tuple(s * e for e in pair.sqrt_ends),
    )


def half_collar_envelope_vertical_modulus(spec):
    """Closed form of the vertical modulus of the half-collar envelope pair."""
    l = spec.l_alpha
    return 4.0 * (1.0 - math.exp(-0.5 * l)) * math.exp(spec.r_eta)


def solve_at(dom, h):
    """The oracle's solve on the domain's own lattice and hierarchy at mesh
    h: the energy, the potential and the PCG iterations."""
    cls = eo._lattice(dom, h)
    wrap = dom.periodic_x is not None
    return eo._solve(cls, wrap, eo._transfers(cls, wrap), h)[:3]
