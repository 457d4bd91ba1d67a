"""Constructions that only the tests use: a smooth graph pair, a pair with
both axes scaled, the half-collar envelope pair with the closed form of its
vertical modulus, the node classes of a domain from full coordinate arrays
and of a strip from its profile, oracle solves at a single mesh, of the
whole lattice or of the part an estimate solves, and the scipy matrix of an
oracle matrix."""

import dataclasses
import math

import numpy as np

from hypcollar import collar_modulus as cm
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


def half_collar_envelope(spec):
    """Exponential envelope pair (f, h) with g <= h < f.

    h(x) = pi/(2l) - e^{l |x| - r(eta)} / (2l) dominates the equidistant graph
    g, so the region between f and h sits inside the half-collar, and its
    vertical modulus has the closed form 4 (1 - e^{-l/2}) e^{r(eta)}.
    """
    l = spec.l_alpha
    r = spec.r_eta
    half_pi_over_l = 0.5 * math.pi / l

    return gm.PeriodicFunctionPair(
        f=lambda x: np.full_like(x, half_pi_over_l, dtype=float),
        g=lambda x: half_pi_over_l - cm._envelope(l, r, x),
        period=1.0, x1=-0.5, x2=0.5,
        breakpoints=(0.0,),
        label="half-collar-envelope(l=%g)" % l,
        F=lambda x: np.zeros_like(x, dtype=float),
        G=lambda x: cm._envelope(l, r, x),
    )


def half_collar_envelope_vertical_modulus(spec):
    """Closed form of the vertical modulus of the half-collar envelope pair."""
    l = spec.l_alpha
    return 4.0 * (1.0 - math.exp(-0.5 * l)) * math.exp(spec.r_eta)


def meshgrid_classes(dom, h):
    """Node classes of a domain's lattice at mesh h, with its classes
    function called on the full (nx, ny) coordinate arrays of the lattice
    (np.meshgrid of its abscissae and ordinates): the reference for the
    oracle's call on one column and one row, broadcast."""
    def full(x, y):
        return dom.classes(*np.meshgrid(x.ravel(), y.ravel(), indexing="ij"))

    return eo._classes(dataclasses.replace(dom, classes=full), h)


def profile_classes(pair, h):
    """Node classes of the lattice of eo.strip_domain(pair, h) at its meshes
    h and h/2, from the strip profile: f and g sampled once on the lattice's
    column of abscissae, inside where g < y < f, electrode a where y >= f
    and b where y <= g, b last.  The reference for the strip's classes
    function."""
    dom = eo.strip_domain(pair, h)
    pad = 2.0 * dom.h
    x0, y0, _, y1 = dom.bbox
    y0, y1 = y0 - pad, y1 + pad
    lattices = []
    for mesh in (dom.h, 0.5 * dom.h):
        xs = x0 + mesh * np.arange(int(round(dom.periodic_x / mesh)))
        ys = y0 + mesh * np.arange(eo._steps(mesh, y1 - y0) + 1)
        F = gm._sample(pair.f, xs)[:, None]
        G = gm._sample(pair.g, xs)[:, None]
        Y = ys[None, :]
        cls = np.full((len(xs), len(ys)), eo._OUT, dtype=np.int8)
        cls[(Y > G) & (Y < F)] = eo._IN
        cls[Y >= F] = eo._A
        cls[Y <= G] = eo._B
        lattices.append(cls)
    return lattices


def solve_whole(dom, h):
    """The oracle's solve on the domain's whole lattice at mesh h, with the
    hierarchy of that lattice: the energy, the potential and the PCG
    iterations."""
    cls = eo._classes(dom, h)
    wrap = dom.periodic_x is not None
    return eo._solve(cls, wrap, eo._transfers(cls, wrap), h)[:3]


def solve_at(dom, h):
    """The oracle's solve at mesh h, dom.h or dom.h / 2, on the part of the
    lattice that an estimate of the domain solves there (eo._fold of the
    lattice at dom.h / 2, at dom.h its even-indexed nodes), with the
    hierarchy of that part alone and no start: the energy of the whole
    lattice, the part's potential and the PCG iterations.  The domain is
    refused as the oracle refuses it."""
    part, wrap, mirrors, scale = eo._fold(eo._classes(dom, 0.5 * dom.h),
                                          dom.periodic_x is not None)
    part = {dom.h: part[::2, ::2], 0.5 * dom.h: part}[h]
    energy, u, iterations, _ = eo._solve(part, wrap, eo._transfers(part, wrap),
                                         h, mirrors=mirrors)
    return scale * energy, u, iterations


def scipy_csr(mat):
    """The scipy CSR matrix on the arrays of an oracle matrix (eo._CSR, or a
    scipy CSR matrix), so that scipy's own operations can be compared with
    the oracle's."""
    from scipy import sparse

    return sparse.csr_matrix((mat.data, mat.indices, mat.indptr),
                             shape=mat.shape)
