"""Moduli of curve families between a pair of periodic graphs.

A ``PeriodicFunctionPair`` holds two periodic functions f > g on a window
[x1, x2] covering one period, written about a constant midline m as
f = m + F and g = m - G; only the offsets F and G enter the bounds, so m is
never stored.  The modulus of the family of vertical segments joining the
graphs is the integral of 1/(F+G); the modulus of the full
connecting family is squeezed between the vertical modulus and a multiple of
it controlled by the delta-rectangle deviation constant.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# grid points per period of the deviation constant's estimate
_SAMPLES = 4096


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to converge on some subinterval."""

    def __init__(self, a, b, estimate):
        self.interval = (a, b)
        self.estimate = estimate
        super().__init__(
            "adaptive quadrature did not converge on [%g, %g]" % (a, b)
        )


@dataclass(frozen=True)
class PeriodicFunctionPair:
    """Two periodic graphs f > g over one period [x1, x2].

    The bounds read only the offsets F, G >= 0 about a constant midline m,
    f = m + F and g = m - G, so the gap F + G is never the difference of two
    nearly equal numbers.  Offsets left out are taken about m = 0, F = f and
    G = -g, from the pair's current f and g.  The oracle reads f and g, which
    pairs may give in their own closed forms.
    """

    f: Callable[[float], float]
    g: Callable[[float], float]
    period: float
    x1: float
    x2: float
    breakpoints: tuple = ()
    label: str = ""
    F: Optional[Callable[[float], float]] = None
    G: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if not (self.period > 0 and math.isfinite(self.period)):
            raise ValueError("period must be positive and finite")
        if not math.isclose(self.x2 - self.x1, self.period, rel_tol=1e-12):
            raise ValueError("window [x1, x2] must span exactly one period")

    def offsets(self):
        """The offset callables (F, G); about 0 when left out."""
        return self.F or self.f, self.G or (lambda x: -self.g(x))

    def gap(self, x):
        F, G = self.offsets()
        return F(x) + G(x)


@dataclass(frozen=True)
class ModulusBounds:
    """Two-sided bounds on a modulus (or extremal distance).

    They come from adaptive quadrature, whose error is estimated locally,
    and from a deviation constant sampled on a grid, which can only
    overestimate it; so they are not yet certified by construction.
    """

    lower: float
    upper: float
    provenance: tuple = ()

    def __post_init__(self):
        if not (self.lower <= self.upper):
            raise ValueError(
                "empty bounds interval [%g, %g]" % (self.lower, self.upper)
            )

    @property
    def geometric_mean(self):
        """Point summary of the interval (geometric mean of the endpoints)."""
        return math.sqrt(self.lower * self.upper)


def constant_pair(gap, period=1.0, label="constant-gap"):
    """The pair f = gap, g = 0."""
    if not gap > 0:
        raise ValueError("gap must be positive")
    return PeriodicFunctionPair(
        f=lambda x: gap, g=lambda x: 0.0, period=period, x1=0.0, x2=period,
        label=label,
    )


def sinusoid_pair(offset, amplitude, period=1.0, label="sinusoid-gap"):
    """The pair f = offset + amplitude*sin(2 pi x / period), g = 0."""
    if not offset - abs(amplitude) > 0:
        raise ValueError("graphs must stay separated: offset > |amplitude|")
    w = 2.0 * math.pi / period
    return PeriodicFunctionPair(
        f=lambda x: offset + amplitude * math.sin(w * x),
        g=lambda x: 0.0,
        period=period, x1=0.0, x2=period, label=label,
    )


def scaled_pair(pair, s):
    """Scale both axes by s > 0 (modulus quantities are scale invariant)."""
    if not s > 0:
        raise ValueError("scale must be positive")
    F, G = pair.offsets()
    return PeriodicFunctionPair(
        f=lambda x: s * pair.f(x / s),
        g=lambda x: s * pair.g(x / s),
        period=s * pair.period,
        x1=s * pair.x1,
        x2=s * pair.x2,
        breakpoints=tuple(s * b for b in pair.breakpoints),
        label=pair.label,
        F=lambda x: s * F(x / s),
        G=lambda x: s * G(x / s),
    )


def _simpson(func, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = func(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(func, a, fa, b, fb, m, fm, whole, tol, floor, depth, max_depth):
    lm, flm, left = _simpson(func, a, fa, m, fm)
    rm, frm, right = _simpson(func, m, fm, b, fb)
    err = (left + right - whole) / 15.0
    # the floor keeps deep refinements from chasing error below fp noise
    if abs(err) <= max(tol, floor):
        return left + right + err
    if depth >= max_depth:
        raise QuadratureError(a, b, left + right)
    return _adaptive(
        func, a, fa, m, fm, lm, flm, left, 0.5 * tol, floor, depth + 1,
        max_depth,
    ) + _adaptive(
        func, m, fm, b, fb, rm, frm, right, 0.5 * tol, floor, depth + 1,
        max_depth,
    )


def adaptive_simpson(func, a, b, rel_tol=1e-8, max_depth=40):
    """Adaptive Simpson quadrature with a relative tolerance.

    Raises QuadratureError (carrying the offending subinterval) if the depth
    cap is reached before the local error estimate meets the tolerance.
    """
    if not b > a:
        raise ValueError("integration needs b > a")
    fa, fb = func(a), func(b)
    m, fm, whole = _simpson(func, a, fa, b, fb)
    scale = abs(whole) + 1e-300
    return _adaptive(
        func, a, fa, b, fb, m, fm, whole, rel_tol * scale, 5e-16 * scale, 0,
        max_depth,
    )


def _split_points(pair):
    pts = [pair.x1, pair.x2]
    for b in pair.breakpoints:
        # shift breakpoints into the window by periodicity
        t = pair.x1 + (b - pair.x1) % pair.period
        if pair.x1 < t < pair.x2:
            pts.append(t)
    return sorted(set(pts))


def vertical_modulus(pair):
    """Modulus of the vertical segment family: integral of dx / (F + G)."""
    F, G = pair.offsets()
    total = 0.0
    pts = _split_points(pair)
    for a, b in zip(pts[:-1], pts[1:]):
        total += adaptive_simpson(lambda x: 1.0 / (F(x) + G(x)), a, b)
    return total


def area_between(pair):
    """Area of the region between the graphs over one period."""
    F, G = pair.offsets()
    total = 0.0
    pts = _split_points(pair)
    for a, b in zip(pts[:-1], pts[1:]):
        total += adaptive_simpson(lambda x: F(x) + G(x), a, b)
    return total


def _sliding(op, values, width):
    """op (np.minimum or np.maximum) over every run of `width` consecutive
    values; entry j covers values[j : j + width].

    van Herk / Gil-Werman: in blocks of `width`, a window is the suffix of
    one block joined to the prefix of the next, so one forward and one
    backward accumulation per block give every window in O(n), whatever the
    width.  The edge padding only fills the last block; no window reads it.
    """
    n = len(values)
    blocks = np.pad(values, (0, -n % width), mode="edge").reshape(-1, width)
    prefix = op.accumulate(blocks, axis=1).ravel()
    suffix = op.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    return op(suffix[:n - width + 1], prefix[width - 1:n])


def _windowed_deviation(pair, delta):
    """Grid estimate of inf_x (window-min F + window-min G) / (F + G), which
    is the window-min of f minus the window-max of g over the gap."""
    step = pair.period / _SAMPLES
    k = int(math.ceil(delta / step))
    xs = pair.x1 + step * (np.arange(_SAMPLES + 2 * k + 1) - k)
    F, G = pair.offsets()
    Fv = np.array([F(x) for x in xs])
    Gv = np.array([G(x) for x in xs])
    # the window about core sample i is [i - k, i + k], inside the samples
    window = _sliding(np.minimum, Fv, 2 * k + 1) + _sliding(np.minimum, Gv, 2 * k + 1)
    core = slice(k, k + _SAMPLES + 1)
    return float(np.min(window / (Fv[core] + Gv[core])))


def rectangle_deviation(pair, delta):
    """Deviation constant c_delta of the pair.

    c_delta = inf_x m_delta(x) / (f(x) - g(x)) where m_delta(x) is the minimum
    of f minus the maximum of g over [x - delta, x + delta].  Always in (0, 1]
    for separated graphs.  Estimated on a uniform grid of 4096 points per
    period, from the offsets: m_delta is the window minimum of F plus that
    of G.
    """
    if not (0 < delta):
        raise ValueError("delta must be positive")
    c = min(_windowed_deviation(pair, delta), 1.0)
    if not c > 0:
        raise ValueError("deviation constant is nonpositive; graphs overlap "
                         "within the delta window")
    return c


def sandwich_bounds(pair, delta):
    """Two-sided bounds for the modulus of the full connecting family.

        mod_vertical <= mod <= (3 / c_delta^2) mod_vertical + A / delta^2

    where A is the area between the graphs over one period.
    """
    lower = vertical_modulus(pair)
    c = rectangle_deviation(pair, delta)
    area = area_between(pair)
    upper = 3.0 / (c * c) * lower + area / (delta * delta)
    return ModulusBounds(
        lower=lower,
        upper=upper,
        provenance=(
            "vertical-family",
            "rectangle-sandwich(c=%.6g, delta=%.6g, area=%.6g)" % (c, delta, area),
        ),
    )
