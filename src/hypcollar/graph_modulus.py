"""Moduli of curve families between a pair of periodic graphs.

A ``PeriodicFunctionPair`` holds two periodic functions f > g on a window
[x1, x2] covering one period.  The modulus of the family of vertical segments
joining the graphs is the integral of 1/(f-g); the modulus of the full
connecting family is squeezed between the vertical modulus and a multiple of
it controlled by the delta-rectangle deviation constant.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


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
    """Two periodic graphs f > g over one period [x1, x2]."""

    f: Callable[[float], float]
    g: Callable[[float], float]
    period: float
    x1: float
    x2: float
    breakpoints: tuple = ()
    label: str = ""

    def __post_init__(self):
        if not (self.period > 0 and math.isfinite(self.period)):
            raise ValueError("period must be positive and finite")
        if not math.isclose(self.x2 - self.x1, self.period, rel_tol=1e-12):
            raise ValueError("window [x1, x2] must span exactly one period")

    def gap(self, x):
        return self.f(x) - self.g(x)

    def validate(self, samples=256):
        """Spot-check f > g and periodicity on a grid; raise on failure."""
        xs = self.x1 + self.period * np.arange(samples) / samples
        for x in xs:
            if not self.f(x) > self.g(x):
                raise ValueError("f <= g at x = %g" % x)
        for x in (self.x1, self.x1 + 0.3 * self.period):
            if not math.isclose(
                self.f(x), self.f(x + self.period), rel_tol=1e-9, abs_tol=1e-12
            ):
                raise ValueError("f is not periodic at x = %g" % x)
            if not math.isclose(
                self.g(x), self.g(x + self.period), rel_tol=1e-9, abs_tol=1e-12
            ):
                raise ValueError("g is not periodic at x = %g" % x)
        return True


@dataclass(frozen=True)
class ModulusBounds:
    """Certified interval for a modulus (or extremal distance)."""

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
    return PeriodicFunctionPair(
        f=lambda x: s * pair.f(x / s),
        g=lambda x: s * pair.g(x / s),
        period=s * pair.period,
        x1=s * pair.x1,
        x2=s * pair.x2,
        breakpoints=tuple(s * b for b in pair.breakpoints),
        label=pair.label,
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


def vertical_modulus(pair, rel_tol=1e-8):
    """Modulus of the vertical segment family: integral of dx / (f - g)."""
    total = 0.0
    pts = _split_points(pair)
    for a, b in zip(pts[:-1], pts[1:]):
        total += adaptive_simpson(
            lambda x: 1.0 / (pair.f(x) - pair.g(x)), a, b, rel_tol=rel_tol
        )
    return total


def area_between(pair, rel_tol=1e-8):
    """Area of the region between the graphs over one period."""
    total = 0.0
    pts = _split_points(pair)
    for a, b in zip(pts[:-1], pts[1:]):
        total += adaptive_simpson(
            lambda x: pair.f(x) - pair.g(x), a, b, rel_tol=rel_tol
        )
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


def _windowed_deviation(pair, delta, samples):
    """Grid estimate of inf_x (window-min f - window-max g) / (f - g)."""
    step = pair.period / samples
    k = int(math.ceil(delta / step))
    n_ext = samples + 2 * k + 1
    xs = pair.x1 + step * (np.arange(n_ext) - k)
    fv = np.array([pair.f(x) for x in xs])
    gv = np.array([pair.g(x) for x in xs])
    # the window about core sample i is [i - k, i + k], inside the samples
    fmin = _sliding(np.minimum, fv, 2 * k + 1)
    gmax = _sliding(np.maximum, gv, 2 * k + 1)
    core = slice(k, k + samples + 1)
    gapv = fv[core] - gv[core]
    ratio = (fmin - gmax) / gapv
    i0 = int(np.argmin(ratio))
    return float(ratio[i0]), float(xs[core][i0]), step


def _deviation_at(pair, delta, x, fine=801):
    ts = np.linspace(x - delta, x + delta, fine)
    fmin = min(pair.f(t) for t in ts)
    gmax = max(pair.g(t) for t in ts)
    return (fmin - gmax) / (pair.f(x) - pair.g(x))


_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(func, a, b, iters=48):
    c = b - _PHI * (b - a)
    d = a + _PHI * (b - a)
    fc, fd = func(c), func(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _PHI * (b - a)
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            d = a + _PHI * (b - a)
            fd = func(d)
    return min(fc, fd)


def rectangle_deviation(pair, delta, samples=4096):
    """Deviation constant c_delta of the pair.

    c_delta = inf_x m_delta(x) / (f(x) - g(x)) where m_delta(x) is the minimum
    of f minus the maximum of g over [x - delta, x + delta].  Always in (0, 1]
    for separated graphs.  Estimated on a uniform grid of `samples` points per
    period and refined around the grid minimiser by golden-section search.
    """
    if not (0 < delta):
        raise ValueError("delta must be positive")
    c_grid, x0, step = _windowed_deviation(pair, delta, samples)
    c_ref = _golden_min(lambda x: _deviation_at(pair, delta, x), x0 - step, x0 + step)
    c = min(c_grid, c_ref, 1.0)
    if not c > 0:
        raise ValueError("deviation constant is nonpositive; graphs overlap "
                         "within the delta window")
    return c


def sandwich_bounds(pair, delta, samples=4096, rel_tol=1e-8):
    """Two-sided bounds for the modulus of the full connecting family.

        mod_vertical <= mod <= (3 / c_delta^2) mod_vertical + A / delta^2

    where A is the area between the graphs over one period.
    """
    lower = vertical_modulus(pair, rel_tol=rel_tol)
    c = rectangle_deviation(pair, delta, samples=samples)
    area = area_between(pair, rel_tol=rel_tol)
    upper = 3.0 / (c * c) * lower + area / (delta * delta)
    return ModulusBounds(
        lower=lower,
        upper=upper,
        provenance=(
            "vertical-family",
            "rectangle-sandwich(c=%.6g, delta=%.6g, area=%.6g)" % (c, delta, area),
        ),
    )
