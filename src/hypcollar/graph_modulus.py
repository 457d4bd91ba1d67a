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
# most intervals one level of the adaptive quadrature may hold
_MAX_OPEN = 1 << 16


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

    Each of f, g, F and G is a numpy function: it maps an array of x to the
    array of values of the same shape (a 0-d input gives a 0-d value), and
    the bounds evaluate it on whole grids.  A constant may return a scalar,
    which the bounds broadcast.

    The integrals are taken piece by piece between the breakpoints, which are
    shifted into the window by periodicity.  ``sqrt_ends`` lists the points
    where the gap behaves like a constant plus a multiple of the square root
    of the distance to the point (an arcsin whose argument reaches 1 there,
    say); they are shifted and split at like the breakpoints.  On a piece
    [a, b] with one such end the integrals are taken in s over [0, 1] with
    x = end -+ (b - a) s^2, and with both ends a and b such with
    x = a + (b - a)(3 s^2 - 2 s^3); either way the integrand in s is smooth,
    where in x the quadrature would bisect some 30 levels into the end.
    """

    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    period: float
    x1: float
    x2: float
    breakpoints: tuple = ()
    label: str = ""
    F: Optional[Callable[[np.ndarray], np.ndarray]] = None
    G: Optional[Callable[[np.ndarray], np.ndarray]] = None
    sqrt_ends: tuple = ()

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
    overestimate it; so they are not yet certified by construction.  The
    glued collar's lower bound takes the vertical modulus and the area of
    its envelope in closed form instead, and samples only the deviation
    constant.
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
        """Point summary of the interval (geometric mean of the endpoints);
        the square roots are taken apart, since the product underflows for
        l_alpha above about 705."""
        return math.sqrt(self.lower) * math.sqrt(self.upper)


def constant_pair(gap, period=1.0, label="constant-gap"):
    """The pair f = gap, g = 0."""
    if not gap > 0:
        raise ValueError("gap must be positive")
    return PeriodicFunctionPair(
        f=lambda x: np.full_like(x, gap, dtype=float),
        g=lambda x: np.zeros_like(x, dtype=float),
        period=period, x1=0.0, x2=period, label=label,
    )


def sinusoid_pair(offset, amplitude, period=1.0, label="sinusoid-gap"):
    """The pair f = offset + amplitude*sin(2 pi x / period), g = 0."""
    if not offset - abs(amplitude) > 0:
        raise ValueError("graphs must stay separated: offset > |amplitude|")
    w = 2.0 * math.pi / period
    return PeriodicFunctionPair(
        f=lambda x: offset + amplitude * np.sin(w * x),
        g=lambda x: np.zeros_like(x, dtype=float),
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
        sqrt_ends=tuple(s * e for e in pair.sqrt_ends),
    )


def _sample(func, xs):
    """func on the array xs, as a float array of its shape (a constant
    callable may return a scalar).  Overflow, division by zero and invalid
    operations raise FloatingPointError, an ArithmeticError, as the math
    module's scalar functions raise."""
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        values = np.asarray(func(xs), dtype=float)
    return values if values.shape == xs.shape else np.broadcast_to(values, xs.shape)


def adaptive_simpson(func, a, b, rel_tol=1e-8, max_depth=40, scale=None):
    """Adaptive Simpson quadrature with a tolerance relative to `scale`, by
    default |Simpson's estimate on [a, b]|.

    The bisection tree is walked one level at a time: the midpoints of the
    two halves of every interval still open at a level go to func in one
    array call.  An interval at depth d is accepted when the
    Richardson-corrected error estimate of its halves is within
    rel_tol·|whole|/2^d, or within a 5e-16 relative floor that keeps deep
    refinements from chasing fp noise.  The accepted values are summed back
    up the tree, left half plus right half, as the recursive form adds them.

    Raises QuadratureError carrying the leftmost interval that fails at the
    depth cap, if the cap is reached before the estimate meets the
    tolerance; or carrying the leftmost interval split at a level whose
    next would hold more than _MAX_OPEN intervals (a NaN integrand, say,
    splits every interval at every level).
    """
    if not b > a:
        raise ValueError("integration needs b > a")
    m = 0.5 * (a + b)
    fa, fm, fb = _sample(func, np.array([a, m, b]))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    scale = (abs(float(whole)) if scale is None else scale) + 1e-300
    tol, floor = rel_tol * scale, 5e-16 * scale
    # the intervals open at a level, left to right: ends, midpoint, the
    # values there and Simpson's estimate
    a, m, b, fa, fm, fb, whole = (np.array([v]) for v in (a, m, b, fa, fm, fb, whole))
    levels = []  # per level: the interval values, and which were split
    for depth in range(max_depth + 1):
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        fq = _sample(func, np.concatenate((lm, rm)))
        flm, frm = fq[:len(a)], fq[len(a):]
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = (left + right - whole) / 15.0
        split = ~(np.abs(err) <= max(tol, floor))
        levels.append((left + right + err, split))
        if not split.any():
            break
        n = 2 * np.count_nonzero(split)
        if depth == max_depth or n > _MAX_OPEN:
            i = int(np.argmax(split))
            raise QuadratureError(float(a[i]), float(b[i]), float(left[i] + right[i]))

        def halves(lo, hi):
            # each split interval's left half's lo beside its right half's hi
            out = np.empty(n)
            out[0::2], out[1::2] = lo[split], hi[split]
            return out

        a, m, b = halves(a, m), halves(lm, rm), halves(m, b)
        fa, fm, fb = halves(fa, fm), halves(flm, frm), halves(fm, fb)
        whole = halves(left, right)
        tol *= 0.5
    for (values, split), (below, _) in zip(levels[-2::-1], levels[:0:-1]):
        values[split] = below[0::2] + below[1::2]
    return float(levels[0][0][0])


def _split_points(pair):
    pts = [pair.x1, pair.x2]
    for b in pair.breakpoints + pair.sqrt_ends:
        # shift breakpoints into the window by periodicity
        t = pair.x1 + (b - pair.x1) % pair.period
        if pair.x1 < t < pair.x2:
            pts.append(t)
    return sorted(set(pts))


def _is_sqrt_end(pair, x):
    return any(abs(math.remainder(x - e, pair.period)) <= 1e-12 * pair.period
               for e in pair.sqrt_ends)


def _integral(pair, func):
    """Integral of func over one period, piece by piece between the split
    points; a piece with a square-root end is integrated in s (see
    PeriodicFunctionPair)."""
    total = 0.0
    pts = _split_points(pair)
    for a, b in zip(pts[:-1], pts[1:]):
        at_a, at_b = _is_sqrt_end(pair, a), _is_sqrt_end(pair, b)
        if not (at_a or at_b):
            total += adaptive_simpson(func, a, b)
            continue
        # the tolerance keeps the scale of Simpson's estimate in x: in s the
        # Jacobian is 0 at a square-root end, and where the integrand is
        # concentrated at the other end (large l) the estimate in s reads
        # about 0
        fa, fm, fb = _sample(func, np.array([a, 0.5 * (a + b), b]))
        scale = abs(float((b - a) / 6.0 * (fa + 4.0 * fm + fb)))
        h = b - a
        if at_a and at_b:
            def in_s(s):
                return func(a + h * s * s * (3.0 - 2.0 * s)) * (6.0 * h * s * (1.0 - s))
        elif at_a:
            def in_s(s):
                return func(a + h * s * s) * (2.0 * h * s)
        else:
            def in_s(s):
                return func(b - h * s * s) * (2.0 * h * s)
        total += adaptive_simpson(in_s, 0.0, 1.0, scale=scale)
    return total


def vertical_modulus(pair):
    """Modulus of the vertical segment family: integral of dx / (F + G)."""
    F, G = pair.offsets()
    # a zero gap raises FloatingPointError
    return _integral(pair, lambda x: 1.0 / (F(x) + G(x)))


def area_between(pair):
    """Area of the region between the graphs over one period."""
    F, G = pair.offsets()
    return _integral(pair, lambda x: F(x) + G(x))


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
    Fv, Gv = _sample(F, xs), _sample(G, xs)
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


def rectangle_sandwich(vertical, c, area, delta):
    """Two-sided bounds on the modulus of the full connecting family, from
    the vertical modulus, the deviation constant c = c_delta and the area A:

        mod_vertical <= mod <= (3 / c_delta^2) mod_vertical + A / delta^2
    """
    return ModulusBounds(
        lower=vertical,
        upper=3.0 / (c * c) * vertical + area / (delta * delta),
        provenance=(
            "vertical-family",
            "rectangle-sandwich(c=%.6g, delta=%.6g, area=%.6g)" % (c, delta, area),
        ),
    )


def sandwich_bounds(pair, delta):
    """The rectangle sandwich of the pair, with A the area between the
    graphs over one period."""
    lower = vertical_modulus(pair)
    c = rectangle_deviation(pair, delta)
    area = area_between(pair)
    return rectangle_sandwich(lower, c, area, delta)
