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

from ._lazy import numpy as np

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
    shifted into the window by periodicity.  Each (integrand, piece) is one
    tree of a single adaptive-Simpson forest per pair, and each level of the
    forest evaluates F and G once; ``sandwich_bounds`` walks the vertical
    modulus and the area together.  A failing forest raises QuadratureError
    on the first level where some tree fails, for the first failing tree in
    (integrand, piece) order.  ``sqrt_ends`` lists the points where the gap
    behaves like a constant plus a multiple of the square root of the
    distance to the point (an arcsin whose argument reaches 1 there, say);
    they are shifted and split at like the breakpoints.  On a piece
    [a, b] with one such end the integrals are taken in s over [0, 1] with
    x = end -+ (b - a) s^2, and with both ends a and b such with
    x = a + (b - a)(3 s^2 - 2 s^3); either way the integrand in s is smooth,
    where in x the quadrature would bisect some 30 levels into the end.
    """

    f: "Callable[[np.ndarray], np.ndarray]"
    g: "Callable[[np.ndarray], np.ndarray]"
    period: float
    x1: float
    x2: float
    breakpoints: tuple = ()
    label: str = ""
    F: "Optional[Callable[[np.ndarray], np.ndarray]]" = None
    G: "Optional[Callable[[np.ndarray], np.ndarray]]" = None
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
    rel_tol·scale/2^d, or within a 5e-16 relative floor that keeps deep
    refinements from chasing fp noise.  The accepted values are summed back
    up the tree, left half plus right half, as the recursive form adds them.

    With sequences a and b, and `scale` None or a sequence whose None
    entries take the default, the walk is a forest: tree k integrates over
    [a[k], b[k]], and every level of all the trees is one call of func.
    func then takes one argument, the list of the trees' point arrays
    (empty for a tree with nothing open), and returns the list of their
    float value arrays; the result is the list of the trees' integrals.
    Each tree gets the points, tolerances and sums it gets walked alone.

    Raises QuadratureError carrying the leftmost interval that fails at the
    depth cap, if the cap is reached before the estimate meets the
    tolerance; or carrying the leftmost interval split at a level whose
    next would hold more than _MAX_OPEN intervals of its tree (a NaN
    integrand, say, splits every interval at every level).  In a forest the
    first level on which some tree fails raises, for the first failing tree
    in the order given.
    """
    if np.ndim(a) == 0:
        return _walk(lambda xs: [_sample(func, xs[0])], [a], [b], rel_tol,
                     max_depth, [scale])[0]
    return _walk(func, a, b, rel_tol, max_depth,
                 [None] * len(a) if scale is None else scale)


def _walk(func, a, b, rel_tol, max_depth, scale):
    """The forest walk of adaptive_simpson."""
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    if not np.all(b > a):
        raise ValueError("integration needs b > a")
    trees = len(a)
    x = np.array([a, 0.5 * (a + b), b])
    f = np.concatenate(func(list(x.T.copy()))).reshape(trees, 3).T
    whole = (b - a) / 6.0 * (f[0] + 4.0 * f[1] + f[2])
    scale = np.array([abs(w) if s is None else s for w, s in zip(whole, scale)]) + 1e-300
    tol, floor = rel_tol * scale, 5e-16 * scale
    # the intervals open at a level, one column each, tree by tree and left
    # to right: x holds the ends and midpoint (a, m, b), f the values there,
    # and whole Simpson's estimate
    tree, counts = np.arange(trees), [1] * trees
    levels = []  # per level: the interval values, and which were split
    for depth in range(max_depth + 1):
        q = 0.5 * (x[:2] + x[1:])  # the midpoints of the halves
        # each interval's two points side by side: a tree's points are a run
        pts, ends = q.T.ravel(), np.cumsum([0] + counts) * 2
        fq = np.concatenate(func([pts[i:j] for i, j in zip(ends[:-1], ends[1:])]))
        fq = fq.reshape(-1, 2).T
        halves = (x[1:] - x[:2]) / 6.0 * (f[:2] + 4.0 * fq + f[1:])  # left, right
        pair_sum = halves[0] + halves[1]
        err = (pair_sum - whole) / 15.0
        split = ~(np.abs(err) <= np.maximum(tol, floor)[tree])
        levels.append((pair_sum + err, split))
        if not split.any():
            break
        # the intervals each tree opens on the next level
        opened = 2 * np.bincount(tree[split], minlength=trees)
        failing = opened > (0 if depth == max_depth else _MAX_OPEN)
        if failing.any():
            i = int(np.argmax(split & (tree == np.argmax(failing))))
            raise QuadratureError(float(x[0, i]), float(x[2, i]), float(pair_sum[i]))
        # per interval, its left half's column beside its right half's
        children = np.empty((7, len(tree), 2))
        children[0:3] = x[0:2].T, q.T, x[1:3].T
        children[3:6] = f[0:2].T, fq.T, f[1:3].T
        children[6] = halves.T
        children = children[:, split].reshape(7, -1)
        x, f, whole = children[0:3], children[3:6], children[6]
        tree, counts = np.repeat(tree[split], 2), opened.tolist()
        tol *= 0.5
    for (values, split), (below, _) in zip(levels[-2::-1], levels[:0:-1]):
        values[split] = below[0::2] + below[1::2]
    return levels[0][0].tolist()


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


def _substitution(pair, a, b):
    """The map s -> (x, dx/ds) over [0, 1] of a piece [a, b] with a
    square-root end (see PeriodicFunctionPair); None for a piece without."""
    at_a, at_b = _is_sqrt_end(pair, a), _is_sqrt_end(pair, b)
    h = b - a
    if at_a and at_b:
        return lambda s: (a + h * s * s * (3.0 - 2.0 * s), 6.0 * h * s * (1.0 - s))
    if at_a:
        return lambda s: (a + h * s * s, 2.0 * h * s)
    if at_b:
        return lambda s: (b - h * s * s, 2.0 * h * s)
    return None


def _integrand(pair, trees):
    """The forest integrand of `trees`, (inverse, substitution) pairs: it
    takes the list of the trees' point arrays to the list of their values of
    1/(F + G) (inverse) or F + G, times dx/ds on a substituted piece.  F and
    G are evaluated once, at the points of all the trees; overflow, division
    by zero (a zero gap) and invalid operations raise FloatingPointError."""
    F, G = pair.offsets()

    def integrand(parts):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            maps = [(s, None) if sub is None else sub(s) for (_, sub), s in zip(trees, parts)]
            x = np.concatenate([xk for xk, _ in maps])
            gap = np.asarray(F(x) + G(x), dtype=float)
            if gap.shape != x.shape:  # constant offsets may give a scalar
                gap = np.broadcast_to(gap, x.shape)
            values, start = [], 0
            for (inverse, _), (xk, jac) in zip(trees, maps):
                v = gap[start:start + len(xk)]
                start += len(xk)
                v = 1.0 / v if inverse else v
                values.append(v if jac is None else v * jac)
        return values

    return integrand


def _integrals(pair, inverse):
    """The integrals over one period of 1/(F + G), for an entry True of
    `inverse`, or of F + G, for False, from one forest walk.

    The trees are the (integrand, piece) pairs, with the pieces between the
    split points in window order.  A piece with a square-root end is walked
    in s, with the tolerance of Simpson's estimate in x: in s the Jacobian
    is 0 at the end, and where the integrand is concentrated at the other
    end (large l) the estimate in s reads about 0.  Each integral sums its
    pieces in window order.
    """
    pts = _split_points(pair)
    pieces = [(a, b, _substitution(pair, a, b)) for a, b in zip(pts[:-1], pts[1:])]
    trees = [(inv, a, b, sub) for inv in inverse for a, b, sub in pieces]
    # Simpson's estimates in x of the substituted trees, from one call
    mapped = [(inv, a, b) for inv, a, b, sub in trees if sub is not None]
    in_x = _integrand(pair, [(inv, None) for inv, _, _ in mapped])
    estimates = iter(in_x([np.array([a, 0.5 * (a + b), b]) for _, a, b in mapped])
                     if mapped else ())
    scale = []
    for _, a, b, sub in trees:
        if sub is None:
            scale.append(None)
        else:
            fa, fm, fb = next(estimates)
            scale.append(abs(float((b - a) / 6.0 * (fa + 4.0 * fm + fb))))
    values = adaptive_simpson(
        _integrand(pair, [(inv, sub) for inv, _, _, sub in trees]),
        [a if sub is None else 0.0 for _, a, _, sub in trees],
        [b if sub is None else 1.0 for _, _, b, sub in trees],
        scale=scale,
    )
    totals = [0.0] * len(inverse)
    for k, v in enumerate(values):
        totals[k // len(pieces)] += v
    return totals


def vertical_modulus(pair):
    """Modulus of the vertical segment family: integral of dx / (F + G).
    A zero gap raises FloatingPointError."""
    return _integrals(pair, (True,))[0]


def area_between(pair):
    """Area of the region between the graphs over one period."""
    return _integrals(pair, (False,))[0]


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
    lower, area = _integrals(pair, (True, False))
    return rectangle_sandwich(lower, rectangle_deviation(pair, delta), area, delta)
