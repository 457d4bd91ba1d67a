import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hypcollar import collar_modulus as cm
from hypcollar import graph_modulus as gm

from helpers import scaled_pair, sinusoid_pair


def test_adaptive_simpson_known_integrals():
    v = gm.adaptive_simpson(np.exp, 0.0, 1.0, rel_tol=1e-12)
    assert abs(v - (math.e - 1.0)) < 1e-12
    v = gm.adaptive_simpson(lambda x: np.sqrt(np.abs(x)), -1.0, 1.0, rel_tol=1e-10)
    assert abs(v - 4.0 / 3.0) < 1e-9


def test_adaptive_simpson_depth_exhaustion():
    with pytest.raises(gm.QuadratureError) as exc:
        gm.adaptive_simpson(lambda x: np.sin(50.0 * x), 0.0, 10.0,
                            rel_tol=1e-13, max_depth=2)
    a, b = exc.value.interval
    assert 0.0 <= a < b <= 10.0


@pytest.mark.parametrize("coeffs", [(1.0, 0.0, 0.0, 0.0), (-3.0, 0.5, -1.0, 2.0),
                                    (0.25, 7.0, 0.0, -0.125)])
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.3, 2.1), (-2.0, 3.0)])
def test_adaptive_simpson_is_exact_on_cubics(coeffs, a, b):
    c0, c1, c2, c3 = coeffs
    cubic = lambda x: c0 + x * (c1 + x * (c2 + x * c3))
    prim = lambda x: x * (c0 + x * (c1 / 2 + x * (c2 / 3 + x * c3 / 4)))
    v = gm.adaptive_simpson(cubic, a, b, rel_tol=1e-14, max_depth=0)
    assert v == pytest.approx(prim(b) - prim(a), rel=1e-14, abs=1e-14)


def _recursive_simpson(f, a, b, rel_tol=1e-8, max_depth=40, scale=None):
    """Reference: the depth-first recursive form of the adaptive rule, one
    scalar call of f per new point."""
    def simpson(a, fa, b, fb):
        m = 0.5 * (a + b)
        fm = f(m)
        return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def walk(a, fa, b, fb, m, fm, whole, tol, floor, depth):
        lm, flm, left = simpson(a, fa, m, fm)
        rm, frm, right = simpson(m, fm, b, fb)
        err = (left + right - whole) / 15.0
        if abs(err) <= max(tol, floor):
            return left + right + err
        assert depth < max_depth
        return (walk(a, fa, m, fm, lm, flm, left, 0.5 * tol, floor, depth + 1)
                + walk(m, fm, b, fb, rm, frm, right, 0.5 * tol, floor, depth + 1))

    fa, fb = f(a), f(b)
    m, fm, whole = simpson(a, fa, b, fb)
    scale = (abs(whole) if scale is None else scale) + 1e-300
    return walk(a, fa, b, fb, m, fm, whole, rel_tol * scale, 5e-16 * scale, 0)


@pytest.mark.parametrize("name", ["exp", "sqrt-abs", "sin50", "half-collar", "glued-envelope"])
def test_level_walk_matches_the_recursive_form(name):
    # the same points, tolerances and sums: equal bit for bit
    half = cm.nonstandard_half_collar_graphs(cm.HalfCollarSpec(8.0, math.inf))
    env = cm.glued_collar_envelope(cm.GluedCollarSpec(6.0, math.inf, 2.0, 0.25))
    f, a, b = {
        "exp": (np.exp, 0.0, 1.0),
        "sqrt-abs": (lambda x: np.sqrt(np.abs(x)), -1.0, 0.7),
        "sin50": (lambda x: np.sin(50.0 * x), 0.0, 10.0),
        # 27 levels deep into the square-root end at x = 1/2
        "half-collar": (lambda x: 1.0 / half.gap(x), 0.0, 0.5),
        "glued-envelope": (env.gap, -0.5, 0.25),
    }[name]
    assert gm.adaptive_simpson(f, a, b) == _recursive_simpson(lambda x: float(f(x)), a, b)


def _simpson(f, a, b):
    m = 0.5 * (a + b)
    return (b - a) / 6.0 * (f(a) + 4.0 * f(m) + f(b))


def _failing_at_cap(f, a, b, rel_tol, max_depth):
    """Brute force: every interval of the bisection tree at depth max_depth
    whose error test fails, left to right, level by level from the root."""
    scale = abs(_simpson(f, a, b)) + 1e-300
    level = [(a, b)]
    for depth in range(max_depth + 1):
        fails = []
        for lo, hi in level:
            m = 0.5 * (lo + hi)
            err = (_simpson(f, lo, m) + _simpson(f, m, hi) - _simpson(f, lo, hi)) / 15.0
            if not abs(err) <= max(rel_tol * scale * 0.5 ** depth, 5e-16 * scale):
                fails.append((lo, hi))
        level = [half for lo, hi in fails
                 for half in ((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi))]
    return fails


@pytest.mark.parametrize("a, b, rel_tol, max_depth", [
    (0.0, 10.0, 1e-13, 2), (0.0, 10.0, 1e-13, 5),
    # the left half is accepted early: the first failure is not at a
    (0.0, 1.0, 1e-8, 3), (0.0, 1.0, 1e-8, 6), (-1.0, 2.0, 1e-6, 4),
])
def test_depth_exhaustion_reports_the_leftmost_failure(a, b, rel_tol, max_depth):
    f = lambda x: np.sin(50.0 * x)
    fails = _failing_at_cap(f, a, b, rel_tol, max_depth)
    assert fails
    with pytest.raises(gm.QuadratureError) as exc:
        gm.adaptive_simpson(f, a, b, rel_tol=rel_tol, max_depth=max_depth)
    assert exc.value.interval == fails[0]


def test_adaptive_simpson_oscillatory_and_nan_integrands():
    # 80 periods of sin(50x) converge inside the width cap (at most 26,058
    # intervals open on one level)
    v = gm.adaptive_simpson(lambda x: np.sin(50.0 * x), 0.0, 10.0, rel_tol=1e-12)
    assert v == pytest.approx((1.0 - math.cos(500.0)) / 50.0, rel=1e-13)
    # a NaN splits every interval: the walk stops at the width cap, not at
    # 2^40 intervals
    with pytest.raises(gm.QuadratureError) as exc:
        gm.adaptive_simpson(lambda x: np.full_like(x, np.nan), 0.0, 1.0)
    assert exc.value.interval == (0.0, 1.0 / gm._MAX_OPEN)


def _sin50(x):
    return np.sin(50.0 * x)


def _cubic(x):
    return 1.0 + x * (0.5 - x * x)


def _forest(funcs):
    """The forest integrand of one array function per tree."""
    return lambda parts: [np.asarray(f(x), dtype=float) for f, x in zip(funcs, parts)]


def test_forest_walks_each_tree_as_alone():
    funcs = [np.exp, _sin50, lambda x: np.sqrt(np.abs(x)), _cubic]
    a, b = [0.0, 0.0, -1.0, -2.0], [1.0, 10.0, 0.7, 3.0]
    values = gm.adaptive_simpson(_forest(funcs), a, b, scale=[None, 2.0, None, 1e-3])
    assert values == [gm.adaptive_simpson(f, lo, hi, scale=s)
                      for f, lo, hi, s in zip(funcs, a, b, [None, 2.0, None, 1e-3])]


@pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1), (2, 1, 0)])
def test_forest_raises_for_the_first_failing_tree(order):
    # the cubic is exact on the first level; both sin50 trees fail at the
    # depth cap on the same level, and the first of them in the forest names
    # its leftmost failing interval
    trees = [(_cubic, -2.0, 3.0), (_sin50, 0.0, 10.0), (_sin50, -1.0, 2.0)]
    trees = [trees[k] for k in order]
    with pytest.raises(gm.QuadratureError) as exc:
        gm.adaptive_simpson(_forest([f for f, _, _ in trees]), [a for _, a, _ in trees],
                            [b for _, _, b in trees], rel_tol=1e-13, max_depth=5)
    _, a, b = next(t for t in trees if t[0] is _sin50)
    assert exc.value.interval == _failing_at_cap(_sin50, a, b, 1e-13, 5)[0]


def test_forest_caps_the_width_per_tree():
    # sin50 converges below the cap while the NaN tree, second, reaches it
    nan = lambda x: np.full_like(x, np.nan)
    with pytest.raises(gm.QuadratureError) as exc:
        gm.adaptive_simpson(_forest([_sin50, nan]), [0.0, 0.0], [10.0, 1.0])
    assert exc.value.interval == (0.0, 1.0 / gm._MAX_OPEN)


def _reference_integral(pair, inverse):
    """The integral over one period of 1/(F + G) or F + G as the sum over
    the pieces of the recursive reference, in window order; a piece with a
    square-root end is integrated in s with the tolerance of Simpson's
    estimate in x (see PeriodicFunctionPair)."""
    F, G = pair.offsets()
    func = (lambda x: 1.0 / float(F(x) + G(x))) if inverse else (lambda x: float(F(x) + G(x)))
    pts = gm._split_points(pair)
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        at_a, at_b = gm._is_sqrt_end(pair, a), gm._is_sqrt_end(pair, b)
        h = b - a
        if at_a and at_b:
            in_s = lambda s: func(a + h * s * s * (3.0 - 2.0 * s)) * (6.0 * h * s * (1.0 - s))
        elif at_a:
            in_s = lambda s: func(a + h * s * s) * (2.0 * h * s)
        elif at_b:
            in_s = lambda s: func(b - h * s * s) * (2.0 * h * s)
        else:
            total += _recursive_simpson(func, a, b)
            continue
        total += _recursive_simpson(in_s, 0.0, 1.0, scale=abs(_simpson(func, a, b)))
    return total


_INF = math.inf
_FOREST_PAIRS = {
    **{"half(l=%g, l_gamma=%g)" % (l, lg): (
        lambda l=l, lg=lg: cm.nonstandard_half_collar_graphs(cm.HalfCollarSpec(l, lg)), 1.0 / l)
       for l in (1.0, 8.0, 80.0, 745.0) for lg in (_INF, 2.0)},
    **{"glued(t=%g, l_gamma=%g, %g)" % (t, g1, g2): (
        lambda t=t, g1=g1, g2=g2: cm.glued_collar_graphs(cm.GluedCollarSpec(8.0, g1, g2, t)), 0.125)
       for t in (0.0, 0.125, -0.125, 0.25, 0.5)
       for g1, g2 in ((_INF, _INF), (_INF, 2.0), (2.0, 2.0))},
    "sinusoid": (lambda: sinusoid_pair(offset=1.5, amplitude=0.5), 0.1),
    "constant": (lambda: gm.constant_pair(0.25, period=2.0), 0.1),
}


@pytest.mark.parametrize("name", sorted(_FOREST_PAIRS))
def test_pair_forest_matches_the_recursive_form_per_piece(name):
    # one walk of every piece, and of both sandwich integrals: equal bit
    # for bit to the pieces walked alone, recursively, and summed in order
    make, delta = _FOREST_PAIRS[name]
    pair = make()
    vertical, area = _reference_integral(pair, True), _reference_integral(pair, False)
    assert gm.vertical_modulus(pair) == vertical
    assert gm.area_between(pair) == area
    assert gm.sandwich_bounds(pair, delta) == gm.rectangle_sandwich(
        vertical, gm.rectangle_deviation(pair, delta), area, delta)


def test_vertical_modulus_sinusoid_closed_form():
    # integral of dx / (2 + sin 2 pi x) over a period is 1/sqrt(3)
    pair = sinusoid_pair(offset=2.0, amplitude=1.0)
    assert abs(gm.vertical_modulus(pair) - 1.0 / math.sqrt(3.0)) < 1e-8


def test_constant_pair_exact():
    pair = gm.constant_pair(0.25, period=2.0)
    assert abs(gm.vertical_modulus(pair) - 8.0) < 1e-10
    assert abs(gm.area_between(pair) - 0.5) < 1e-10
    # a constant-gap pair is deviation-free at every scale
    for delta in (0.01, 0.1, 1.0):
        assert gm.rectangle_deviation(pair, delta) == pytest.approx(1.0, abs=1e-9)


def test_sandwich_bounds_constant_pair():
    c = 0.2
    pair = gm.constant_pair(c)
    bounds = gm.sandwich_bounds(pair, delta=0.05)
    assert bounds.lower == pytest.approx(1.0 / c, rel=1e-9)
    # deviation constant 1 and area c: upper = 3/c + c/delta^2
    assert bounds.upper == pytest.approx(3.0 / c + c / 0.05**2, rel=1e-6)
    assert bounds.lower <= bounds.geometric_mean <= bounds.upper


def test_scaled_pair_invariance():
    base = sinusoid_pair(offset=1.5, amplitude=0.5)
    for s in (0.1, 3.0):
        scaled = scaled_pair(base, s)
        assert abs(
            gm.vertical_modulus(scaled) - gm.vertical_modulus(base)
        ) < 1e-8
        assert gm.rectangle_deviation(scaled, 0.1 * s) == pytest.approx(
            gm.rectangle_deviation(base, 0.1), rel=1e-6
        )


def test_scaled_pair_keeps_its_square_root_ends():
    # the l_gamma = inf half-collar, scaled: the same substitution at the
    # scaled ends, so the same value and the same number of array calls
    half = cm.nonstandard_half_collar_graphs(cm.HalfCollarSpec(8.0, math.inf))
    calls = []
    counted = dataclasses.replace(half, G=lambda x: calls.append(x) or half.G(x))
    base = gm.vertical_modulus(counted)
    n = len(calls)
    for s in (0.1, 3.0):
        scaled = scaled_pair(counted, s)
        assert scaled.sqrt_ends == (0.5 * s,)
        del calls[:]
        assert gm.vertical_modulus(scaled) == pytest.approx(base, rel=1e-10)
        assert len(calls) == n


def test_replaced_graphs_reach_the_bounds():
    # offsets left out are read from the pair's current f and g, so a copy
    # with new graphs is bounded by those graphs, not the original ones
    pair = dataclasses.replace(gm.constant_pair(1.0), f=lambda x: 2.0)
    assert gm.vertical_modulus(pair) == pytest.approx(0.5, rel=1e-12)
    assert gm.area_between(pair) == pytest.approx(2.0, rel=1e-12)
    assert gm.rectangle_deviation(pair, 0.1) == pytest.approx(1.0)


def test_rectangle_deviation_small_window_limit():
    # as delta -> 0 the deviation constant tends to 1 for smooth graphs
    pair = sinusoid_pair(offset=1.0, amplitude=0.3)
    devs = [gm.rectangle_deviation(pair, d) for d in (0.2, 0.05, 0.01)]
    assert all(0.0 < d <= 1.0 for d in devs)
    assert devs[-1] > 0.95
    assert devs[0] <= devs[1] <= devs[2] + 1e-12


@settings(max_examples=25, deadline=None)
@given(
    offset=st.floats(min_value=1.0, max_value=5.0),
    ratio=st.floats(min_value=0.0, max_value=0.8),
)
def test_sandwich_property(offset, ratio):
    pair = sinusoid_pair(offset=offset, amplitude=ratio * offset)
    bounds = gm.sandwich_bounds(pair, delta=0.1)
    assert 0.0 < bounds.lower <= bounds.upper
    # vertical modulus is at least 1/max-gap and at most 1/min-gap
    assert 1.0 / (offset + ratio * offset) - 1e-9 <= bounds.lower
    assert bounds.lower <= 1.0 / (offset - ratio * offset) + 1e-9



@st.composite
def runs_and_widths(draw):
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=120))
    return values, draw(st.integers(1, len(values)))


@settings(max_examples=200, deadline=None)
@given(case=runs_and_widths())
@example(case=([3.0, -1.0, 2.0, 2.0, 0.5], 1))
@example(case=([3.0, -1.0, 2.0, 2.0, 0.5], 5))
@example(case=([7.0], 1))
def test_sliding_extrema_match_brute_force(case):
    values, width = case
    windows = [values[j:j + width] for j in range(len(values) - width + 1)]
    arr = np.array(values)
    assert gm._sliding(np.minimum, arr, width).tolist() == [min(w) for w in windows]
    assert gm._sliding(np.maximum, arr, width).tolist() == [max(w) for w in windows]
