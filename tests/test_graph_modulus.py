import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hypcollar import graph_modulus as gm


def test_adaptive_simpson_known_integrals():
    v = gm.adaptive_simpson(math.exp, 0.0, 1.0, rel_tol=1e-12)
    assert abs(v - (math.e - 1.0)) < 1e-12
    v = gm.adaptive_simpson(lambda x: math.sqrt(abs(x)), -1.0, 1.0, rel_tol=1e-10)
    assert abs(v - 4.0 / 3.0) < 1e-9


def test_adaptive_simpson_depth_exhaustion():
    with pytest.raises(gm.QuadratureError) as exc:
        gm.adaptive_simpson(lambda x: math.sin(50.0 * x), 0.0, 10.0,
                            rel_tol=1e-13, max_depth=2)
    a, b = exc.value.interval
    assert 0.0 <= a < b <= 10.0


def test_vertical_modulus_sinusoid_closed_form():
    # integral of dx / (2 + sin 2 pi x) over a period is 1/sqrt(3)
    pair = gm.sinusoid_pair(offset=2.0, amplitude=1.0)
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
    base = gm.sinusoid_pair(offset=1.5, amplitude=0.5)
    for s in (0.1, 3.0):
        scaled = gm.scaled_pair(base, s)
        assert abs(
            gm.vertical_modulus(scaled) - gm.vertical_modulus(base)
        ) < 1e-8
        assert gm.rectangle_deviation(scaled, 0.1 * s) == pytest.approx(
            gm.rectangle_deviation(base, 0.1), rel=1e-6
        )


def test_replaced_graphs_reach_the_bounds():
    # offsets left out are read from the pair's current f and g, so a copy
    # with new graphs is bounded by those graphs, not the original ones
    pair = dataclasses.replace(gm.constant_pair(1.0), f=lambda x: 2.0)
    assert gm.vertical_modulus(pair) == pytest.approx(0.5, rel=1e-12)
    assert gm.area_between(pair) == pytest.approx(2.0, rel=1e-12)
    assert gm.rectangle_deviation(pair, 0.1) == pytest.approx(1.0)


def test_rectangle_deviation_small_window_limit():
    # as delta -> 0 the deviation constant tends to 1 for smooth graphs
    pair = gm.sinusoid_pair(offset=1.0, amplitude=0.3)
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
    pair = gm.sinusoid_pair(offset=offset, amplitude=ratio * offset)
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
