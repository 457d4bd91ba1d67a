import bisect
import dataclasses
import functools
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypcollar import cli
from hypcollar import collar_modulus as cm
from hypcollar import graph_modulus as gm
from hypcollar import hypgeom as hg

from helpers import half_collar_envelope, half_collar_envelope_vertical_modulus


def test_half_collar_r_eta_stays_finite_where_eta_is_subnormal():
    # eta = 2 e^{-710.5} is subnormal, and r(eta) = l_alpha / 2 still
    spec = cm.HalfCollarSpec(1421.0, math.inf)
    assert spec.eta < 1e-308 and spec.r_eta == pytest.approx(710.5, rel=1e-12)


def test_half_collar_spec_constraint():
    # the opposite boundary must clear the standard collar of alpha
    cm.HalfCollarSpec(1.5, 1.2)  # r(0.75) ~ 1.03 < 1.2, fine
    with pytest.raises(hg.HypothesisError):
        cm.HalfCollarSpec(1.5, 0.3)
    with pytest.raises(ValueError):
        cm.HalfCollarSpec(-1.0, 1.0)


def test_nonstandard_lambda_requires_long_alpha():
    with pytest.raises(hg.HypothesisError):
        cm.nonstandard_half_collar_lambda(cm.HalfCollarSpec(0.5, math.inf))
    with pytest.raises(hg.HypothesisError):
        cm.glued_collar_lambda(cm.GluedCollarSpec(1.5, math.inf, math.inf, 0.0))


def test_envelope_vertical_modulus_closed_form():
    for l, g in ((4.0, math.inf), (8.0, 1.0), (12.0, math.inf)):
        spec = cm.HalfCollarSpec(l, g)
        numeric = gm.vertical_modulus(half_collar_envelope(spec))
        closed = half_collar_envelope_vertical_modulus(spec)
        assert numeric == pytest.approx(closed, rel=1e-6)


def test_envelope_encloses_true_graphs():
    # envelope pair must lie inside the true graph pair: g <= g_env < f_env <= f
    for l in (2.0, 6.0, 12.0):
        spec = cm.HalfCollarSpec(l, math.inf)
        true_pair = cm.nonstandard_half_collar_graphs(spec)
        env = half_collar_envelope(spec)
        for i in range(201):
            x = -0.5 + i / 200.0
            assert env.f(x) <= true_pair.f(x) + 1e-12
            assert env.g(x) >= true_pair.g(x) - 1e-12
            assert env.f(x) > env.g(x)


def test_bounds_ordering_and_positivity():
    for l, g in ((2.0, math.inf), (6.0, 1.0), (10.0, math.inf)):
        b = cm.nonstandard_half_collar_lambda(cm.HalfCollarSpec(l, g))
        assert 0.0 < b.lower <= b.upper


@pytest.mark.parametrize("l_alpha", [745.0, 1000.0])
def test_geometric_mean_stays_inside_tiny_bounds(l_alpha, capsys):
    # lower * upper is below the smallest subnormal here; the mean is not
    b = cm.nonstandard_half_collar_lambda(cm.HalfCollarSpec(l_alpha, math.inf))
    assert b.lower * b.upper == 0.0
    assert 0 < b.lower <= b.geometric_mean <= b.upper
    assert cli.main(["collar", "--l-alpha", repr(l_alpha),
                     "--l-gamma", "inf"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lambda_geometric_mean"] == b.geometric_mean
    assert (0 < out["lambda_lower"] <= out["lambda_geometric_mean"]
            <= out["lambda_upper"])


def test_glued_zero_twist_doubles_gap():
    # with zero twist the glued channel is two mirror half-collars stacked:
    # the gap doubles pointwise, so the vertical modulus halves
    l = 8.0
    half = gm.vertical_modulus(
        cm.nonstandard_half_collar_graphs(cm.HalfCollarSpec(l, math.inf))
    )
    glued = gm.vertical_modulus(
        cm.glued_collar_graphs(cm.GluedCollarSpec(l, math.inf, math.inf, 0.0))
    )
    assert glued == pytest.approx(0.5 * half, rel=1e-8)


def test_nonstandard_beats_standard_for_long_alpha():
    # the gain of the nonstandard half-collar over the standard one grows
    # at least linearly in l
    ratios = []
    for l in (8.0, 12.0, 16.0, 20.0):
        b = cm.nonstandard_half_collar_lambda(cm.HalfCollarSpec(l, math.inf))
        std = hg.standard_half_collar_lambda(l)
        assert b.lower / std >= l / 200.0
        ratios.append(b.lower / std)
    assert all(y > x for x, y in zip(ratios, ratios[1:]))


def test_lambda_scales_with_opposite_boundary():
    # for long alpha, lambda is comparable to l(eta) ~ tanh(l_gamma)
    l = 12.0
    a = cm.nonstandard_half_collar_lambda(cm.HalfCollarSpec(l, 0.5))
    b = cm.nonstandard_half_collar_lambda(cm.HalfCollarSpec(l, 0.25))
    want = math.tanh(0.5) / math.tanh(0.25)
    assert a.geometric_mean / b.geometric_mean == pytest.approx(want, rel=0.25)


def test_glued_twist_validation():
    with pytest.raises(ValueError):
        cm.GluedCollarSpec(8.0, math.inf, math.inf, 0.7)
    spec = cm.GluedCollarSpec(8.0, math.inf, math.inf, 0.5)
    assert spec.twist == 0.5


def test_glued_result_fields():
    spec = cm.GluedCollarSpec(8.0, math.inf, math.inf, 0.25)
    bounds = cm.glued_collar_lambda(spec)
    assert 0.0 < bounds.lower <= bounds.upper
    proxy = 1.0 / cm.glued_collar_proxy(spec)
    assert proxy > 0.0
    # the proxy is a two-sided surrogate for the lower bound
    assert 0.01 < bounds.lower / proxy < 100.0


def test_glued_proxy_is_the_four_interval_maximum(capsys):
    # for |t| <= 1/2 the bounds e^{r_i - (1 - |t|) l/2} never exceed
    # e^{r_i - |t| l/2}, so the two-exponential proxy is the four-way max
    for l in (4.0, 8.0, 16.0):
        for t in (-0.375, 0.0, 0.125, 0.25, 0.5):
            spec = cm.GluedCollarSpec(l, 1.0, math.inf, t)
            r = (spec.side1.r_eta, spec.side2.r_eta)
            four = max(math.exp(ri - 0.5 * a * l)
                       for ri in r for a in (abs(t), 1.0 - abs(t)))
            assert cm.glued_collar_proxy(spec) == four
            # the collar command writes the reciprocal as its analytic proxy
            assert cli.main(["collar", "--l-alpha", repr(l), "--l-gamma", "1",
                             "--l-gamma2", "inf", "--twist", repr(t)]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["analytic_proxy"] == 1.0 / four


def test_glued_twist_improves_lower_bound():
    # twisting misaligns the two envelope spikes and widens the channel
    l = 12.0
    lows = [
        cm.glued_collar_lambda(
            cm.GluedCollarSpec(l, math.inf, math.inf, t)
        ).lower
        for t in (0.0, 0.25, 0.5)
    ]
    assert lows[0] < lows[1] < lows[2]


def test_glued_twist_sign_symmetry():
    l = 10.0
    a = cm.glued_collar_lambda(cm.GluedCollarSpec(l, math.inf, math.inf, 0.25))
    b = cm.glued_collar_lambda(cm.GluedCollarSpec(l, math.inf, math.inf, -0.25))
    assert a.lower == pytest.approx(b.lower, rel=1e-6)
    assert a.upper == pytest.approx(b.upper, rel=1e-6)


@pytest.mark.parametrize("argv, rc", [
    (["--l-alpha", "80", "--l-gamma", "inf"], 0),
    (["--l-alpha", "80", "--l-gamma", "inf", "--l-gamma2", "inf", "--twist", "0"], 0),
    # past the float range of the half-collar's quadrature
    (["--l-alpha", "2000", "--l-gamma", "inf"], 3),
])
def test_collar_exit_codes_at_long_alpha(capsys, argv, rc):
    # at l_alpha = 80 the gap f - g rounds to 0 near x = 0; F + G does not
    assert cli.main(["collar"] + argv) == rc
    if rc == 0:
        out = json.loads(capsys.readouterr().out)
        lower, upper = out["lambda_lower"], out["lambda_upper"]
        assert math.isfinite(upper) and 0.0 < lower <= upper


@pytest.mark.parametrize("argv", [
    ["--l-alpha", "1421", "--l-gamma", "inf"],
    ["--l-alpha", "1421", "--l-gamma", "inf", "--l-gamma2", "inf", "--twist", "0.25"],
])
def test_collar_overflow_raises_not_warns(argv):
    # eta is still positive at l_alpha = 1421, but cosh(l/2) overflows (and
    # the glued gap reads 0): a numeric failure, with no numpy warning
    assert cli.main(["collar"] + argv) == cli.EXIT_NUMERIC


@pytest.mark.parametrize("l_gamma, limit", [
    (math.inf, 1402.87), (1.0, 1402.33), (0.01, 1393.67)])
def test_half_collar_bounds_hold_up_to_their_float_range_limit(l_gamma, limit):
    # 0.01 past the limit, adaptive Simpson's sums overflow
    bounds = cm.nonstandard_half_collar_lambda(cm.HalfCollarSpec(limit, l_gamma))
    assert 0.0 < bounds.lower <= bounds.upper < math.inf
    with pytest.raises(OverflowError, match="^half-collar bounds at "
                       "l_alpha = %g, l_gamma = %g cannot be computed "
                       % (limit + 0.01, l_gamma)):
        cm.nonstandard_half_collar_lambda(
            cm.HalfCollarSpec(limit + 0.01, l_gamma))


@pytest.mark.parametrize("l_gamma, l_gamma2, twist, limit, past", [
    (math.inf, math.inf, 0.0, 1404.25, 1404.27),
    (math.inf, math.inf, 0.5, 1419.56, 1419.57),
    (1.0, math.inf, 0.0, 1404.0, 1404.01),
    (1.0, 1e-3, 0.1, 1405.74, 1407.14),
    (1e-6, math.inf, 0.0, 1391.93, 1393.33),
])
def test_glued_collar_bounds_hold_up_to_their_float_range_limit(
        l_gamma, l_gamma2, twist, limit, past):
    # the bounds hold from below the limit that an overflow model once
    # predicted up to 0.01 before `past`, where adaptive Simpson's sums,
    # cosh r(eta) or e^{l/2} in the envelope's closed forms overflow
    for l in (limit, past - 0.01):
        bounds = cm.glued_collar_lambda(
            cm.GluedCollarSpec(l, l_gamma, l_gamma2, twist))
        assert 0.0 < bounds.lower <= bounds.upper < math.inf
    with pytest.raises(OverflowError, match="^glued-collar bounds at "
                       "l_alpha = %g, l_gamma = %g, l_gamma2 = %g, twist "
                       "= %g cannot be computed "
                       % (past, l_gamma, l_gamma2, twist)):
        cm.glued_collar_lambda(
            cm.GluedCollarSpec(past, l_gamma, l_gamma2, twist))


@pytest.mark.parametrize("twist", [0.1, 0.5, -0.125])
def test_glued_collar_bounds_continue_past_the_predicted_limit(twist):
    # at l_gamma = 1e-6 an overflow model refused from l_alpha 1391.93 on,
    # with a factor 2 to spare; ln lambda_lower continues its slope from
    # below that limit, and eta, though subnormal, keeps about 50 bits
    def log_lower(l):
        spec = cm.GluedCollarSpec(l, 1e-6, math.inf, twist)
        return math.log(cm.glued_collar_lambda(spec).lower)

    a, b = log_lower(1390.0), log_lower(1391.0)
    for l in (1392.0, 1393.0, 1393.25):
        assert log_lower(l) == pytest.approx(b + (b - a) * (l - 1391.0),
                                             abs=1e-9)
    assert hg.eta_length(1393.25, 1e-6) > 2.0 ** 50 * 5e-324


def test_half_collar_gap_matches_high_precision_arcsin():
    l = 62.0
    spec = cm.HalfCollarSpec(l, math.inf)
    F, G = cm.nonstandard_half_collar_graphs(spec).offsets()
    with mpmath.workdps(50):
        cr = mpmath.cosh(mpmath.mpf(spec.r_eta))
        for x in (0.0, 1e-3, -0.01, 0.1, 0.25, -0.4, 0.5):
            u = min(mpmath.cosh(l * mpmath.mpf(x)) / cr, 1)
            want = mpmath.asin(u) / l
            assert abs(F(x) + G(x) - want) <= 1e-12 * want, x


_GAMMA = st.one_of(st.just(math.inf), st.floats(0.01, 5.0))


@settings(max_examples=60, deadline=None)
@given(l=st.floats(1.0, 8.0), d1=_GAMMA, d2=_GAMMA,
       t=st.floats(-0.49, 0.5), x=st.floats(-0.5, 0.5))
def test_offsets_sum_to_the_graph_gap(l, d1, d2, t, x):
    # where f - g loses little to cancellation, F + G must agree with it
    floor = hg.collar_width(0.5 * l)
    spec = cm.GluedCollarSpec(l, floor + d1, floor + d2, t)
    for pair in (cm.nonstandard_half_collar_graphs(spec.side1),
                 half_collar_envelope(spec.side1),
                 cm.glued_collar_graphs(spec), cm.glued_collar_envelope(spec)):
        F, G = pair.offsets()
        assert F(x) >= 0.0 and G(x) >= 0.0
        assert F(x) + G(x) == pytest.approx(pair.f(x) - pair.g(x), rel=1e-12)


def _collar_pairs(l, t):
    spec = cm.GluedCollarSpec(l, math.inf, hg.collar_width(0.5 * l) + 0.5, t)
    return {
        "half": cm.nonstandard_half_collar_graphs(spec.side1),
        "half-envelope": half_collar_envelope(spec.side1),
        "glued": cm.glued_collar_graphs(spec),
        "glued-envelope": cm.glued_collar_envelope(spec),
    }


@pytest.mark.parametrize("l", [1.0, 8.0, 62.0, 80.0])
@pytest.mark.parametrize("t", [0.0, 0.25, -0.25, 0.5])
def test_pair_callables_on_arrays_match_their_points(l, t):
    # one array call gives, bit for bit, what the callable gives at each point
    xs = np.concatenate((np.linspace(-0.5, 0.5, 1001), [-1.3, 0.75, 2.0 + t]))
    for name, pair in _collar_pairs(l, t).items():
        for fn in (pair.f, pair.g, pair.F, pair.G):
            values = fn(xs)
            assert values.shape == xs.shape, name
            points = np.array([fn(float(x)) for x in xs])
            assert np.array_equal(values, points), name


@pytest.mark.parametrize("l", [4.0, 8.0, 30.0])
@pytest.mark.parametrize("t", [-0.375, -0.25, 0.125, 0.25, 0.5])
def test_glued_offsets_peak_at_declared_breakpoints(l, t):
    # each offset is monotone between the split points, so its maximum over
    # a fine grid is attained at a declared breakpoint or at a window end
    xs = np.linspace(-0.5, 0.5, 100001)
    pairs = _collar_pairs(l, t)
    for pair in (pairs["glued"], pairs["glued-envelope"]):
        ends = np.array(gm._split_points(pair))
        for offset in (pair.F, pair.G):
            assert offset(xs).max() <= offset(ends).max() * (1.0 + 1e-12), pair.label


def _envelope_by_mpmath(spec):
    """V and area of glued_collar_envelope(spec), by 50-digit quadrature of
    the same envelope between its split points."""
    t = spec.twist
    pts = sorted({-0.5, 0.0, 0.5} | {p for p in (t, t - 0.5, t + 0.5) if -0.5 < p < 0.5})
    with mpmath.workdps(50):
        l, r1, r2 = (mpmath.mpf(v) for v in (spec.l_alpha, spec.side1.r_eta, spec.side2.r_eta))
        wrap = lambda x: x - mpmath.floor(x + 0.5)
        gap = lambda x: (mpmath.exp(l * abs(wrap(x)) - r1)
                         + mpmath.exp(l * abs(wrap(x - t)) - r2)) / (2 * l)
        return mpmath.quad(lambda x: 1 / gap(x), pts), mpmath.quad(gap, pts)


@pytest.mark.parametrize("l", [2.0, 8.0, 60.0])
@pytest.mark.parametrize("t", [0.0, 0.125, -0.125, 0.25, 0.5])
@pytest.mark.parametrize("finite", [False, True])
def test_glued_envelope_closed_forms_match_mpmath(l, t, finite):
    floor = hg.collar_width(0.5 * l)
    gammas = (floor + 3.0, floor + 0.5) if finite else (math.inf, math.inf)
    spec = cm.GluedCollarSpec(l, gammas[0], gammas[1], t)
    v, area = _envelope_by_mpmath(spec)
    assert abs(cm.glued_envelope_vertical_modulus(spec) / v - 1) <= 1e-12
    assert abs(cm.glued_envelope_area(spec) / area - 1) <= 1e-12


@pytest.mark.parametrize("l", [2.0, 8.0, 60.0, 300.0])
@pytest.mark.parametrize("l_gamma", [math.inf, 1.0])
def test_untwisted_glued_envelope_is_half_the_half_collar_envelope(l, l_gamma):
    # at t = 0 with equal sides the envelope gap is twice the half-collar's
    spec = cm.GluedCollarSpec(l, l_gamma, l_gamma, 0.0)
    assert cm.glued_envelope_vertical_modulus(spec) == pytest.approx(
        0.5 * half_collar_envelope_vertical_modulus(spec.side1), rel=1e-14)


def test_glued_lower_bound_needs_no_envelope_quadrature(monkeypatch):
    # the envelope's V and area are closed forms; only the graphs' V is a
    # quadrature, one walk over its pieces, and only the envelope's c_delta
    # is sampled
    walked, sampled = [], []
    simpson, deviation = gm.adaptive_simpson, gm.rectangle_deviation
    monkeypatch.setattr(gm, "adaptive_simpson",
                        lambda f, a, b, **kw: walked.append((a, b)) or simpson(f, a, b, **kw))
    monkeypatch.setattr(gm, "sandwich_bounds", None)
    monkeypatch.setattr(cm, "sandwich_bounds", None)
    monkeypatch.setattr(cm, "rectangle_deviation",
                        lambda pair, delta: sampled.append(pair.label) or deviation(pair, delta))
    spec = cm.GluedCollarSpec(8.0, math.inf, 2.0, 0.25)
    cm.glued_collar_lambda(spec)
    graphs = cm.glued_collar_graphs(spec)
    # one walk, whose trees are the graphs' pieces
    (walk,) = walked
    assert len(walk[0]) == len(walk[1]) == len(gm._split_points(graphs)) - 1
    assert sampled == [cm.glued_collar_envelope(spec).label]


@functools.lru_cache(maxsize=None)
def _k2():
    """K_2 = int_0^1 (1/arcsin v - 1/v) dv/v."""
    with mpmath.workdps(30):
        return float(mpmath.quad(lambda v: (1 / mpmath.asin(v) - 1 / v) / v, [0, 1]))


@pytest.mark.parametrize("l", [12.0, 20.0, 60.0, 200.0, 745.0, 1000.0, 1400.0])
def test_half_collar_vertical_modulus_meets_its_two_term_limit(l):
    # with l_gamma = inf, V = 4 cosh(l/2) arctan(tanh(l/4)) + 2 K_2 + o(1);
    # the two-term form is 4e-9 off at l = 12
    v = gm.vertical_modulus(cm.nonstandard_half_collar_graphs(cm.HalfCollarSpec(l, math.inf)))
    want = 4.0 * math.cosh(0.5 * l) * math.atan(math.tanh(0.25 * l)) + 2.0 * _k2()
    assert v == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("l", [60.0, 200.0, 1000.0])
@pytest.mark.parametrize("t", [0.0, 0.25, 0.5])
def test_glued_vertical_modulus_meets_its_sech_limit(l, t):
    # both l_gamma = inf: V ~ (pi/2) cosh(l/2) [sech(lt/2) + sech(l(1 - |t|)/2)]
    v = gm.vertical_modulus(cm.glued_collar_graphs(cm.GluedCollarSpec(l, math.inf, math.inf, t)))
    want = 0.5 * math.pi * math.cosh(0.5 * l) * (
        1.0 / math.cosh(0.5 * l * t) + 1.0 / math.cosh(0.5 * l * (1.0 - abs(t))))
    assert v == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("t", [None, 0.0, 0.125, -0.375, 0.5])
def test_square_root_ends_take_few_array_calls(t):
    # l = 8, l_gamma = inf: in x each piece's walk bisects into the
    # square-root end and takes 28-32 array calls; in s one walk of all the
    # pieces takes at most 12, the estimates in x included
    if t is None:
        pair = cm.nonstandard_half_collar_graphs(cm.HalfCollarSpec(8.0, math.inf))
    else:
        pair = cm.glued_collar_graphs(cm.GluedCollarSpec(8.0, math.inf, math.inf, t))
    pts = gm._split_points(pair)
    for integral in (gm.vertical_modulus, gm.area_between):
        calls = []
        integral(dataclasses.replace(pair, G=lambda x: calls.append(x) or pair.G(x)))
        assert len(calls) <= 12, (integral.__name__, len(calls))
        # the walk's first level holds every piece
        pieces = {bisect.bisect(pts, x) - 1 for x in calls[2]}
        assert pieces == set(range(len(pts) - 1)), (integral.__name__, pieces)
