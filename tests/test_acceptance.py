"""Acceptance criteria for the package, one test per criterion.

Every test prints a single PASS line (visible with pytest -s / in the -v
name) and enforces both the stated tolerance and the runtime budget.
"""

import math
import random
import time

import numpy as np

from hypcollar import classifier as cl
from hypcollar import cli
from hypcollar import collar_modulus as cm
from hypcollar import hypgeom as hg
from hypcollar import surfaces as sf
from hypcollar.calibration import (
    GLUED_HALF_TWIST_BAND_LOWER,
    GLUED_HALF_TWIST_BAND_UPPER,
    HALF_COLLAR_EXP_BAND_LOWER,
    HALF_COLLAR_EXP_BAND_UPPER,
    HALF_COLLAR_GM_BAND,
    HALF_COLLAR_WIDE_BAND,
    TWIST_GAIN_K,
)


def _report(num, text):
    print("criterion %2d: PASS  %s" % (num, text))


def test_criterion_01_closed_form_identities():
    t0 = time.perf_counter()
    tol = 1e-10
    xs = [10.0 ** (-3 + 4.4 * i / 400) for i in range(401)]  # 1e-3 .. ~25
    for x in xs:
        r = hg.collar_width(x)
        assert abs(math.sinh(r) * math.sinh(x) - 1.0) <= tol
        assert abs(hg.collar_width(r) - x) <= tol * max(1.0, x)
    for l in [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0]:
        eta = hg.eta_length(l, math.inf)
        assert abs(hg.collar_width(eta) - 0.5 * l) <= tol * max(1.0, l)
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _report(1, "closed-form identities to 1e-10 (%.2fs)" % dt)


def _assert_rows(rows):
    failed = [row for row in rows if not row[3]]
    assert not failed, failed


def test_criterion_02_oracle_calibration():
    t0 = time.perf_counter()
    # refinement solves at 1/256
    _assert_rows(cli.calibration_checks(1.0 / 128))
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _report(2, "oracle calibration: rectangle 0.5%%, annulus and sector "
               "1%% at mesh 1/256 (%.1fs)" % dt)


def test_criterion_03_standard_collar_cross_check():
    t0 = time.perf_counter()
    _assert_rows(cli.standard_collar_checks())
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _report(3, "closed-form standard collar distance reproduced by the "
               "oracle to 2%% for l in {1, 2, 4} (%.1fs)" % dt)


def test_criterion_04_sandwich_inclusion():
    t0 = time.perf_counter()
    specs = [cm.HalfCollarSpec(l_alpha, l_gamma)
             for l_alpha in (2.0, 6.0, 10.0) for l_gamma in (1.0, math.inf)]
    specs += [cm.GluedCollarSpec(l_alpha, math.inf, math.inf, t)
              for l_alpha in (4.0, 8.0) for t in (0.0, 0.25, 0.5)]
    # the error bars overlap the bounds: l = 6, l_gamma = 1 needs its bar
    _assert_rows(cli.sandwich_checks(
        specs,
        lambda est, sb: (est.value + est.error_bar >= sb.lower
                         and est.value - est.error_bar <= sb.upper),
    ))
    dt = time.perf_counter() - t0
    assert dt < 600.0
    _report(4, "oracle modulus inside the rectangle-sandwich bounds for "
               "%d collar domains (%.1fs)" % (len(specs), dt))


def test_criterion_05_asymptotic_bands():
    t0 = time.perf_counter()
    for l in np.linspace(2.0, 20.0, 10):
        b = cm.nonstandard_half_collar_lambda(cm.HalfCollarSpec(float(l), math.inf))
        e = math.exp(0.5 * l)
        lo, hi = HALF_COLLAR_EXP_BAND_LOWER
        assert lo <= b.lower * e <= hi, l
        lo, hi = HALF_COLLAR_EXP_BAND_UPPER
        assert lo <= b.upper * e <= hi, l
        lo, hi = HALF_COLLAR_GM_BAND
        assert lo <= b.geometric_mean * e <= hi, l
        lo, hi = HALF_COLLAR_WIDE_BAND
        assert lo <= b.geometric_mean * e <= hi, l
    for l in np.linspace(4.0, 16.0, 7):
        bounds = cm.glued_collar_lambda(
            cm.GluedCollarSpec(float(l), math.inf, math.inf, 0.5)
        )
        e = math.exp(0.25 * l)
        lo, hi = GLUED_HALF_TWIST_BAND_LOWER
        assert lo <= bounds.lower * e <= hi, l
        lo, hi = GLUED_HALF_TWIST_BAND_UPPER
        assert lo <= bounds.upper * e <= hi, l
    dt = time.perf_counter() - t0
    _report(5, "half-collar e^{l/2} and glued half-twist e^{l/4} scalings "
               "inside the frozen bands (%.1fs)" % dt)


def test_criterion_06_twist_gain():
    t0 = time.perf_counter()
    for l in (8.0, 12.0, 16.0):
        for t in (0.0, 0.25, 0.5):
            bounds = cm.glued_collar_lambda(
                cm.GluedCollarSpec(l, math.inf, math.inf, t)
            )
            gain = bounds.lower / (2.0 * hg.standard_half_collar_lambda(l))
            assert gain >= l * math.exp(0.5 * abs(t) * l) / TWIST_GAIN_K, (l, t)
    dt = time.perf_counter() - t0
    _report(6, "glued-collar gain >= l e^{|t| l/2} / %g over the reference "
               "grid (%.1fs)" % (TWIST_GAIN_K, dt))


def test_criterion_07_comb_ratio_decreasing():
    t0 = time.perf_counter()
    rows = cli.comb_checks((0.2, 0.1, 0.05))
    _assert_rows(rows)
    dt = time.perf_counter() - t0
    assert dt < 300.0
    _report(7, "comb vertical-to-full modulus ratio strictly decreasing: "
               "%.3f > %.3f > %.3f (%.1fs)"
               % (*(value for _, value, _, _ in rows), dt))


def test_criterion_08_flute_tables_exact():
    t0 = time.perf_counter()

    def flute(lengths, twist):
        return sf.FluteSpec(lengths=lengths, twists=sf.Constant(twist))

    # zero twist, l_n = c ln n: parabolic iff c <= 2
    for c, want in ((1.5, "Parabolic"), (2.0, "Parabolic"),
                    (2.5, "NotParabolic")):
        v = cl.classify_flute(flute(sf.log_affine(a=c, n0=1.0), 0.0))
        assert v.kind == want and v.series.method == "bertrand-exact", c

    # half twist, concave l_n = c ln n: parabolic iff c <= 4
    for c, want in ((3.0, "Parabolic"), (4.0, "Parabolic"),
                    (4.5, "NotParabolic")):
        v = cl.classify_flute(flute(sf.log_affine(a=c, n0=1.0), 0.5))
        assert v.kind == want, c

    # half twist, l_n = 4 ln n + c ln ln n: parabolic iff c <= 4
    for c, want in ((3.5, "Parabolic"), (4.0, "Parabolic"),
                    (4.5, "NotParabolic")):
        v = cl.classify_flute(
            flute(sf.log_affine(a=4.0, b=c, c=0.1, n0=1.0, n1=2.0), 0.5)
        )
        assert v.kind == want, c

    # one-parameter scaled family
    for s, want in ((0.5, "Parabolic"), (1.0, "Parabolic"),
                    (4.0 / 3.0, "Parabolic"),
                    (1.5, "Unknown"), (2.0, "Unknown"),
                    (2.5, "NotParabolic"), (3.0, "NotParabolic")):
        v = cl.classify_flute(cl.scaled_flute(s))
        assert v.kind == want, s
        if s > 2.0:
            assert v.reason == "Incomplete"

    dt = time.perf_counter() - t0
    assert dt < 1.0
    _report(8, "flute verdict tables exact on all boundary cases (%.2fs)" % dt)


def test_criterion_09_two_parameter_region_map():
    t0 = time.perf_counter()
    grid = [0.25 * k for k in range(1, 17)]  # 0.25 .. 4.0
    for a in grid:
        for b in grid:
            v = cl.classify_flute(cl.two_parameter_flute(a, b))
            if a + b <= 4.0 + 1e-12:
                assert v.kind == "Parabolic", (a, b)
            elif min(a, b) > 2.0:
                assert v.kind == "NotParabolic", (a, b)
                assert v.reason == "Incomplete", (a, b)
            else:
                assert v.kind == "Unknown", (a, b)
    dt = time.perf_counter() - t0
    assert dt < 5.0
    _report(9, "two-parameter region map exact on the 16 x 16 grid "
               "(%.2fs)" % dt)


def test_criterion_10_exhaustion_examples():
    t0 = time.perf_counter()

    v = cl.classify_exhaustion(
        sf.CantorTree(level_lengths=sf.ScaledPowerDecay(coef=1.0, base=2.0))
    )
    assert v.kind == "Parabolic" and v.series.method == "bertrand-exact"

    v = cl.classify_exhaustion(
        sf.AbelianCover(rank=2, config="disjoint-pair",
                        L=sf.log_affine(b=2.0, n1=2.0))
    )
    assert v.kind == "Parabolic" and v.series.method == "bertrand-exact"

    v = cl.classify_exhaustion(
        sf.AbelianCover(rank=2, config="intersecting-pair",
                        eps=sf.Constant(0.5), ell=sf.Linear(slope=2.0))
    )
    assert v.kind == "Parabolic" and v.series.method == "bertrand-exact"

    v = cl.classify_exhaustion(sf.AbelianCover(rank=3, L=sf.Constant(1.0)))
    assert v.kind == "Unknown" and v.series.method == "bertrand-exact"

    dt = time.perf_counter() - t0
    assert dt < 1.0
    _report(10, "exhaustion examples (tree, disjoint / intersecting covers, "
                "rank 3) classified exactly (%.2fs)" % dt)


def test_criterion_11_property_suites():
    t0 = time.perf_counter()

    # (a) alternating-sum identity sigma_n + sigma_{n-1} = l_n for N = 1e5
    lengths = cl.two_parameter_flute(3.0, 2.0).lengths
    n_max = 100_000
    sigma = sf.sigma_sequence(lengths, n_max)
    terms = lengths.terms(1, n_max)
    worst = max(
        abs(sigma[n] + sigma[n - 1] - terms[n]) for n in range(1, n_max)
    )
    assert worst < 1e-12

    # (b, c) randomized log-affine specs: twist monotonicity of verdicts and
    # termwise domination of the twisted series by the untwisted one
    rng = random.Random(20260826)
    rank = {"NotParabolic": 0, "Unknown": 1, "Parabolic": 2}
    for _ in range(50):
        a = rng.uniform(0.5, 6.0)
        b = rng.uniform(0.0, 3.0)
        c = rng.uniform(0.1, 2.0)
        spec = sf.log_affine(a=a, b=b, c=c, n0=1.0, n1=2.0)

        kinds = []
        for t in (0.0, 0.25, 0.5):
            kinds.append(
                cl.classify_flute(
                    sf.FluteSpec(lengths=spec, twists=sf.Constant(t))
                ).kind
            )
        # more twist never demotes a Parabolic verdict
        assert rank[kinds[0]] <= rank[kinds[1]] + 1  # Unknown gaps allowed
        if kinds[0] == "Parabolic":
            assert kinds[1] == "Parabolic" and kinds[2] == "Parabolic", (a, b, c)

        for t in (0.25, 0.5):
            untwisted = cl.classify_series(spec, 0.5)
            twisted = cl.classify_series(spec, 0.5 * (1.0 - t))
            # e^{-l/2} <= e^{-(1-|t|) l/2} termwise for l > 0
            if untwisted.verdict == "diverges":
                assert twisted.verdict == "diverges", (a, b, c, t)

    dt = time.perf_counter() - t0
    assert dt < 30.0
    _report(11, "identity residual < 1e-12 at N=1e5; twist monotonicity and "
                "termwise domination on 50 random specs (%.1fs)" % dt)
