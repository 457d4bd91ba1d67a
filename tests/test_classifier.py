import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from hypcollar import classifier as cl
from hypcollar import cli
from hypcollar import surfaces as sf
from hypcollar.hypgeom import HypothesisError


def _flute(lengths, twist):
    return sf.FluteSpec(lengths=lengths, twists=sf.Constant(twist))


# ---------------------------------------------------------------------------
# series backend
# ---------------------------------------------------------------------------


def test_series_boundary_cases_exact():
    # sum n^{-kappa a} with kappa = 1/2: diverges iff a <= 2
    for a, want in ((1.9, "diverges"), (2.0, "diverges"), (2.1, "converges")):
        beh = cl.classify_series(
            cl.SeriesTerms(sf.log_affine(a=a, n0=1.0), kappa=0.5)
        )
        assert beh.exact and beh.verdict == want

    # second-order boundary: sum 1/(n (ln n)^q)
    for q, want in ((0.5, "diverges"), (1.0, "diverges"), (1.5, "converges")):
        beh = cl.classify_series(
            cl.SeriesTerms(sf.log_affine(a=2.0, b=2.0 * q, n0=1.0, n1=1.0),
                           kappa=0.5)
        )
        assert beh.exact and beh.verdict == want


def test_series_agrees_with_partial_sums():
    # numeric cross-check away from the boundary
    for a in (1.0, 3.0):
        spec = sf.log_affine(a=a, n0=1.0)
        beh = cl.classify_series(cl.SeriesTerms(spec, kappa=0.5))
        ns = np.arange(1, 200_000)
        partial = np.cumsum(np.exp(-0.5 * a * np.log(ns)))
        growing = partial[-1] / partial[len(partial) // 10] > 2.0
        assert (beh.verdict == "diverges") == growing


def test_linear_lengths_converge():
    beh = cl.classify_series(cl.SeriesTerms(sf.Linear(slope=1.0), kappa=0.5))
    assert beh.exact and beh.verdict == "converges"


_positive = st.floats(min_value=0.1, max_value=5.0)
_leaf = st.one_of(
    st.builds(sf.Constant, _positive),
    st.builds(sf.Linear, st.floats(min_value=0.0, max_value=3.0), _positive),
    st.builds(
        sf.LogAffine,
        log_terms=st.lists(st.tuples(st.floats(min_value=0.0, max_value=8.0),
                                     st.floats(min_value=0.0, max_value=5.0)),
                           max_size=3).map(tuple),
        loglog_coef=st.floats(min_value=-1.0, max_value=4.0),
        loglog_shift=st.floats(min_value=2.0, max_value=5.0),
        const=_positive,
    ),
    st.builds(sf.ScaledPowerDecay, _positive, st.floats(min_value=1.1, max_value=4.0)),
)


@st.composite
def _length_specs(draw):
    """A leaf or an alternating pair of leaves, under up to three prefixes."""
    spec = draw(st.one_of(_leaf, st.builds(sf.AlternatingLogAffine, _leaf, _leaf)))
    for values in draw(st.lists(st.lists(_positive, min_size=1, max_size=3),
                                max_size=3)):
        spec = sf.ExplicitPrefixThenTail(tuple(values), spec)
    return spec


@settings(max_examples=200, deadline=None)
@given(spec=_length_specs(), kappa=st.sampled_from([0.0, 0.25, 0.5]),
       poly=st.sampled_from([0.0, 1.0, 2.0]), length_factor=st.booleans())
def test_every_validated_length_spec_is_exact(spec, kappa, poly, length_factor):
    try:
        sf.validate_lengths(spec)
    except sf.SpecError:
        reject()
    stripped = spec
    while isinstance(stripped, sf.ExplicitPrefixThenTail):
        stripped = stripped.tail
    beh = cl.classify_series(cl.SeriesTerms(spec, kappa, poly, length_factor))
    assert beh.exact
    assert beh == cl.classify_series(
        cl.SeriesTerms(stripped, kappa, poly, length_factor))
    assert cl.classify_flute(sf.FluteSpec(lengths=spec)).series.exact


def test_unknown_length_shape_has_no_exponent_form():
    prefix = sf.ExplicitPrefixThenTail((1.0,), sf.log_affine(a=1.0, n0=1.0))
    alt = sf.AlternatingLogAffine(even=sf.log_affine(a=1.0, n0=1.0), odd=prefix)
    with pytest.raises(sf.SpecError, match="no exponent form"):
        cl.classify_series(cl.SeriesTerms(alt, kappa=0.5))


def test_heuristic_never_exact():
    # irregular twists force the partial-sum fallback
    beh = cl._heuristic(lambda n: 1.0 / (n * (1.0 + 0.1 * math.sin(n))))
    assert not beh.exact
    assert beh.verdict in ("diverges", "inconclusive")


def test_sigma_telescoping_exact():
    # interleaved lengths telescope: sigma follows each branch separately
    flute = cl.two_parameter_flute(3.0, 5.0)
    beh = cl.classify_sigma_series(flute.lengths)
    assert beh.method == "bertrand-exact"
    # min(a, b)/2 = 1.5 < ... converges iff min(a,b) > 2; here min = 3 > 2
    assert beh.verdict == "converges"
    beh = cl.classify_sigma_series(cl.two_parameter_flute(1.5, 5.0).lengths)
    assert beh.verdict == "diverges"


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(min_value=0.01, max_value=10.0),
    b=st.floats(min_value=0.01, max_value=10.0),
    # shifts s whose s + 1 is exact, so that the shape is matched exactly
    s=st.floats(min_value=-0.9, max_value=10.0).filter(
        lambda s: Fraction(s + 1.0) == Fraction(s) + 1),
    c=st.floats(min_value=-5.0, max_value=5.0),
    l1=st.floats(min_value=0.01, max_value=10.0),
)
def test_telescoping_closed_form_holds_on_the_matched_shape(a, b, s, c, l1):
    # l_{2k} = a ln(k+s+1) + b ln(k+s) + c, l_{2k+1} = (a+b) ln(k+s+1) + c,
    # the odd branch as two log terms at the shift s + 1
    tail = lambda odd: sf.AlternatingLogAffine(
        even=sf.LogAffine(log_terms=((a, s + 1.0), (b, s)), const=c),
        odd=sf.LogAffine(log_terms=odd, const=c),
    )
    lengths = sf.ExplicitPrefixThenTail(
        values=(l1,), tail=tail(((a, s + 1.0), (b, s + 1.0))))
    assert cl._telescoping_branches(lengths) == (a, b)
    # one odd term a + b is matched only where the float sum is exact
    rounded = sf.ExplicitPrefixThenTail(
        values=(l1,), tail=tail(((a + b, s + 1.0),)))
    exact_sum = Fraction(a + b) == Fraction(a) + Fraction(b)
    assert cl._telescoping_branches(rounded) == ((a, b) if exact_sum else None)
    sigma = sf.sigma_sequence(lengths, 401)  # sigma[n - 1] is sigma_n
    k = np.arange(1, 201)
    even = sigma[2 * k - 1] - a * np.log(k + s + 1.0)
    odd = sigma[2 * k] - b * np.log(k + s + 1.0)
    # constant in k, at the values sigma_2 and sigma_3 give
    const = b * math.log(s + 1.0) + c - l1
    assert np.max(np.abs(even - const)) < 1e-9
    assert np.max(np.abs(odd - (c - const))) < 1e-9


def _alternating_half_twist(a_even, a_odd):
    """Config of a half-twisted flute with l_1 = 1 and branches a ln(k+1)."""
    branch = lambda a: {"kind": "log_affine", "a": a, "n0": 1.0}
    return {"type": "flute",
            "lengths": {"kind": "prefix", "values": [1.0],
                        "tail": {"kind": "alternating", "even": branch(a_even),
                                 "odd": branch(a_odd)}},
            "twists": {"kind": "constant", "value": 0.5}}


@pytest.mark.parametrize("a_even, a_odd, code, text", [
    # sigma runs to -inf on the odd indices: e^{-sigma/2} overflows (n = 1093)
    (7.0, 5.0, 3, "numeric failure: math range error"),
    (5.0, 5.0, 0, '"kind": "Unknown"'),
])
def test_sigma_overflow_exit_codes(tmp_path, capsys, a_even, a_odd, code, text):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_alternating_half_twist(a_even, a_odd)))
    assert cli.main(["classify", "--config", str(path)]) == code
    captured = capsys.readouterr()
    assert text in (captured.err if code else captured.out)
    # the same in a fresh interpreter, where the sigma build is the first
    # use of numpy
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "hypcollar.cli", "classify", "--config", str(path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code,) + captured


def test_sigma_path_raises_no_warning():
    alternating = lambda a_even, a_odd: sf.ExplicitPrefixThenTail(
        values=(1.0,), tail=sf.AlternatingLogAffine(
            even=sf.log_affine(a=a_even, n0=1.0), odd=sf.log_affine(a=a_odd, n0=1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lengths in (
            sf.log_affine(a=5.0, c=0.1, n0=1.0, n1=2.0),
            sf.log_affine(a=6.0, b=5.0, c=1.0, n0=1.0, n1=2.0),
            sf.ExplicitPrefixThenTail(values=(1.0, 2.5), tail=sf.log_affine(a=6.0, n0=1.0)),
            sf.Linear(slope=1.0, intercept=1.0),
            alternating(5.0, 5.0),
        ):
            assert cl.classify_sigma_series(lengths) is None
        with pytest.raises(OverflowError, match="math range error"):
            cl.classify_sigma_series(alternating(7.0, 5.0))


# ---------------------------------------------------------------------------
# flutes
# ---------------------------------------------------------------------------


def test_nested_prefixes_are_looked_through(tmp_path, capsys):
    # l_n = 3 ln(n + 1) after the prefix converges with kappa = 1/2 (p = 3/2)
    log3 = {"kind": "log_affine", "a": 3.0, "n0": 1.0}
    prefix = lambda values, tail: {"kind": "prefix", "values": values, "tail": tail}
    outs = []
    for lengths in (prefix([1.0], prefix([2.0], log3)), prefix([1.0, 2.0], log3)):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"type": "flute", "lengths": lengths}))
        assert cli.main(["classify", "--config", str(path)]) == 0
        outs.append(json.loads(capsys.readouterr().out))
    assert outs[0]["kind"] == outs[1]["kind"] == "NotParabolic"
    assert outs[0]["series"] == outs[1]["series"]
    assert outs[0]["series"]["method"] == "bertrand-exact"


def test_bounded_lengths_always_parabolic():
    for twist in (0.0, 0.25, 0.5):
        v = cl.classify_flute(_flute(sf.Constant(3.0), twist))
        assert v.kind == "Parabolic" and v.criterion == "bounded-lengths"


def test_zero_twist_iff_table():
    for c, want in ((1.0, "Parabolic"), (2.0, "Parabolic"), (2.5, "NotParabolic")):
        v = cl.classify_flute(_flute(sf.log_affine(a=c, n0=1.0), 0.0))
        assert v.kind == want, c
        if want == "NotParabolic":
            assert v.reason == "SeriesConvergesUnderIff"


def test_half_twist_concave_iff_table():
    for c, want in ((3.0, "Parabolic"), (4.0, "Parabolic"), (4.5, "NotParabolic")):
        v = cl.classify_flute(_flute(sf.log_affine(a=c, n0=1.0), 0.5))
        assert v.kind == want, c


def test_half_twist_second_order_table():
    for c, want in ((0.0, "Parabolic"), (4.0, "Parabolic"), (5.0, "NotParabolic")):
        v = cl.classify_flute(
            _flute(sf.log_affine(a=4.0, b=c, c=0.1, n0=1.0, n1=1.0), 0.5)
        )
        assert v.kind == want, c


def test_intermediate_twist_sufficiency_only():
    # |t| = 1/4: kappa = 3/8; diverges iff a <= 8/3
    v = cl.classify_flute(_flute(sf.log_affine(a=2.5, n0=1.0), 0.25))
    assert v.kind == "Parabolic"
    v = cl.classify_flute(_flute(sf.log_affine(a=3.0, n0=1.0), 0.25))
    assert v.kind == "Unknown"  # convergence is not a proof at general twists


def test_scaled_flute_regions():
    want = {
        0.5: "Parabolic", 1.0: "Parabolic", 4.0 / 3.0: "Parabolic",
        1.5: "Unknown", 2.0: "Unknown",
        2.5: "NotParabolic", 3.0: "NotParabolic",
    }
    for s, kind in want.items():
        v = cl.classify_flute(cl.scaled_flute(s))
        assert v.kind == kind, s
        if kind == "NotParabolic":
            assert v.reason == "Incomplete"


def test_two_parameter_regions():
    cases = {
        (1.0, 1.0): ("Parabolic", None),
        (2.0, 2.0): ("Parabolic", None),
        (3.0, 0.5): ("Parabolic", None),
        (3.0, 1.5): ("Unknown", None),
        (2.5, 2.5): ("NotParabolic", "Incomplete"),
        (4.0, 2.1): ("NotParabolic", "Incomplete"),
    }
    for (a, b), (kind, reason) in cases.items():
        v = cl.classify_flute(cl.two_parameter_flute(a, b))
        assert v.kind == kind, (a, b)
        if reason:
            assert v.reason == reason


# ---------------------------------------------------------------------------
# exhaustions and covers
# ---------------------------------------------------------------------------


def test_loch_ness():
    v = cl.classify_exhaustion(sf.LochNess(lengths=sf.log_affine(a=2.0, n0=1.0)))
    assert v.kind == "Parabolic" and v.criterion == "untwisted-collar-series"
    v = cl.classify_exhaustion(sf.LochNess(lengths=sf.log_affine(a=3.0, n0=1.0)))
    assert v.kind == "Unknown"


def test_loch_ness_beta_hypothesis_recorded():
    v = cl.classify_exhaustion(
        sf.LochNess(lengths=sf.Constant(1.0), beta_bound=2.0)
    )
    assert "orthogeodesic-length-at-least-1" in v.hypotheses_assumed
    v = cl.classify_exhaustion(
        sf.LochNess(lengths=sf.Constant(1.0), beta_bound=1.0)
    )
    assert v.hypotheses_assumed == ()


def test_twisted_exhaustion_requires_hypotheses():
    spec = sf.Ladder(lengths=sf.Constant(1.0), twists=sf.Constant(0.5))
    with pytest.raises(HypothesisError):
        cl.classify_exhaustion(spec, use_twists=True)
    v = cl.classify_exhaustion(
        spec,
        use_twists=True,
        hypotheses_asserted=(
            "not-pair-of-pants", "uniform-orthogeodesic-distance",
        ),
    )
    assert v.kind == "Parabolic"
    assert v.criterion == "twisted-collar-series"
    assert "not-pair-of-pants" in v.hypotheses_assumed


def test_twists_enlarge_parabolic_region():
    # constant half twist doubles the decay constant one can afford
    spec = sf.Ladder(
        lengths=sf.log_affine(a=3.0, n0=1.0), twists=sf.Constant(0.5)
    )
    assert cl.classify_exhaustion(spec).kind == "Unknown"
    v = cl.classify_exhaustion(
        spec,
        use_twists=True,
        hypotheses_asserted=(
            "not-pair-of-pants", "uniform-orthogeodesic-distance",
        ),
    )
    assert v.kind == "Parabolic"


def test_bi_infinite_flute_dominant_branch():
    spec = sf.BiInfiniteFlute(
        lengths_pos=sf.log_affine(a=1.0, n0=1.0),
        lengths_neg=sf.log_affine(a=5.0, n0=1.0),
    )
    # 1/(A_n + B_n) ~ the faster-growing side: converges, Unknown
    assert cl.classify_exhaustion(spec).kind == "Unknown"
    spec = sf.BiInfiniteFlute(
        lengths_pos=sf.log_affine(a=1.0, n0=1.0),
        lengths_neg=sf.log_affine(a=2.0, n0=1.0),
    )
    assert cl.classify_exhaustion(spec).kind == "Parabolic"


def _alternating(even, odd):
    """Prefix [1], then even(k) at n = 2k and odd(k) at n = 2k + 1, with
    a ln(k + 1) branches."""
    return sf.ExplicitPrefixThenTail((1.0,), sf.AlternatingLogAffine(
        even=sf.log_affine(a=even, n0=1.0), odd=sf.log_affine(a=odd, n0=1.0)))


@pytest.mark.parametrize("neg, kind, detail", [
    # at odd n both ends grow like ln n, and those terms alone diverge,
    # though the positive end's even branch, 6 ln, is the fastest of all
    (sf.log_affine(a=1.0, n0=1.0), "Parabolic", "dominant p=0.5 q=0"),
    (_alternating(6.0, 1.0), "Parabolic", "dominant p=0.5 q=0"),
    # out of phase, one end grows like 6 ln n at every n
    (_alternating(1.0, 6.0), "Unknown", "dominant p=3 q=0"),
])
def test_bi_infinite_flute_pairs_the_ends_by_parity(neg, kind, detail):
    spec = sf.BiInfiniteFlute(lengths_pos=_alternating(6.0, 1.0), lengths_neg=neg)
    v = cl.classify_exhaustion(spec)
    assert (v.kind, v.series.verdict == "diverges", v.series.method, v.series.detail) == (
        kind, kind == "Parabolic", "bertrand-exact", detail)


def test_bi_infinite_unknown_lists_the_asserted_hypotheses():
    asserted = ("not-pair-of-pants", "uniform-orthogeodesic-distance")
    for twists in (sf.Constant(0.5), sf.Linear(slope=0.01)):
        spec = sf.BiInfiniteFlute(
            lengths_pos=sf.log_affine(a=3.0, n0=1.0),
            lengths_neg=sf.log_affine(a=5.0, n0=1.0),
            twists_pos=twists,
        )
        v = cl.classify_exhaustion(spec, use_twists=True,
                                   hypotheses_asserted=asserted)
        assert v.kind == "Unknown"
        assert v.hypotheses_assumed == tuple(sorted(
            asserted + ("orthogeodesic-length-at-least-1",)))


def test_bounded_boundary_count_exponent():
    # terms e^{-l_n/2} / n^p: with l_n = 2 ln n, diverges iff p <= 0
    lengths = sf.log_affine(a=2.0, n0=1.0)
    v = cl.classify_exhaustion(sf.BoundedBoundary(lengths=lengths))
    assert v.kind == "Parabolic"
    v = cl.classify_exhaustion(
        sf.BoundedBoundary(lengths=lengths, count_exponent=1.0)
    )
    assert v.kind == "Unknown"


def test_cantor_tree():
    v = cl.classify_exhaustion(
        sf.CantorTree(level_lengths=sf.ScaledPowerDecay(coef=0.5, base=2.0))
    )
    assert v.kind == "Parabolic" and v.criterion == "tree-collar-series"
    v = cl.classify_exhaustion(sf.CantorTree(level_lengths=sf.Constant(1.0)))
    assert v.kind == "Unknown"
    # lengths bounded below: terms <= C 2^-n, an exact convergence statement
    assert (v.series.verdict, v.series.method) == ("converges", "bertrand-exact")
    # a finite prefix does not hide a divergent power-decay tail
    v = cl.classify_exhaustion(sf.CantorTree(level_lengths=sf.ExplicitPrefixThenTail(
        values=(1.0,), tail=sf.ScaledPowerDecay(coef=1.0, base=3.0))))
    assert v.kind == "Parabolic" and v.series.verdict == "diverges"


@pytest.mark.parametrize("bases, kind, detail", [
    # l_{2k} = c k / base^k over 4^k boundary curves: terms ~ (base / 4)^k / k
    ((3.9, 2.0), "Unknown", "terms decay geometrically"),
    ((4.0, 2.0), "Parabolic", "p=1 q=0"),
    ((2.0, 5.0), "Parabolic", "terms grow geometrically"),
])
def test_cantor_tree_with_alternating_power_decay(bases, kind, detail):
    even, odd = (sf.ScaledPowerDecay(coef=1.0, base=b) for b in bases)
    lengths = sf.ExplicitPrefixThenTail(
        values=(1.0,), tail=sf.AlternatingLogAffine(even=even, odd=odd))
    v = cl.classify_exhaustion(sf.CantorTree(level_lengths=lengths))
    assert (v.kind, v.series.detail) == (kind, detail)


def _twisted_verdicts(lengths, twists):
    """Verdicts of a flute, a twisted Loch-Ness monster and a rank-1 cover."""
    return (
        cl.classify_flute(sf.FluteSpec(lengths=lengths, twists=twists)),
        cl.classify_exhaustion(
            sf.LochNess(lengths=lengths, twists=twists), use_twists=True,
            hypotheses_asserted=("not-pair-of-pants",
                                 "uniform-orthogeodesic-distance"),
        ),
        cl.classify_cover(sf.AbelianCover(rank=1, L=lengths, tau=twists)),
    )


@pytest.mark.parametrize("t", [0.0, 0.25, 0.5])
def test_slope_zero_linear_twist_is_a_constant_twist(t):
    lengths = sf.log_affine(a=3.0, n0=1.0)
    linear = _twisted_verdicts(lengths, sf.Linear(slope=0.0, intercept=t))
    assert linear == _twisted_verdicts(lengths, sf.Constant(t))
    assert all(v.series.exact for v in linear)
    if t == 0.5:
        assert linear[0].criterion == "half-twist-series"


def test_twisted_series_heuristic_for_varying_twists():
    # a twist sequence that is not constant takes the partial-sum fallback
    lengths = sf.log_affine(a=2.0, n0=1.0)
    twists = sf.Linear(slope=1e-7, intercept=0.25)
    for v in (
        cl.classify_flute(sf.FluteSpec(lengths=lengths, twists=twists)),
        cl.classify_cover(sf.AbelianCover(rank=1, L=lengths, tau=twists)),
    ):
        assert not v.series.exact


def test_covers():
    v = cl.classify_cover(
        sf.AbelianCover(rank=1, L=sf.Constant(3.0))
    )
    assert v.kind == "Parabolic" and v.criterion == "cover-rank1-series"

    v = cl.classify_cover(
        sf.AbelianCover(rank=1, L=sf.Constant(3.0), tau=sf.Constant(0.5))
    )
    assert v.kind == "Parabolic"

    v = cl.classify_cover(
        sf.AbelianCover(rank=2, config="disjoint-pair",
                        L=sf.log_affine(b=2.0, n1=2.0))
    )
    assert v.kind == "Parabolic" and v.criterion == "cover-rank2-disjoint-series"

    v = cl.classify_cover(
        sf.AbelianCover(rank=2, config="intersecting-pair",
                        eps=sf.Constant(0.5), ell=sf.Linear(slope=2.0))
    )
    assert v.kind == "Parabolic" and v.criterion == "cover-collar-width-series"

    v = cl.classify_cover(sf.AbelianCover(rank=3, L=sf.Constant(1.0)))
    assert v.kind == "Unknown" and v.criterion == "cover-rank3-series"


def test_verdict_as_dict_shape():
    v = cl.classify_flute(_flute(sf.Constant(1.0), 0.0))
    d = v.as_dict()
    assert d["kind"] == "Parabolic"
    assert set(d) == {"kind", "reason", "criterion", "series",
                      "hypotheses_assumed"}
    assert d["series"]["verdict"] == "diverges"


def test_sweeps_shape():
    rows = cl.sweep_two_parameter((1.0, 3.0), (1.0, 3.0))
    assert len(rows) == 4
    assert {r["kind"] for r in rows} <= {"Parabolic", "NotParabolic", "Unknown"}
    rows = cl.sweep_scaled((1.0, 2.5))
    assert [r["kind"] for r in rows] == ["Parabolic", "NotParabolic"]
