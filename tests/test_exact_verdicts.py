"""Exact series verdicts: boundary cases one ulp apart, and metamorphic
relations between the verdicts of related surfaces.

The expected verdict of a boundary case comes from a rational comparison
written out here; every float input is the rational number it denotes.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hypcollar import classifier as cl
from hypcollar import cli
from hypcollar import surfaces as sf

_HYPOTHESES = ("not-pair-of-pants", "uniform-orthogeodesic-distance")
_RANK = {"NotParabolic": 0, "Unknown": 1, "Parabolic": 2}


def _around(x):
    """x one ulp below, x itself and x one ulp above."""
    return (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))


def _log(a):
    return sf.log_affine(a=a, n0=1.0)


# ---------------------------------------------------------------------------
# one ulp either side of each boundary
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a", _around(2.0))
def test_zero_twist_boundary_at_a_2(a):
    # sum (n + 1)^{-a/2} diverges iff a/2 <= 1
    v = cl.classify_flute(sf.FluteSpec(lengths=_log(a)))
    p = Fraction(a) / 2
    assert v.kind == ("Parabolic" if p <= 1 else "NotParabolic")
    assert v.series.detail == "p=%s q=0 r=0" % ("1" if p == 1 else repr(a / 2))


def test_the_defect_config_reads_not_parabolic(tmp_path, capsys):
    # p = 1.000000000000005: the series converges, and the detail says so
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"type": "flute", "lengths": {
        "kind": "log_affine", "a": 2.00000000000001, "n0": 1.0}}))
    assert cli.main(["classify", "--config", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "NotParabolic"
    assert out["series"]["detail"] == "p=1.000000000000005 q=0 r=0"
    assert Fraction(2.00000000000001) / 2 > 1


@pytest.mark.parametrize("a", _around(4.0))
def test_half_twist_boundary_at_a_4(a):
    # kappa = 1/4: diverges iff a/4 <= 1; concave lengths make it an iff
    v = cl.classify_flute(sf.FluteSpec(lengths=_log(a), twists=sf.Constant(0.5)))
    assert v.kind == ("Parabolic" if Fraction(a) / 4 <= 1 else "NotParabolic")
    assert v.criterion == "half-twist-series"


@pytest.mark.parametrize("x", _around(2.0))
@pytest.mark.parametrize("small_first", [True, False])
def test_sigma_branch_boundary_at_min_2(x, small_first):
    # a + b > 4, so the half-twist series converges; the sigma branches
    # converge iff min(a, b) / 2 > 1
    a, b = (x, 3.0) if small_first else (3.0, x)
    v = cl.classify_flute(cl.two_parameter_flute(a, b))
    assert Fraction(a) + Fraction(b) > 4
    if min(Fraction(a), Fraction(b)) / 2 > 1:
        assert (v.kind, v.reason) == ("NotParabolic", "Incomplete")
    else:
        assert v.kind == "Unknown"
    assert v.series.method == "bertrand-exact"


@pytest.mark.parametrize("a, b", [(0.3, 3.7), (0.5, 3.5), (1.8, 2.2)])
def test_two_parameter_diagonal_is_decided_by_the_binary_sum(a, b):
    # a + b = 4 in decimal; the floats' exact sum decides the half-twist series
    v = cl.classify_flute(cl.two_parameter_flute(a, b))
    exact = Fraction(a) + Fraction(b)
    assert v.kind == ("Parabolic" if exact <= 4 else "Unknown"), exact - 4


@pytest.mark.parametrize("a", _around(2.0))
@pytest.mark.parametrize("swap", [False, True])
def test_bi_infinite_dominance_boundary(a, swap):
    # the end with the faster-growing lengths dominates: p = max(a, 1) / 2
    ends = (_log(a), _log(1.0))
    pos, neg = ends[::-1] if swap else ends
    v = cl.classify_exhaustion(sf.BiInfiniteFlute(lengths_pos=pos, lengths_neg=neg))
    p = max(Fraction(a), Fraction(1)) / 2
    assert v.kind == ("Parabolic" if p <= 1 else "Unknown")


@pytest.mark.parametrize("s1", _around(3.0))
def test_cover_length_factor_boundary_at_a_vanishing_moment(s1):
    # l_n = -ln(n + s1) + 2 ln(n + 2) - ln(n + 1) vanishes like (3 - s1)/n,
    # or like 1/n^2 at s1 = 3; a rank-4 cover sums e^{-l_n/2} n^{-3} / l_n,
    # comparable to n^{k - 3} for l_n ~ 1/n^k.  Above s1 = 3 the lengths turn
    # negative for large n (from about n = 2e15), which makes a config error.
    lengths = sf.LogAffine(log_terms=((-1.0, s1), (2.0, 2.0), (-1.0, 1.0)))
    moment = -Fraction(s1) + 2 * 2 - 1
    k = 1 if moment else 2
    assert lengths.vanishing_order == k
    if moment < 0:
        with pytest.raises(sf.SpecError, match="^L: .* turn negative"):
            sf.AbelianCover(rank=4, L=lengths)
        return
    v = cl.classify_cover(sf.AbelianCover(rank=4, L=lengths))
    assert v.kind == ("Parabolic" if (3 - k, 0, 0) <= (1, 1, 1) else "Unknown")


@pytest.mark.parametrize("parts", [1, 2])
@pytest.mark.parametrize("step", [-1, 0, 1])
def test_cantor_tree_boundary_at_base_2_to_the_m(parts, step):
    # along m branches the terms are comparable to (base / 2^m)^k / k
    base = _around(2.0 ** parts)[step + 1]
    leaf = sf.ScaledPowerDecay(coef=1.0, base=base)
    lengths = leaf if parts == 1 else sf.ExplicitPrefixThenTail(
        (1.0,), sf.AlternatingLogAffine(even=leaf, odd=leaf))
    v = cl.classify_exhaustion(sf.CantorTree(level_lengths=lengths))
    assert v.kind == ("Parabolic" if Fraction(base) >= 2 ** parts else "Unknown")


@pytest.mark.parametrize("x, text", [
    (Fraction(3, 2), "1.5"),
    (math.inf, "inf"),
    (Fraction(1.000000000000005), "1.000000000000005"),
    # 0.1 + 0.2 exactly is no float: the fraction is the exact value
    (Fraction(0.1) + Fraction(0.2), str(Fraction(0.1) + Fraction(0.2))),
])
def test_exponent_text_is_exact(x, text):
    assert cl._exponent_text(x) == text


# ---------------------------------------------------------------------------
# metamorphic relations
# ---------------------------------------------------------------------------

_coef = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0]),
                  st.floats(min_value=0.0, max_value=8.0))
_shift = st.sampled_from([0.0, 1.0, 2.0, 3.5])
_two = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0, 6.0]),
                 st.floats(min_value=0.05, max_value=8.0))
_positive = st.sampled_from([0.5, 1.0, 2.0, 3.0])
_log_affine = st.builds(
    sf.LogAffine,
    log_terms=st.lists(st.tuples(_coef, _shift), max_size=2).map(tuple),
    loglog_coef=st.sampled_from([0.0, 1.0, 2.0, 4.0, -1.0]),
    loglog_shift=st.sampled_from([2.0, 3.0]),
    const=_positive,
)
_leaf = st.one_of(
    _log_affine,
    st.builds(sf.Constant, _positive),
    st.builds(sf.Linear, st.sampled_from([0.0, 0.5, 1.0]), _positive),
)
_decay = st.builds(sf.ScaledPowerDecay, _positive, st.sampled_from([1.5, 2.0, 3.0]))


@st.composite
def _lengths(draw, leaf=st.one_of(_leaf, _decay)):
    """A leaf or an alternating pair of log-affine leaves (the two-parameter
    shape among them), under up to two prefixes; a valid length spec."""
    kind = draw(st.sampled_from(["leaf", "alternating", "two-parameter"]))
    if kind == "leaf":
        spec = draw(leaf)
    elif kind == "alternating":
        spec = sf.ExplicitPrefixThenTail((1.0,), sf.AlternatingLogAffine(
            draw(_log_affine), draw(_log_affine)))
    else:
        spec = cl.two_parameter_flute(draw(_two), draw(_two)).lengths
    for values in draw(st.lists(st.lists(_positive, min_size=1, max_size=2),
                                max_size=2)):
        spec = sf.ExplicitPrefixThenTail(tuple(values), spec)
    try:
        sf.validate_lengths(spec)
    except sf.SpecError:
        assume(False)
    return spec


_twist = st.one_of(st.sampled_from([0.0, 0.125, 0.25, 0.375, 0.5, -0.25]),
                   st.floats(min_value=-0.49, max_value=0.5))
_KINDS = ("flute", "loch_ness", "ladder", "bounded_boundary", "bi_infinite",
          "cantor", "cover_rank1", "cover_disjoint", "cover_intersecting",
          "cover_rank3")
# the surfaces whose series has terms e^{-kappa l_n}, kappa from a constant
# twist, and no factor 1 / l_n
_TWISTED = _KINDS[:5] + ("cover_rank1", "cover_disjoint")


def _surface(kind, lengths, twist=0.0, other=None, other_twist=None):
    """A surface of `kind` whose lengths are `lengths` and whose twists are
    the constant `twist`; `other` and `other_twist` give the negative end of
    a bi-infinite flute (None: the same as the positive end)."""
    t = sf.Constant(twist)
    if kind == "flute":
        return sf.FluteSpec(lengths=lengths, twists=t)
    if kind == "loch_ness":
        return sf.BoundedBoundary(lengths=lengths, twists=t, beta_bound=1.0)
    if kind == "ladder":
        return sf.BoundedBoundary(lengths=lengths, twists=t, beta_bound=2.0)
    if kind == "bounded_boundary":
        return sf.BoundedBoundary(lengths=lengths, twists=t, count_exponent=0.5)
    if kind == "bi_infinite":
        return sf.BiInfiniteFlute(
            lengths_pos=lengths, lengths_neg=lengths if other is None else other,
            twists_pos=t,
            twists_neg=t if other_twist is None else sf.Constant(other_twist))
    if kind == "cantor":
        return sf.CantorTree(level_lengths=lengths)
    if kind == "cover_rank1":
        return sf.AbelianCover(rank=1, L=lengths, tau=t)
    if kind == "cover_disjoint":
        return sf.AbelianCover(rank=2, config="disjoint-pair", L=lengths, tau=t)
    if kind == "cover_intersecting":
        return sf.AbelianCover(rank=2, config="intersecting-pair",
                               eps=sf.Constant(0.5), ell=lengths)
    return sf.AbelianCover(rank=3, L=lengths)


def _verdict(surface, use_twists=True):
    """The verdict as a dict, or None where the sigma run overflows (exit 3,
    no verdict)."""
    try:
        return cl.classify_exhaustion(
            surface, use_twists=use_twists,
            hypotheses_asserted=_HYPOTHESES if use_twists else ()).as_dict()
    except OverflowError:
        return None


def _comparable(*verdicts):
    assume(all(v is not None for v in verdicts))
    return verdicts


def _shifted(spec, c):
    """The length spec with c added to every term."""
    if isinstance(spec, sf.ExplicitPrefixThenTail):
        return sf.ExplicitPrefixThenTail(tuple(v + c for v in spec.values),
                                         _shifted(spec.tail, c))
    if isinstance(spec, sf.AlternatingLogAffine):
        return sf.AlternatingLogAffine(_shifted(spec.even, c), _shifted(spec.odd, c))
    if isinstance(spec, sf.LogAffine):
        return sf.LogAffine(spec.log_terms, spec.loglog_coef, spec.loglog_shift,
                            spec.const + c)
    if isinstance(spec, sf.Linear):
        return sf.Linear(spec.slope, spec.intercept + c)
    return sf.Constant(spec.value + c)


def _lengthened(spec, a, c):
    """The length spec with a ln(n + 1) + c >= 0 added to every term (to
    every value of a prefix, c), or a power decay scaled by 1 + a + c."""
    if isinstance(spec, sf.ExplicitPrefixThenTail):
        return sf.ExplicitPrefixThenTail(tuple(v + c for v in spec.values),
                                         _lengthened(spec.tail, a, c))
    if isinstance(spec, sf.AlternatingLogAffine):
        return sf.AlternatingLogAffine(_lengthened(spec.even, a, c),
                                       _lengthened(spec.odd, a, c))
    if isinstance(spec, sf.LogAffine):
        return sf.LogAffine(spec.log_terms + ((a, 1.0),), spec.loglog_coef,
                            spec.loglog_shift, spec.const + c)
    if isinstance(spec, sf.Linear):  # a ln(n + 1) <= a n
        return sf.Linear(spec.slope + a, spec.intercept + c)
    if isinstance(spec, sf.ScaledPowerDecay):  # a shape that stays one
        return sf.ScaledPowerDecay(spec.coef * (1.0 + a + c), spec.base)
    return sf.LogAffine(((a, 1.0),), const=spec.value + c)


_settings = settings(max_examples=60, deadline=None)


@_settings
@given(kind=st.sampled_from(_TWISTED), lengths=_lengths(), other=_lengths(),
       t=_twist.filter(lambda t: t != 0.5), use_twists=st.booleans())
def test_mirrored_twists_give_the_same_verdict(kind, lengths, other, t, use_twists):
    verdict = lambda t: _verdict(_surface(kind, lengths, t, other, t), use_twists)
    a, b = _comparable(verdict(t), verdict(-t))
    assert a == b


@_settings
@given(kind=st.sampled_from(_TWISTED), lengths=_lengths(_leaf), t=_twist,
       c=st.sampled_from([0.25, 1.0, 3.0]))
def test_a_constant_added_to_the_lengths_keeps_the_verdict(kind, lengths, t, c):
    a, b = _comparable(_verdict(_surface(kind, lengths, t)),
                       _verdict(_surface(kind, _shifted(lengths, c), t)))
    assert a == b


@_settings
@given(kind=st.sampled_from(_KINDS), lengths=_lengths(),
       a=st.sampled_from([0.0, 0.5, 2.0]), c=st.sampled_from([0.0, 1.0]))
def test_longer_untwisted_lengths_never_raise_the_verdict(kind, lengths, a, c):
    shorter, longer = _comparable(
        _verdict(_surface(kind, lengths), use_twists=False),
        _verdict(_surface(kind, _lengthened(lengths, a, c)), use_twists=False))
    assert _RANK[longer["kind"]] <= _RANK[shorter["kind"]]


@_settings
@given(kind=st.sampled_from(_TWISTED), lengths=_lengths(), t=_twist, u=_twist)
def test_more_twist_never_lowers_a_parabolic_verdict(kind, lengths, t, u):
    t, u = sorted((t, u), key=abs)
    less, more = _comparable(_verdict(_surface(kind, lengths, t)),
                             _verdict(_surface(kind, lengths, u)))
    if less["kind"] == "Parabolic":
        assert more["kind"] == "Parabolic"


@_settings
@given(pos=_lengths(), neg=_lengths(), t=_twist, u=_twist,
       use_twists=st.booleans())
def test_swapping_the_ends_of_a_bi_infinite_flute(pos, neg, t, u, use_twists):
    a, b = _comparable(_verdict(_surface("bi_infinite", pos, t, neg, u), use_twists),
                       _verdict(_surface("bi_infinite", neg, u, pos, t), use_twists))
    assert a == b


@_settings
@given(lengths=_lengths(), t=_twist.filter(lambda t: t not in (0.0, 0.5)))
# the ends alternate 6 ln and ln: the odd terms alone diverge
@example(lengths=sf.ExplicitPrefixThenTail((1.0,), sf.AlternatingLogAffine(
    _log(6.0), _log(1.0))), t=0.25)
def test_equal_ends_have_the_series_of_the_one_ended_flute(lengths, t):
    # 1 / (e^{k l_n} + e^{k l_n}) is half of e^{-k l_n}: the one-ended
    # series, that of the zero-twist flute and, twisted, of the Loch-Ness
    # monster along the same lengths
    both = _verdict(_surface("bi_infinite", lengths), use_twists=False)
    flute = cl.classify_flute(sf.FluteSpec(lengths=lengths))
    assert both["series"]["verdict"] == flute.series.verdict
    both = _verdict(_surface("bi_infinite", lengths, t))
    one = _verdict(_surface("loch_ness", lengths, t))
    assert both["series"]["verdict"] == one["series"]["verdict"]


@_settings
@given(kind=st.sampled_from(_KINDS), lengths=_lengths(), t=_twist,
       values=st.lists(_positive, min_size=1, max_size=3))
# the sigma series telescopes behind any prefix
@example(kind="flute", lengths=cl.two_parameter_flute(3.0, 3.0).lengths, t=0.5,
         values=[1.0])
def test_adding_or_stripping_prefixes_keeps_the_verdict(kind, lengths, t, values):
    stripped = lengths
    while isinstance(stripped, sf.ExplicitPrefixThenTail) and not isinstance(
            stripped.tail, sf.AlternatingLogAffine):
        stripped = stripped.tail
    added = sf.ExplicitPrefixThenTail(tuple(values), lengths)
    verdicts = _comparable(*(_verdict(_surface(kind, spec, t))
                             for spec in (lengths, stripped, added)))
    assert len({v["series"]["verdict"] for v in verdicts}) == 1
    kinds = {v["kind"] for v in verdicts}
    if len(kinds) > 1:
        # a prefix hides the concavity that the half-twist iff needs, so a
        # NotParabolic verdict may become Unknown, never Parabolic
        assert kinds == {"NotParabolic", "Unknown"}
        assert {v["criterion"] for v in verdicts} == {"half-twist-series"}
