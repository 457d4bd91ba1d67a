import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypcollar import surfaces as sf


def test_log_affine_terms():
    spec = sf.log_affine(a=2.0, b=0.5, c=1.0, n0=1.0, n1=2.0)
    want = 2.0 * math.log(8.0) + 0.5 * math.log(math.log(9.0)) + 1.0
    assert spec.term(7) == pytest.approx(want, rel=1e-15)
    assert not spec.is_bounded
    assert sf.log_affine(c=3.0).is_bounded


def test_log_affine_multiple_log_terms():
    spec = sf.LogAffine(log_terms=((1.0, 1.0), (2.0, 0.0)))
    assert spec.term(5) == pytest.approx(math.log(6.0) + 2.0 * math.log(5.0))
    assert spec.log_coef_sum == 3.0


def test_cancelling_log_terms_are_bounded_and_vanish_like_a_power():
    # ln(n+3) - 2 ln(n+2) + ln(n+1) ~ -1/n^2: the first moment 3 - 4 + 1 is 0
    spec = sf.LogAffine(log_terms=((1.0, 3.0), (-2.0, 2.0), (1.0, 1.0)))
    assert spec.is_bounded and spec.vanishing_order == 2
    assert spec.term(10**4) * 1e8 == pytest.approx(-1.0, rel=1e-3)
    assert sf.LogAffine(log_terms=((1.0, 2.0), (-1.0, 1.0))).vanishing_order == 1


def test_alternating_and_prefix():
    alt = sf.AlternatingLogAffine(
        even=sf.LogAffine(log_terms=((1.0, 1.0), (2.0, 0.0))),
        odd=sf.LogAffine(log_terms=((3.0, 1.0),)),
    )
    seq = sf.ExplicitPrefixThenTail(values=(0.7,), tail=alt)
    assert seq.term(1) == 0.7
    assert seq.term(4) == pytest.approx(math.log(3.0) + 2.0 * math.log(2.0))
    assert seq.term(5) == pytest.approx(3.0 * math.log(3.0))
    with pytest.raises(sf.SpecError):
        alt.term(1)


def test_scaled_power_decay():
    spec = sf.ScaledPowerDecay(coef=1.0, base=2.0)
    assert spec.term(3) == pytest.approx(3.0 / 8.0)
    assert spec.is_bounded
    with pytest.raises(sf.SpecError):
        sf.ScaledPowerDecay(coef=1.0, base=0.5)


def test_validate_lengths_rejects_nonpositive():
    with pytest.raises(sf.SpecError):
        sf.validate_lengths(sf.Linear(slope=-1.0, intercept=5.0))
    with pytest.raises(sf.SpecError):
        sf.validate_lengths(sf.Constant(0.0))
    assert sf.validate_lengths(sf.Constant(2.0))


@pytest.mark.parametrize("spec", [
    # positive on the first 64 terms, negative far out
    sf.log_affine(a=-1.0, c=10.0),
    sf.Linear(slope=-1.0, intercept=100.0),
    sf.LogAffine(log_terms=((1.0, 1.0), (-1.0, 0.0)), loglog_coef=-0.1, const=5.0),
    sf.ExplicitPrefixThenTail(values=(1.0,), tail=sf.Linear(slope=-0.5, intercept=80.0)),
    sf.ExplicitPrefixThenTail(values=(1.0,), tail=sf.AlternatingLogAffine(
        even=sf.log_affine(a=1.0, n0=1.0), odd=sf.log_affine(a=-1.0, c=20.0))),
])
def test_validate_lengths_reads_the_shape(spec):
    with pytest.raises(sf.SpecError):
        sf.validate_lengths(spec)
    with pytest.raises(sf.SpecError):
        sf.FluteSpec(lengths=spec)


@pytest.mark.parametrize("branch", [
    sf.ExplicitPrefixThenTail(values=(1.0,), tail=sf.log_affine(a=1.0, n0=1.0)),
    sf.AlternatingLogAffine(even=sf.log_affine(a=1.0, n0=1.0),
                            odd=sf.log_affine(a=1.0, n0=1.0)),
])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_validate_lengths_rejects_nested_branches(branch, parity):
    branches = {"even": sf.log_affine(a=1.0, n0=1.0),
                "odd": sf.log_affine(a=2.0, n0=1.0), parity: branch}
    spec = sf.ExplicitPrefixThenTail(values=(1.0,),
                                     tail=sf.AlternatingLogAffine(**branches))
    with pytest.raises(sf.SpecError, match="^ell: "):
        sf.validate_lengths(spec, "ell")


def test_branches_look_through_every_prefix():
    log1, log2 = sf.log_affine(a=1.0, n0=1.0), sf.log_affine(a=2.0, n0=1.0)
    alt = sf.AlternatingLogAffine(even=log1, odd=log2)
    nested = sf.ExplicitPrefixThenTail((1.0,), sf.ExplicitPrefixThenTail((2.0, 3.0), alt))
    assert sf.branches(nested) == (log1, log2)
    assert sf.branches(sf.ExplicitPrefixThenTail((1.0,), log1)) == (log1,)
    assert sf.branches(log2) == (log2,)


def test_validate_lengths_accepts_nonnegative_leading_coefficients():
    for spec in (
        sf.Linear(slope=0.0, intercept=1.0),
        sf.log_affine(a=1.0, b=-1.0, c=1.0, n1=2.0),
        sf.log_affine(b=1.0, c=-0.5, n1=20.0),
    ):
        assert sf.validate_lengths(spec)


def test_sigma_identity_exact():
    lengths = sf.log_affine(a=3.0, c=0.5, n0=1.0)
    sigma = sf.sigma_sequence(lengths, 1000)
    terms = lengths.terms(1, 1000)
    assert sigma[0] == terms[0]
    for n in range(1, 1000):
        assert abs(sigma[n] + sigma[n - 1] - terms[n]) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(min_value=0.0, max_value=10.0),
    c=st.floats(min_value=0.1, max_value=5.0),
)
def test_sigma_identity_property(a, c):
    lengths = sf.log_affine(a=a, c=c, n0=1.0)
    sigma = sf.sigma_sequence(lengths, 300)
    terms = lengths.terms(1, 300)
    assert all(
        abs(sigma[n] + sigma[n - 1] - terms[n]) < 1e-12 for n in range(1, 300)
    )


_coef = st.floats(min_value=0.0, max_value=8.0)
_shift = st.floats(min_value=0.0, max_value=5.0)
_log_affine = st.builds(
    sf.LogAffine,
    log_terms=st.lists(st.tuples(_coef, _shift), max_size=3).map(tuple),
    loglog_coef=_coef,
    loglog_shift=st.floats(min_value=2.0, max_value=5.0),
    const=st.floats(min_value=0.1, max_value=5.0),
)
_alternating = st.builds(sf.AlternatingLogAffine, even=_log_affine, odd=_log_affine)
_shapes = st.one_of(
    _log_affine,
    _alternating,
    st.builds(sf.Constant, st.floats(min_value=0.1, max_value=5.0)),
    st.builds(sf.Linear, _coef, st.floats(min_value=0.1, max_value=5.0)),
    st.builds(sf.ScaledPowerDecay, st.floats(min_value=0.1, max_value=5.0),
              st.floats(min_value=1.1, max_value=4.0)),
    st.builds(sf.ExplicitPrefixThenTail,
              st.lists(st.floats(min_value=0.1, max_value=5.0), max_size=4).map(tuple),
              st.one_of(_log_affine, _alternating)),
)


def _outcome(fn):
    """Return value of fn(), or the type and message of the error it raises."""
    try:
        return fn()
    except (sf.SpecError, OverflowError) as exc:
        return (type(exc), str(exc))


@settings(max_examples=150, deadline=None)
@given(spec=_shapes, start=st.sampled_from([1, 2]), count=st.integers(0, 300))
def test_sequence_terms_match_term(spec, start, count):
    n_max = start + count - 1
    got = _outcome(lambda: spec.terms(start, n_max))
    want = _outcome(lambda: [spec.term(n) for n in range(start, n_max + 1)])
    if isinstance(want, tuple):
        # an alternating tail refuses n = 1, with the scalar message
        assert got == want
        return
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert len(got) == len(want)
    for g, w in zip(got.tolist(), want):
        assert math.isclose(g, w, rel_tol=1e-14, abs_tol=0.0), (g, w)


def _scalar_sigma(terms):
    sigma, prev = [], 0.0
    for l in terms:
        prev = l - prev
        sigma.append(prev)
    return np.array(sigma)


@settings(max_examples=80, deadline=None)
@given(spec=_shapes, n_max=st.integers(0, 300))
def test_sigma_sequence_is_the_recurrence_bit_for_bit(spec, n_max):
    sigma = _outcome(lambda: sf.sigma_sequence(spec, n_max))
    terms = _outcome(lambda: spec.terms(1, n_max))
    if isinstance(terms, tuple):
        assert sigma == terms
        return
    assert sigma.tobytes() == _scalar_sigma(terms.tolist()).tobytes()


def test_sigma_sequence_long_run_bit_for_bit():
    lengths = sf.ExplicitPrefixThenTail(values=(1.0,), tail=sf.AlternatingLogAffine(
        even=sf.log_affine(a=7.0, n0=1.0), odd=sf.log_affine(a=5.0, n0=1.0)))
    sigma = sf.sigma_sequence(lengths, 200_000)
    terms = lengths.terms(1, 200_000).tolist()
    assert sigma.tobytes() == _scalar_sigma(terms).tobytes()


# three blocks, the last of three terms
_BLOCKS_N = 2 * sf._SIGMA_BLOCK + 3
_ALTERNATING = sf.AlternatingLogAffine(even=sf.log_affine(a=7.0, n0=1.0),
                                       odd=sf.log_affine(a=5.0, b=2.0, n0=0.5, n1=2.0))


@pytest.mark.parametrize("spec", [
    sf.log_affine(a=5.0, b=2.0, c=0.1, n0=1.0, n1=2.0),
    sf.Linear(slope=0.75, intercept=1.0),
    # the alternating tail starts at n = 4, on the even branch, behind three
    # values, and at n = 3, on the odd one, behind two
    sf.ExplicitPrefixThenTail(values=(1.0, 2.0, 3.0), tail=_ALTERNATING),
    sf.ExplicitPrefixThenTail(values=(1.0, 2.0), tail=_ALTERNATING),
], ids=["log-loglog", "linear", "alternating-odd-prefix", "alternating-even-prefix"])
def test_sigma_sequence_is_the_recurrence_across_blocks(spec):
    sigma = sf.sigma_sequence(spec, _BLOCKS_N)
    terms = spec.terms(1, _BLOCKS_N).tolist()
    assert sigma.tobytes() == _scalar_sigma(terms).tobytes()


@pytest.mark.parametrize("spec, message", [
    (sf.log_affine(a=1.0, n0=-3.0), "log argument nonpositive at n = 1"),
    (sf.ExplicitPrefixThenTail(values=(1.0, 2.0), tail=sf.log_affine(a=1.0, n0=-3.0)),
     "log argument nonpositive at n = 3"),
    (_ALTERNATING, "alternating specs start at n = 2; supply a prefix for n = 1"),
    # the tail opens the second block
    (sf.ExplicitPrefixThenTail(values=(1.0,) * sf._SIGMA_BLOCK,
                               tail=sf.log_affine(a=1.0, n0=-sf._SIGMA_BLOCK - 1.0)),
     "log argument nonpositive at n = %d" % (sf._SIGMA_BLOCK + 1)),
    # the tail's one term in the first block is even; its odd branch, which
    # fails from its first index, k = _SIGMA_BLOCK / 2, opens the second block
    (sf.ExplicitPrefixThenTail(
        values=(1.0,) * (sf._SIGMA_BLOCK - 1),
        tail=sf.AlternatingLogAffine(even=sf.log_affine(a=1.0),
                                     odd=sf.log_affine(a=1.0, n0=-sf._SIGMA_BLOCK / 2))),
     "log argument nonpositive at n = %d" % (sf._SIGMA_BLOCK // 2)),
], ids=["log", "prefix", "alternating", "tail-at-block-edge", "branch-at-block-edge"])
def test_sigma_sequence_over_blocks_keeps_the_first_error(spec, message):
    with pytest.raises(sf.SpecError) as run:
        spec.terms(1, _BLOCKS_N)
    assert str(run.value) == message
    with pytest.raises(sf.SpecError) as run:
        sf.sigma_sequence(spec, _BLOCKS_N)
    assert str(run.value) == message


@pytest.mark.parametrize("spec, start, message", [
    (sf.log_affine(a=1.0, n0=-3.0), 1, "log argument nonpositive at n = 1"),
    (sf.log_affine(a=1.0, n0=-3.0), 2, "log argument nonpositive at n = 2"),
    (sf.LogAffine(log_terms=((1.0, 0.0), (2.0, -4.5))), 1,
     "log argument nonpositive at n = 1"),
    (sf.log_affine(a=1.0, b=1.0, n1=-0.5), 1, "log log argument <= 1 at n = 1"),
    (sf.AlternatingLogAffine(even=sf.log_affine(a=1.0),
                             odd=sf.log_affine(a=1.0, n0=-1.5)), 2,
     "log argument nonpositive at n = 1"),
    # both branches fail; the run meets the odd one first, at n = 3
    (sf.AlternatingLogAffine(even=sf.log_affine(a=1.0, n0=-5.0),
                             odd=sf.log_affine(b=1.0, n1=-0.5)), 3,
     "log log argument <= 1 at n = 1"),
    (sf.AlternatingLogAffine(even=sf.log_affine(a=1.0), odd=sf.log_affine(a=1.0)), 1,
     "alternating specs start at n = 2; supply a prefix for n = 1"),
    (sf.Linear(slope=1.0), 0, "indices start at n = 1"),
])
def test_sequence_terms_keep_the_scalar_errors(spec, start, message):
    with pytest.raises(sf.SpecError) as scalar:
        for n in range(start, 50):
            spec.term(n)
    assert str(scalar.value) == message
    with pytest.raises(sf.SpecError) as run:
        spec.terms(start, 50)
    assert str(run.value) == message
    if start == 1:  # sigma runs from sigma_1
        with pytest.raises(sf.SpecError) as run:
            sf.sigma_sequence(spec, 50)
        assert str(run.value) == message


def test_power_decay_terms_keep_the_overflow_error():
    spec = sf.ScaledPowerDecay(coef=1.0, base=2.0)
    with pytest.raises(OverflowError):
        spec.terms(1, 2000)


def test_is_concave_verdicts():
    assert sf.is_concave(sf.Constant(2.0))
    assert sf.is_concave(sf.log_affine(a=4.0, b=1.0, c=0.1, n0=1.0))
    assert sf.is_concave(sf.Linear(slope=1.0, intercept=1.0))
    assert not sf.is_concave(sf.log_affine(a=4.0, b=-1.0, c=0.1, n0=1.0))
    # interleaved two-branch sequences are not concave in general
    alt = sf.ExplicitPrefixThenTail(
        values=(1.0,),
        tail=sf.AlternatingLogAffine(
            even=sf.LogAffine(log_terms=((3.0, 1.0), (1.0, 0.0))),
            odd=sf.LogAffine(log_terms=((4.0, 1.0),)),
        ),
    )
    assert not sf.is_concave(alt)
    # nothing is proven beyond the analytic shapes
    tail_ok = sf.ExplicitPrefixThenTail(values=(1.0, 2.0), tail=sf.log_affine(a=1.0, c=1.0))
    assert not sf.is_concave(tail_ok)


def test_flute_spec_validates_twists():
    sf.FluteSpec(lengths=sf.Constant(1.0), twists=sf.Constant(0.5))
    with pytest.raises(ValueError):
        sf.FluteSpec(lengths=sf.Constant(1.0), twists=sf.Constant(0.7))


@pytest.mark.parametrize("build, field", [
    (lambda tw: sf.FluteSpec(lengths=sf.Constant(1.0), twists=tw), "twists"),
    (lambda tw: sf.BoundedBoundary(lengths=sf.Constant(1.0), twists=tw,
                                   beta_bound=1.0), "twists"),
    (lambda tw: sf.BoundedBoundary(lengths=sf.Constant(1.0), twists=tw,
                                   count_exponent=1.0), "twists"),
    (lambda tw: sf.BoundedBoundary(lengths=sf.Constant(1.0), twists=tw), "twists"),
    pytest.param(
        lambda tw: sf.BiInfiniteFlute(sf.Constant(1.0), sf.Constant(1.0), twists_pos=tw),
        "twists", id="<lambda>-twists_pos"),
    (lambda tw: sf.BiInfiniteFlute(sf.Constant(1.0), sf.Constant(1.0), twists_neg=tw),
     "twists_neg"),
    (lambda tw: sf.AbelianCover(rank=1, L=sf.Constant(1.0), tau=tw), "tau"),
])
def test_every_surface_validates_its_twists(build, field):
    build(sf.Constant(0.5))
    build(sf.Linear(slope=0.0, intercept=-0.25))
    with pytest.raises(sf.SpecError, match=r"^%s term 1: twist must lie" % field):
        build(sf.Constant(0.7))
    # 0.02 n leaves (-1/2, 1/2] at n = 26
    with pytest.raises(sf.SpecError, match=r"^%s " % field):
        build(sf.Linear(slope=0.02))


def test_cover_validation():
    with pytest.raises(sf.SpecError):
        sf.AbelianCover(rank=0, L=sf.Constant(1.0))
    with pytest.raises(sf.SpecError):
        sf.AbelianCover(rank=2, config="nonsense", L=sf.Constant(1.0))
    with pytest.raises(sf.SpecError):
        sf.AbelianCover(rank=2, config="intersecting-pair")
    with pytest.raises(sf.SpecError):
        sf.AbelianCover(rank=1)
